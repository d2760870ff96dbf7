#!/usr/bin/env python3
"""Pins the benchmark's deterministic work counts at one seed.

Usage, from the root of the repository:

    python3 tools/ledger/check.py            # compare against seed7.json
    python3 tools/ledger/check.py --record   # rewrite seed7.json

For every workload of BENCHMARK.json it runs

    python3 perfbench/run.py --workload W --seed 7 --seconds 0.2 --trace 1

and compares, exactly, the run's sim_digest, every per-layer metric whose
unit is a count or bytes, and sim_slowdown_p99, sim_utilization and
sim_harmful_commits against the committed file. These values repeat exactly
for a seed, so a change of behaviour shows up here as a diff. Host times are
not compared. Exits non-zero on any difference or failed run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
LEDGER = os.path.join(HERE, "seed7.json")
SEED = 7
PINNED_UNITS = {"count", "bytes"}
PINNED_SIM = {"sim_slowdown_p99", "sim_utilization", "sim_harmful_commits"}


def measure(workload, pinned):
    """Runs one traced workload; returns its pinned values or exits."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "0.2",
           "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd)} exited {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"FAIL {workload}: run not correct "
                 f"({result['failed']} of {result['attempted']} ops failed)")
    digest = next(l.split()[1] for l in lines if l.startswith("sim_digest "))
    metrics = {name: result["metrics"][name]["value"] for name in pinned}
    return {"sim_digest": digest, "metrics": dict(sorted(metrics.items()))}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", action="store_true",
                    help=f"rewrite {os.path.relpath(LEDGER, ROOT)}")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    pinned = [m["name"] for m in spec["per_layer"]
              if m["unit"] in PINNED_UNITS or m["name"] in PINNED_SIM]
    workloads = [w["name"] for w in spec["workloads"]]

    measured = {}
    for workload in workloads:
        measured[workload] = measure(workload, pinned)
        print(f"ran  {workload}: sim_digest {measured[workload]['sim_digest']}",
              flush=True)

    if args.record:
        with open(LEDGER, "w") as f:
            json.dump({"seed": SEED, "workloads": measured}, f, indent=2)
            f.write("\n")
        print(f"recorded {os.path.relpath(LEDGER, ROOT)}")
        return 0

    with open(LEDGER) as f:
        expected = json.load(f)["workloads"]
    diffs = []
    for workload in sorted(set(expected) | set(measured)):
        want = expected.get(workload)
        got = measured.get(workload)
        if want is None or got is None:
            diffs.append(f"{workload}: {'not in the ledger' if want is None else 'not run'}")
            continue
        if want["sim_digest"] != got["sim_digest"]:
            diffs.append(f"{workload}: sim_digest {want['sim_digest']} -> "
                         f"{got['sim_digest']}")
        for name in sorted(set(want["metrics"]) | set(got["metrics"])):
            a, b = want["metrics"].get(name), got["metrics"].get(name)
            if a != b:
                diffs.append(f"{workload}: {name} {a} -> {b}")
    for line in diffs:
        print("DIFF " + line)
    if diffs:
        print(f"FAIL {len(diffs)} value(s) differ from "
              f"{os.path.relpath(LEDGER, ROOT)}; if the change of behaviour "
              "is intended, rerun with --record and commit the file")
        return 1
    print(f"ok   every pinned value equals {os.path.relpath(LEDGER, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
