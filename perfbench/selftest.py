#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

Usage, from the root of the repository:

    python3 perfbench/selftest.py

For every workload it checks that:
  * an untraced run prints every end-to-end metric of BENCHMARK.json and a
    traced run every per-layer metric, both correct with no failed op;
  * the same seed repeats the same sim_digest and per-layer counts, traced
    and untraced alike, and another seed gives another digest;
  * the workload's oracle fails when its fault is injected (a flipped byte
    in a snapshot image, admitted jobs dropped, a tampered assignment).
Exits non-zero on the first broken check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FAULTS = {
    "crash-restart": "flip-image-byte",
    "tenant-overload": "drop-admitted",
    "whatif-fork": "flip-image-byte",
    "eman-workflow": "tamper-assignment",
}
# Host times (per-layer metrics in s, ms, ns or 1/s) legitimately differ
# between runs; everything else in the traced output is a deterministic count.
HOST_TIME_UNITS = {"s", "ms", "ns", "1/s"}


def run(workload, seed, trace, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    if inject:
        cmd += ["--inject", inject]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd)} exited {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("sim_digest"))
    return json.loads(lines[-1]), digest


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload, fault in FAULTS.items():
        plain, digest = run(workload, 7, 0)
        check(set(plain["metrics"]) == end_to_end and plain["correct"]
              and plain["failed"] == 0,
              f"{workload}: untraced run correct, every end-to-end metric")
        traced, traced_digest = run(workload, 7, 1)
        check(set(traced["metrics"]) == set(per_layer) and traced["correct"]
              and traced["failed"] == 0,
              f"{workload}: traced run correct, every per-layer metric")
        check(traced_digest == digest,
              f"{workload}: traced and untraced sim_digest agree")
        again, again_digest = run(workload, 7, 1)
        counts = {k: v["value"] for k, v in traced["metrics"].items()
                  if per_layer[k] not in HOST_TIME_UNITS}
        repeat = {k: v["value"] for k, v in again["metrics"].items()
                  if per_layer[k] not in HOST_TIME_UNITS}
        check(again_digest == digest and counts == repeat,
              f"{workload}: same seed repeats digest and counts")
        _, other_digest = run(workload, 8, 0)
        check(other_digest != digest, f"{workload}: another seed, another digest")
        broken, _ = run(workload, 7, 0, inject=fault)
        check(broken["failed"] > 0 and not broken["correct"],
              f"{workload}: injected {fault} raises fail_ratio")
    print("selftest passed")


if __name__ == "__main__":
    main()
