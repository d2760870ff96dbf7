// The perfbench program: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--scale full|tiny] [--inject KIND]
//
// Prepares the workload's inputs once (untimed), sets it up repeatedly
// (setup_s is the median), runs one untimed warm-up pass, then runs
// whole passes over its op set until S seconds have passed. With --trace 0
// it reports the end-to-end metrics; with --trace 1 it alternates untraced
// and traced passes and reports the per-layer metrics, the tracing
// overhead, and writes the traced spans as Chrome trace JSON. Every pass
// must reproduce the same replay digest and the same work counts; every op
// must pass its workload's oracle. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "services/nws.hpp"
#include "util/log.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},       {"wall_s", "s"},
    {"op_ms_p50", "ms"},    {"peak_rss_mb", "MiB"},
    {"sim_makespan_s", "sim_s"},
};

/// Per-layer metrics, printed for every workload (zero where a workload
/// bypasses the layer). Names ending in `_s`/`_ns` are self times around the
/// benchmark's own call sites, the median over traced passes; the rest are
/// deterministic counts or outcomes of one pass. `op_ms_tail` (over the
/// untraced passes' ops) is here because it does not repeat run to run
/// closely enough to carry a bound.
constexpr Metric kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.daemon_events", "count"},
    {"sim.run_s", "s"},
    {"sim.events_per_s", "1/s"},
    {"sim.pool_nodes_peak", "count"},
    {"services.nws.samples", "count"},
    {"services.nws.forecast_ns", "ns"},
    {"grid.flow.solves", "count"},
    {"grid.flow.flows_opened", "count"},
    {"grid.flow.peak_concurrent", "count"},
    {"core.snapshot.captures", "count"},
    {"core.snapshot.bytes_encoded", "bytes"},
    {"core.snapshot.serialize_s", "s"},
    {"core.snapshot.parses", "count"},
    {"core.snapshot.bytes_parsed", "bytes"},
    {"core.snapshot.parse_s", "s"},
    {"core.restore_s", "s"},
    {"metasched.submitted", "count"},
    {"metasched.admitted", "count"},
    {"metasched.shed", "count"},
    {"metasched.preempted", "count"},
    {"metasched.peak_queue", "count"},
    {"reschedule.whatif.decisions", "count"},
    {"reschedule.whatif.forks", "count"},
    {"reschedule.whatif.fallbacks", "count"},
    {"reschedule.whatif.fork_s", "s"},
    {"reschedule.whatif.fork_events", "count"},
    {"reschedule.journal.committed", "count"},
    {"reschedule.journal.rolled_back", "count"},
    {"reschedule.governor.suppressed", "count"},
    {"workflow.schedule_s", "s"},
    {"workflow.ecost_calls", "count"},
    {"workflow.ecost_s", "s"},
    {"workflow.transfer_calls", "count"},
    {"sim_slowdown_p99", "ratio"},
    {"sim_utilization", "ratio"},
    {"sim_harmful_commits", "count"},
    {"fail_ratio", "ratio"},
    {"op_ms_tail", "ms"},
    {"bench.trace_overhead_s", "s"},
};

/// Span names whose self time is reported, by metric name.
const std::map<std::string, std::string> kSpanOfMetric = {
    {"sim.run_s", "sim.run"},
    {"core.snapshot.serialize_s", "core.snapshot.serialize"},
    {"core.snapshot.parse_s", "core.snapshot.parse"},
    {"core.restore_s", "core.restore"},
    {"reschedule.whatif.fork_s", "reschedule.whatif.fork"},
    {"workflow.schedule_s", "workflow.schedule"},
    {"workflow.ecost_s", "workflow.ecost"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string traceOut;
  Scale scale = Scale::kFull;
  Inject inject = Inject::kNone;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload crash-restart|tenant-overload|"
               "whatif-fork|eman-workflow --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--scale full|tiny] [--inject "
               "flip-image-byte|drop-admitted|tamper-assignment]\n";
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
      haveSeed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.traceOut = v;
    } else if (flag == "--scale") {
      if (v != "full" && v != "tiny") usage("unknown scale " + v);
      a.scale = v == "tiny" ? Scale::kTiny : Scale::kFull;
    } else if (flag == "--inject") {
      if (v == "flip-image-byte") {
        a.inject = Inject::kFlipImageByte;
      } else if (v == "drop-admitted") {
        a.inject = Inject::kDropAdmitted;
      } else if (v == "tamper-assignment") {
        a.inject = Inject::kTamperAssignment;
      } else {
        usage("unknown fault " + v);
      }
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !haveSeed) {
    usage("--workload and --seed are required");
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> makeWorkload(const Args& a) {
  if (a.workload == "crash-restart") return makeCrashRestart(a.scale);
  if (a.workload == "tenant-overload") return makeTenantOverload(a.scale);
  if (a.workload == "whatif-fork") return makeWhatifFork(a.scale);
  if (a.workload == "eman-workflow") return makeEmanWorkflow(a.scale);
  usage("unknown workload " + a.workload);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Host cost of one ForecasterBattery::forecast(), replayed over recorded
/// measurement series: (add + forecast) minus (add only), per measurement,
/// median of three rounds.
double forecastNs(const std::vector<std::vector<double>>& series) {
  std::size_t n = 0;
  for (const auto& s : series) n += s.size();
  if (n == 0) return 0.0;
  volatile double sink = 0.0;
  const auto replay = [&](bool forecast) {
    const std::int64_t t0 = nowNs();
    for (const auto& s : series) {
      services::ForecasterBattery b;
      for (const double v : s) {
        b.addMeasurement(v);
        if (forecast) sink = sink + b.forecast();
      }
    }
    return static_cast<double>(nowNs() - t0);
  };
  std::vector<double> rounds;
  for (int r = 0; r < 3; ++r) {
    rounds.push_back((replay(true) - replay(false)) / static_cast<double>(n));
  }
  return median(rounds);
}

/// High-water resident set of this process image, from /proc/self/status.
/// Unlike getrusage's ru_maxrss it starts afresh at exec, so it never
/// includes the memory of the process that launched the benchmark.
double peakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  return 0.0;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct PassRecord {
  bool warmup = false;
  bool traced = false;
  double wallSec = 0.0;
  std::uint64_t digest = 0;
  std::size_t ops = 0;
  double simMakespanSec = 0.0;
  std::map<std::string, double> counts;
  std::map<std::string, double> self;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  // The library's warnings (depot outages, skipped checkpoint copies) are
  // still formatted, but go nowhere: written unbuffered to stderr they were
  // hundreds of KB per second, and the run's timing then depended on
  // whatever read that stream.
  std::ostream discard(nullptr);
  log::config().sink = &discard;
  std::unique_ptr<Workload> w = makeWorkload(args);
  w->prepare(args.seed);

  // Set up at least five times and for at least a second (capped at 20000
  // setups), so that a sub-millisecond setup still yields a steady median.
  std::vector<double> setupSec;
  const std::int64_t setupStart = nowNs();
  while (setupSec.size() < 5 ||
         (nowNs() - setupStart < 1000000000 && setupSec.size() < 20000)) {
    const std::int64_t t0 = nowNs();
    w->setup(args.seed);
    setupSec.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
  }

  Tracer tr;
  std::vector<PassRecord> passes;
  std::vector<double> opMs;  ///< latencies of the untraced passes' ops
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  std::vector<std::vector<double>> nwsSeries;
  const int minPasses = args.trace ? 2 : 1;
  std::int64_t deadline = 0;
  for (int i = 0;; ++i) {
    // Pass 0 is a warm-up: it fills the caches and the oracles' reference
    // results, and is checked like every pass but left out of every timing.
    // The measured phase starts after it. Traced runs then alternate
    // untraced and traced passes: the untraced ones give the overhead
    // baseline and the observer-effect digest check.
    const bool warmup = i == 0;
    if (i == 1) {
      deadline = nowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
    }
    const bool traced = args.trace && !warmup && i % 2 == 0;
    Pass p;
    p.tr = &tr;
    p.inject = args.inject;
    p.recordNws = traced && nwsSeries.empty();
    tr.setOn(traced);
    tr.resetSelf();
    const std::int64_t t0 = nowNs();
    tr.open("pass");
    w->runPass(p);
    tr.close();
    const double wall = static_cast<double>(nowNs() - t0) * 1e-9 - p.untimedSec;
    tr.setOn(false);

    PassRecord rec;
    rec.warmup = warmup;
    rec.traced = traced;
    rec.wallSec = wall;
    rec.digest = p.digest.digest();
    rec.ops = p.opMs.size();
    rec.simMakespanSec = p.simMakespanSec;
    rec.counts = p.counts;
    rec.self = tr.selfSeconds();
    passes.push_back(rec);
    if (!traced && !warmup) {
      opMs.insert(opMs.end(), p.opMs.begin(), p.opMs.end());
    }
    attempted += static_cast<int>(p.opMs.size());
    failed += p.failed;
    failures.insert(failures.end(), p.failures.begin(), p.failures.end());
    failures.insert(failures.end(), p.broken.begin(), p.broken.end());
    if (p.recordNws) nwsSeries = std::move(p.nwsSeries);
    if (i >= minPasses && nowNs() >= deadline) break;
  }

  // Replay and work-count consistency: every pass over the same op set must
  // reproduce the first pass exactly, traced or not.
  bool correct = failed == 0 && failures.empty() && attempted > 0;
  const PassRecord& first = passes.front();
  for (const PassRecord& r : passes) {
    if (r.digest != first.digest) {
      correct = false;
      failures.push_back(std::string("sim_digest differs between ") +
                         (r.traced != first.traced ? "traced and untraced "
                                                   : "") +
                         "passes");
    }
    if (r.counts != first.counts || r.ops != first.ops ||
        r.simMakespanSec != first.simMakespanSec) {
      correct = false;
      failures.push_back("per-pass work counts differ between passes");
    }
  }
  const double failRatio =
      attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;
  std::vector<double> sorted = opMs;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const std::size_t tailIndex = n > 10 ? n - 11 : 0;
  const double tailPct = n > 0 ? 100.0 * static_cast<double>(tailIndex + 1) /
                                     static_cast<double>(n)
                               : 0.0;

  std::vector<double> walls;
  std::vector<double> tracedWalls;
  std::vector<double> untracedWalls;
  for (const PassRecord& r : passes) {
    if (r.warmup) continue;
    walls.push_back(r.wallSec);
    (r.traced ? tracedWalls : untracedWalls).push_back(r.wallSec);
  }

  const double peakRssMb = peakRssMib();

  std::map<std::string, double> values;
  if (!args.trace) {
    values["setup_s"] = median(setupSec);
    values["wall_s"] = median(walls);
    values["op_ms_p50"] = median(opMs);
    values["peak_rss_mb"] = peakRssMb;
    values["sim_makespan_s"] = first.simMakespanSec;
  } else {
    for (const auto& [name, v] : first.counts) values[name] = v;
    for (const auto& [metric, span] : kSpanOfMetric) {
      std::vector<double> per;
      for (const PassRecord& r : passes) {
        if (!r.traced) continue;
        const auto it = r.self.find(span);
        per.push_back(it == r.self.end() ? 0.0 : it->second);
      }
      values[metric] = median(per);
    }
    const double runSec = values["sim.run_s"];
    values["sim.events_per_s"] =
        runSec > 0.0 ? values["sim.events"] / runSec : 0.0;
    values["services.nws.forecast_ns"] = forecastNs(nwsSeries);
    values["op_ms_tail"] = n > 0 ? sorted[tailIndex] : 0.0;
    values["fail_ratio"] = failRatio;
    values["bench.trace_overhead_s"] =
        median(tracedWalls) - median(untracedWalls);
  }

  std::cout << "workload " << args.workload << " seed " << args.seed << ": "
            << passes.size() - 1 << " passes after a warm-up, " << attempted
            << " ops, " << failed << " failed (fail_ratio "
            << number(failRatio) << ")\n"
            << "op_ms_tail is p" << number(tailPct) << " ("
            << (n > tailIndex ? n - tailIndex - 1 : 0) << " of " << n
            << " ops beyond it)\n"
            << "sim_digest " << hex(first.digest) << "\n";
  if (args.trace) {
    std::cout << "tracing overhead " << number(values["bench.trace_overhead_s"])
              << " s per pass; " << tr.storedSpans() << " spans kept, "
              << tr.droppedSpans() << " dropped\n";
    if (!args.traceOut.empty()) {
      if (tr.write(args.traceOut)) {
        std::cout << "trace written to " << args.traceOut << "\n";
      } else {
        std::cout << "could not write trace to " << args.traceOut << "\n";
        correct = false;
      }
    }
  }
  const std::size_t shown = std::min<std::size_t>(failures.size(), 10);
  for (std::size_t i = 0; i < shown; ++i) {
    std::cout << "FAIL " << failures[i] << "\n";
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  bool firstMetric = true;
  const auto emit = [&](const Metric& m) {
    std::cout << (firstMetric ? "" : ", ") << '"' << m.name
              << "\": {\"value\": " << number(values[m.name])
              << ", \"unit\": \"" << m.unit << "\"}";
    firstMetric = false;
  };
  if (args.trace) {
    for (const Metric& m : kPerLayer) emit(m);
  } else {
    for (const Metric& m : kEndToEnd) emit(m);
  }
  std::cout << "}}" << std::endl;
  return 0;
}
