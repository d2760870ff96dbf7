// Shared harness types for the benchmark's workloads: the per-pass record,
// op and untimed-work timers, and the pop-stream observer.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "services/nws.hpp"
#include "sim/engine.hpp"
#include "trace.hpp"
#include "util/hash.hpp"

namespace perfbench {

using namespace grads;

/// Fault a self-test injects so that each workload's oracle must fail.
enum class Inject {
  kNone,
  kFlipImageByte,     ///< crash-restart, whatif-fork: corrupt a snapshot image
  kDropAdmitted,      ///< tenant-overload: deadline drops admitted jobs
  kTamperAssignment,  ///< eman-workflow: move one component's finish time
};

/// Everything one pass over a workload's op set produces. Counts are
/// deterministic in the seed; host times are not.
struct Pass {
  Tracer* tr = nullptr;
  Inject inject = Inject::kNone;
  bool recordNws = false;  ///< capture NWS measurement series (traced)

  std::vector<double> opMs;  ///< host latency of every op, in order
  int failed = 0;
  std::vector<std::string> failures;  ///< one line per failed op
  /// Pass-level oracle breaks that belong to no op (a parent world that
  /// did not complete): they make the run incorrect without an op count.
  std::vector<std::string> broken;
  double untimedSec = 0.0;  ///< host time of Untimed work in the pass
  util::DigestStream digest;
  double simMakespanSec = 0.0;
  std::map<std::string, double> counts;  ///< per-layer deterministic counts
  /// Per-node NWS CPU measurement series, for the forecast replay.
  std::vector<std::vector<double>> nwsSeries;

  void add(const std::string& name, double v) { counts[name] += v; }
  void peak(const std::string& name, double v) {
    double& slot = counts[name];
    if (v > slot) slot = v;
  }
  void fail(std::string why) {
    ++failed;
    failures.push_back(std::move(why));
  }
};

/// Times one op: pushes its latency into the pass and opens its span tree.
class OpTimer {
 public:
  explicit OpTimer(Pass& p) : p_(p), t0_(nowNs()) {
    p_.tr->beginOp();
    p_.tr->open("op");
  }
  ~OpTimer() {
    p_.tr->close();
    p_.tr->endOp();
    p_.opMs.push_back(static_cast<double>(nowNs() - t0_) * 1e-6);
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  Pass& p_;
  std::int64_t t0_;
};

/// Host work outside the measured phase: oracles and per-pass world
/// construction. Excluded from the pass's wall time and op latency; the
/// tracer is paused inside, so it adds no per-layer self time either.
class Untimed {
 public:
  Untimed(Pass& p, const char* name) : p_(p), t0_(nowNs()) {
    p_.tr->open(name);
    wasOn_ = p_.tr->on();
    p_.tr->setOn(false);
  }
  ~Untimed() {
    p_.tr->setOn(wasOn_);
    p_.tr->close();
    p_.untimedSec += static_cast<double>(nowNs() - t0_) * 1e-9;
  }
  Untimed(const Untimed&) = delete;
  Untimed& operator=(const Untimed&) = delete;

 private:
  Pass& p_;
  std::int64_t t0_;
  bool wasOn_ = false;
};

/// The one pop observer a world's engine carries: the replay digest of the
/// pop stream, the daemon-event count, an optional kill ordinal (crash
/// points), and — in traced passes — the NWS CPU series recorder.
struct Observer {
  util::DigestStream ds;
  sim::Engine* eng = nullptr;
  std::uint64_t seen = 0;
  std::uint64_t daemons = 0;
  std::uint64_t stopAt = 0;  ///< 0 = never stop
  bool stopped = false;
  // NWS recorder (traced passes only): one series per node, handed to the
  // pass when the observer goes away.
  const services::Nws* nws = nullptr;
  std::vector<grid::NodeId> nodes;
  std::vector<std::vector<double>> series;
  std::vector<std::vector<double>>* sink = nullptr;
  std::size_t lastSamples = 0;

  static void onPop(void* ctx, sim::Time t, std::uint64_t key, bool daemon) {
    auto* o = static_cast<Observer*>(ctx);
    o->ds.put(t);
    o->ds.put(key);
    o->ds.put(static_cast<std::uint64_t>(daemon));
    ++o->seen;
    if (daemon) ++o->daemons;
    if (o->nws != nullptr && o->nws->samplesTaken() != o->lastSamples) {
      o->lastSamples = o->nws->samplesTaken();
      for (std::size_t i = 0; i < o->nodes.size(); ++i) {
        o->series[i].push_back(o->nws->cpuSeries(o->nodes[i]).lastValue());
      }
    }
    if (o->stopAt != 0 && o->seen == o->stopAt) {
      o->stopped = true;
      o->eng->stop();
    }
  }

  /// Attaches to `eng`. With `p->recordNws`, also records `n`'s per-node
  /// CPU series into the pass (bounded, so a long pass stays small). `p` is
  /// null for oracle worlds, which record nothing.
  void attach(sim::Engine& e, Pass* p, const services::Nws* n,
              const std::vector<grid::NodeId>& allNodes) {
    eng = &e;
    constexpr std::size_t kMaxSeries = 64;
    if (p != nullptr && p->recordNws && n != nullptr &&
        p->nwsSeries.size() < kMaxSeries) {
      nws = n;
      nodes = allNodes;
      series.resize(nodes.size());
      sink = &p->nwsSeries;
    }
    e.setPopObserver(&Observer::onPop, this);
  }

  ~Observer() {
    if (sink == nullptr) return;
    for (auto& s : series) {
      if (s.size() > 1) sink->push_back(std::move(s));
    }
  }
};

}  // namespace perfbench
