// tenant-overload: one op = one fixed simulated-time window of the mitigated
// metascheduler arm, advanced with Engine::runUntil. Arrivals are an open
// loop in simulated time at more than twice slot capacity. Oracles: after
// every window, every admitted job is completed, failed, unserved or still
// in flight (queued, running, parked); at the end the frontend drains and
// no admitted job failed or was dropped at the deadline.

#include <algorithm>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "util/stats.hpp"
#include "workload.hpp"
#include "worlds.hpp"

namespace perfbench {
namespace {

class TenantOverload final : public Workload {
 public:
  explicit TenantOverload(Scale scale) : scale_(scale) {}

  void setup(std::uint64_t seed) override {
    cfg_ = TenantConfig{};
    cfg_.seed = deriveSeed(seed, 0) % 100000;
    if (scale_ == Scale::kTiny) {
      cfg_.horizonSec = 1200.0;
      cfg_.deadlineSec = 3000.0;
    }
    World w;
    buildTenant(w, cfg_);
  }

  void runPass(Pass& p) override {
    TenantConfig cfg = cfg_;
    if (p.inject == Inject::kDropAdmitted) cfg.deadlineSec = cfg.horizonSec / 2;
    Observer obs;
    World w;
    std::vector<grid::NodeId> slots;
    {
      Untimed build(p, "world.build");
      slots = buildTenant(w, cfg);
    }
    obs.attach(w.eng, &p, &*w.nws, w.g.allNodes());
    double lastCompletion = 0.0;
    w.meta->setOnJobComplete([&lastCompletion](const metasched::JobStats& s) {
      lastCompletion = std::max(lastCompletion, s.completeAt);
    });
    w.nws->start();
    w.meta->start();

    // Generous cap: the mitigated arm drains well before the deadline.
    const double stopAt = cfg.deadlineSec + 4.0 * cfg.horizonSec;
    double t = 0.0;
    bool done = false;
    while (!done) {
      std::string error;
      {
        OpTimer op(p);
        try {
          Scope s(*p.tr, "sim.run");
          w.eng.runUntil(t + kWindowSec);
        } catch (const std::exception& e) {
          error = e.what();
        }
      }
      t += kWindowSec;
      const metasched::FrontendTotals tot = w.meta->totals();
      const std::int64_t inFlight =
          w.meta->queueDepth() + w.meta->runningJobs() + w.meta->parkedJobs();
      done = !error.empty() ||
             (t >= cfg.horizonSec && w.meta->jobsInSystem() == 0) ||
             t >= stopAt;
      const std::string where = "window ending t=" + std::to_string(t);
      if (!error.empty()) {
        p.fail(where + ": engine threw: " + error);
      } else if (tot.admitted !=
                 tot.completed + tot.failed + tot.unserved + inFlight) {
        p.fail(where + ": admitted jobs not conserved");
      } else if (done && !(w.meta->drained() && w.meta->jobsInSystem() == 0)) {
        p.fail(where + ": frontend did not drain");
      } else if (done && (tot.failed != 0 || tot.unserved != 0)) {
        p.fail(where + ": admitted jobs failed or were dropped (" +
               std::to_string(tot.failed) + " failed, " +
               std::to_string(tot.unserved) + " unserved)");
      }
    }

    const metasched::FrontendTotals tot = w.meta->totals();
    harvestWorld(p, w, obs);
    p.add("metasched.submitted", static_cast<double>(tot.submitted));
    p.add("metasched.admitted", static_cast<double>(tot.admitted));
    p.add("metasched.shed", static_cast<double>(tot.shed));
    p.add("metasched.preempted", static_cast<double>(tot.preempted));
    p.peak("metasched.peak_queue", static_cast<double>(tot.peakQueueDepth));
    std::vector<double> slowdowns = w.meta->allSlowdowns();
    std::sort(slowdowns.begin(), slowdowns.end());
    p.add("sim_slowdown_p99",
          slowdowns.empty() ? 0.0 : stats::quantile(slowdowns, 0.99));
    const double capacity = static_cast<double>(slots.size()) * lastCompletion;
    p.add("sim_utilization",
          capacity > 0.0 ? tot.busySlotSeconds / capacity : 0.0);
    p.simMakespanSec += lastCompletion;
    w.foldOutcome(obs.ds);
    p.digest.put(obs.ds.digest());
  }

 private:
  static constexpr double kWindowSec = 1000.0;

  Scale scale_;
  TenantConfig cfg_;
};

}  // namespace

std::unique_ptr<Workload> makeTenantOverload(Scale scale) {
  return std::make_unique<TenantOverload>(scale);
}

}  // namespace perfbench
