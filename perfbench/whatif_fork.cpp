// whatif-fork: one op = one sandboxed fork. The parents are the
// repository's what-if scenario (bench/whatif_world.hpp) in its flap,
// flap+degrade and flap+depot shapes, built with bench::buildWhatifWorld
// and the fork driver armed; every fork the driver asks for is an op:
// SnapshotImage::parse, a fresh control plane restored with
// RestoreKind::kSandbox, the candidate pinned through the journal, then a
// bounded horizon under its perturbation. Oracle: the repository's own
// SandboxRunner, bench::runWhatifFork, re-run from the same image and
// request gives the same fork digest (once per distinct request, outside
// the op; later passes compare against it).

#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "core/snapshot.hpp"
#include "util/hash.hpp"
#include "whatif_world.hpp"
#include "workload.hpp"
#include "worlds.hpp"

namespace perfbench {
namespace {

using reschedule::whatif::CandidateKind;
using reschedule::whatif::ForkOutcome;
using reschedule::whatif::ForkRequest;
using reschedule::whatif::PerturbationKind;

/// The op's fork: bench::runWhatifFork step for step, with the benchmark's
/// spans around parse, restore and the horizon, and the benchmark's
/// observer (which also counts daemon events and records NWS series) in
/// place of the runner's own. The oracle compares its digest with
/// bench::runWhatifFork's, so the two cannot drift apart silently.
ForkOutcome runFork(Pass& p, const bench::WhatifConfig& parent,
                    const ForkRequest& rq) {
  ForkOutcome out;
  bench::WhatifConfig cfg = parent;
  cfg.withDriver = false;  // forks never recurse into speculation
  Observer obs;
  World w;
  const bench::WhatifTestbed tb =
      bench::buildWhatifWorld(w, cfg, /*armDaemons=*/false);
  obs.stopAt = rq.maxEvents;
  obs.attach(w.eng, &p, &*w.nws, w.g.allNodes());

  int baseGoverned = 0;
  bool restoredOk = false;
  try {
    core::SnapshotImage img;
    {
      Scope s(*p.tr, "core.snapshot.parse");
      img = core::SnapshotImage::parse(*rq.image);
    }
    p.add("core.snapshot.parses", 1);
    p.add("core.snapshot.bytes_parsed", static_cast<double>(rq.image->size()));
    {
      Scope s(*p.tr, "sim.run");
      w.eng.runUntil(img.simTime);
    }
    {
      Scope s(*p.tr, "core.restore");
      w.mgr->restoreFrom(img, core::AppManager::RestoreKind::kSandbox);
    }
    w.journal->recover("whatif fork");
    // Suppress pins the current mapping, so the relaunch cannot re-map.
    const std::vector<grid::NodeId>& pin =
        (rq.candidate.kind == CandidateKind::kSuppress ||
         rq.candidate.target.empty())
            ? rq.current
            : rq.candidate.target;
    w.journal->open(rq.app, reschedule::ActionKind::kMigrate, rq.current, pin,
                    /*pinned=*/true, "whatif fork: " + rq.candidate.label);

    const double at = img.simTime + 5.0;
    switch (rq.perturbation.kind) {
      case PerturbationKind::kNone:
        break;
      case PerturbationKind::kTargetSlowdown:
        for (const auto n : pin) {
          w.traces.emplace_back(
              n, grid::LoadTrace::stepAt(at, rq.perturbation.severity));
        }
        break;
      case PerturbationKind::kLinkDegrade: {
        reschedule::ChaosEvent ev;
        ev.kind = reschedule::ChaosKind::kLinkDegrade;
        ev.atSec = at;
        ev.durationSec = rq.horizonSec;
        ev.link = tb.wan;
        ev.bandwidthScale = rq.perturbation.severity;
        w.schedule.push_back(ev);
        break;
      }
      case PerturbationKind::kDepotOutage:
        for (const auto depot : {tb.stableDepot, tb.replicaDepot}) {
          reschedule::ChaosEvent ev;
          ev.kind = reschedule::ChaosKind::kDepotOutage;
          ev.atSec = at;
          ev.durationSec = rq.perturbation.severity;
          ev.node = depot;
          w.schedule.push_back(ev);
        }
        break;
    }
    w.armDaemons(img.simTime);
    baseGoverned =
        w.governor->stats().admitted + w.governor->stats().suppressed();
    restoredOk = true;
    w.spawnApp();
    Scope s(*p.tr, "sim.run");
    w.eng.runUntil(img.simTime + rq.horizonSec);
  } catch (const std::exception&) {
    out.aborted = true;
  }

  out.aborted = out.aborted || obs.stopped;
  out.events = obs.seen;
  out.completed = !out.aborted && w.mgr->isCompleted(rq.app);
  out.makespanSec = out.completed ? w.bd.totalSeconds : rq.horizonSec;
  out.progressSec = w.bd.sumSegment(w.bd.appDuration);
  out.checkpointCostSec = w.bd.sumSegment(w.bd.checkpointWrite) +
                          w.bd.sumSegment(w.bd.checkpointRead);
  if (restoredOk) {
    out.violationRecurrences = w.governor->stats().admitted +
                               w.governor->stats().suppressed() - baseGoverned;
  }
  std::vector<std::vector<grid::NodeId>> maps{rq.current};
  maps.insert(maps.end(), w.bd.mappings.begin(), w.bd.mappings.end());
  out.migrateBacks = bench::countWhatifOscillations(maps);
  bench::foldWhatifBreakdown(obs.ds, w.bd);
  obs.ds.put(static_cast<std::uint64_t>(w.chaos->counters().total()));
  out.forkDigest = obs.ds.digest();
  harvestWorld(p, w, obs);
  return out;
}

/// Identity of a fork request: the image bytes plus every request field.
std::uint64_t requestKey(const ForkRequest& rq) {
  util::DigestStream ds;
  ds.put(util::fnv1a64(rq.image->data(), rq.image->size()));
  ds.put(rq.app);
  for (const auto n : rq.current) ds.put(static_cast<std::uint64_t>(n));
  ds.put(static_cast<std::uint64_t>(rq.candidate.kind));
  for (const auto n : rq.candidate.target) {
    ds.put(static_cast<std::uint64_t>(n));
  }
  ds.put(rq.candidate.label);
  ds.put(static_cast<std::uint64_t>(rq.perturbation.kind));
  ds.put(rq.perturbation.seed);
  ds.put(rq.perturbation.severity);
  ds.put(rq.horizonSec);
  ds.put(rq.maxEvents);
  return ds.digest();
}

class WhatifFork final : public Workload {
 public:
  explicit WhatifFork(Scale scale) : scale_(scale) {}

  void setup(std::uint64_t seed) override {
    struct { int degrades; int outages; } shapes[] = {{0, 0}, {2, 0}, {0, 2}};
    parents_.clear();
    forkDigests_.clear();
    // Several seeds per shape: the number of forks a parent asks for is
    // emergent, and more parents keep the pass's work steady across seeds.
    const int perShape = scale_ == Scale::kTiny ? 1 : kParentsPerShape;
    std::uint64_t stream = 0;
    for (const auto& shape : shapes) {
      for (int k = 0; k < perShape; ++k, ++stream) {
        bench::WhatifConfig cfg;
        cfg.seed = deriveSeed(seed, stream) % 100000;
        cfg.linkDegrades = shape.degrades;
        cfg.depotOutages = shape.outages;
        cfg.withDriver = true;
        cfg.driver.seed = deriveSeed(seed, 1000 + stream);
        if (scale_ == Scale::kTiny) {
          cfg.driver.budget.maxForks = 2;
          cfg.driver.budget.pessimisticFutures = 0;
        }
        parents_.push_back(cfg);
        World w;
        bench::buildWhatifWorld(w, cfg, /*armDaemons=*/true);
      }
    }
    if (scale_ == Scale::kTiny) parents_.resize(1);
  }

  void runPass(Pass& p) override {
    for (const bench::WhatifConfig& cfg : parents_) runParent(p, cfg);
  }

 private:
  static constexpr int kParentsPerShape = 16;

  void runParent(Pass& p, const bench::WhatifConfig& cfg) {
    Observer obs;
    World w;
    {
      Untimed build(p, "world.build");
      bench::buildWhatifWorld(w, cfg, /*armDaemons=*/true);
    }
    // The same driver wiring, with the runner and snapshot source that
    // buildWhatifWorld installs replaced by timed and counted ones.
    w.fork->setRunner([this, &p, &cfg](const ForkRequest& rq) {
      return fork(p, cfg, rq);
    });
    w.fork->setSnapshotSource([&p, mgr = &*w.mgr] {
      const core::SnapshotImage img = mgr->snapshotNow();
      Scope s(*p.tr, "core.snapshot.serialize");
      std::vector<std::uint8_t> bytes = img.serialize();
      p.add("core.snapshot.captures", 1);
      p.add("core.snapshot.bytes_encoded", static_cast<double>(bytes.size()));
      return bytes;
    });
    obs.attach(w.eng, &p, &*w.nws, w.g.allNodes());
    w.spawnApp();
    try {
      Scope s(*p.tr, "sim.run");
      w.eng.run();
    } catch (const std::exception& e) {
      p.broken.push_back(std::string("whatif parent threw: ") + e.what());
    }
    if (!w.mgr->isCompleted(w.cop.name)) {
      p.broken.push_back("whatif parent seed " + std::to_string(cfg.seed) +
                         " did not complete");
    }
    harvestWorld(p, w, obs);
    const auto& st = w.fork->stats();
    p.add("reschedule.whatif.decisions", st.decisions);
    p.add("reschedule.whatif.fallbacks", st.fallbacks);
    p.add("sim_harmful_commits",
          bench::countHarmfulCommits(w.journal->records(),
                                     cfg.driver.budget.horizonSec));
    p.simMakespanSec += w.bd.totalSeconds;
    bench::foldWhatifBreakdown(obs.ds, w.bd);
    obs.ds.put(static_cast<std::uint64_t>(w.chaos->counters().total()));
    p.digest.put(obs.ds.digest());
  }

  ForkOutcome fork(Pass& p, const bench::WhatifConfig& cfg,
                   const ForkRequest& rq) {
    ForkOutcome out;
    {
      OpTimer op(p);
      Scope s(*p.tr, "reschedule.whatif.fork");
      out = runFork(p, cfg, rq);
    }
    p.add("reschedule.whatif.forks", 1);
    p.add("reschedule.whatif.fork_events", static_cast<double>(out.events));
    p.digest.put(out.forkDigest);

    Untimed oracle(p, "oracle");
    const std::uint64_t key = requestKey(rq);
    auto it = forkDigests_.find(key);
    if (it == forkDigests_.end()) {
      std::vector<std::uint8_t> image = *rq.image;
      if (p.inject == Inject::kFlipImageByte) image[image.size() / 2] ^= 0x40;
      ForkRequest again = rq;
      again.image = &image;
      const ForkOutcome rerun = bench::runWhatifFork(cfg, again);
      it = forkDigests_.emplace(key, rerun.forkDigest).first;
    }
    if (out.forkDigest != it->second) {
      p.fail("fork of " + rq.app + " (" + rq.candidate.label +
             ") differs from bench::runWhatifFork on the same request");
    }
    return out;
  }

  Scale scale_;
  std::vector<bench::WhatifConfig> parents_;
  std::map<std::uint64_t, std::uint64_t> forkDigests_;  ///< by requestKey
};

}  // namespace

std::unique_ptr<Workload> makeWhatifFork(Scale scale) {
  return std::make_unique<WhatifFork>(scale);
}

}  // namespace perfbench
