// Scenario worlds the workloads drive: the single-app QR scenarios of the
// crash-restart workload (chaos, integrity, governed thrash) and the
// metascheduler overload world. Built only from the library's public API;
// the configurations follow the repository's crash-sweep and tenant
// campaigns, with every seed taken from the benchmark's own seed. The
// what-if fork workload builds its worlds with the repository's own
// bench::buildWhatifWorld, which templates over this World's member set.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/qr.hpp"
#include "bench.hpp"
#include "core/app_manager.hpp"
#include "grid/load.hpp"
#include "grid/testbeds.hpp"
#include "metasched/frontend.hpp"
#include "reschedule/chaos.hpp"
#include "reschedule/failure.hpp"
#include "reschedule/governor.hpp"
#include "reschedule/journal.hpp"
#include "reschedule/rescheduler.hpp"
#include "reschedule/whatif/fork_driver.hpp"
#include "services/gis.hpp"
#include "services/ibp.hpp"
#include "services/nws.hpp"
#include "sim/engine.hpp"

namespace perfbench {

constexpr double kMB = 1024.0 * 1024.0;

/// SplitMix64 step: derives independent sub-seeds from the benchmark seed.
inline std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One whole control plane. The engine is declared first so it is destroyed
/// last: destroying a world mid-run tears down coroutine frames inside
/// ~Engine, and their destructors must still see a live engine.
struct World {
  sim::Engine eng;
  grid::Grid g{eng};
  std::optional<services::Gis> gis;
  std::optional<services::Nws> nws;
  std::optional<services::Ibp> ibp;
  std::optional<autopilot::AutopilotManager> autopilot;
  std::optional<reschedule::FailureInjector> injector;
  std::optional<reschedule::ChaosDriver> chaos;
  std::optional<reschedule::ActionJournal> journal;
  std::optional<reschedule::ViolationGovernor> governor;
  std::optional<reschedule::StopRestartRescheduler> rescheduler;
  /// Set only by bench::buildWhatifWorld, which registers it itself.
  std::optional<reschedule::whatif::ForkDriver> fork;
  std::optional<core::AppManager> mgr;
  std::optional<metasched::MetaScheduler> meta;
  core::Cop cop;
  core::ManagerOptions mopts;
  std::vector<reschedule::ChaosEvent> schedule;
  std::vector<std::pair<grid::NodeId, grid::LoadTrace>> traces;
  core::RunBreakdown bd;

  /// Arms NWS sampling, load traces and the chaos schedule from `from`
  /// (0 for a fresh run, the image time after a restore).
  void armDaemons(double from) {
    if (chaos) chaos->armFrom(schedule, from);
    for (const auto& [node, trace] : traces) {
      grid::applyLoadTraceFrom(eng, g.node(node), trace, from);
    }
    nws->start();
  }

  /// Spawns the single QR app unless the restored ledger says it finished.
  void spawnApp() {
    if (mgr->isCompleted(cop.name)) return;
    reschedule::StopRestartRescheduler* rs = rescheduler ? &*rescheduler
                                                         : nullptr;
    eng.spawn(mgr->run(cop, rs, mopts, &bd), cop.name);
  }

  /// Folds the run's outcome (beyond the pop stream) into a digest.
  void foldOutcome(util::DigestStream& ds) const {
    ds.put(bd.totalSeconds);
    ds.put(static_cast<std::uint64_t>(bd.incarnations));
    ds.put(static_cast<std::uint64_t>(bd.launchFailures));
    ds.put(static_cast<std::uint64_t>(bd.restoreFailures));
    ds.put(static_cast<std::uint64_t>(bd.integrityRejects));
    ds.put(static_cast<std::uint64_t>(bd.actionsCommitted));
    ds.put(static_cast<std::uint64_t>(bd.actionsRolledBack));
    ds.put(static_cast<std::uint64_t>(bd.violationsSuppressed));
    ds.put(static_cast<std::uint64_t>(bd.daemonRearms));
    for (const auto& mapping : bd.mappings) {
      for (const auto node : mapping) ds.put(static_cast<std::uint64_t>(node));
    }
    if (chaos) ds.put(static_cast<std::uint64_t>(chaos->counters().total()));
    if (meta) meta->foldDigest(ds);
  }

  void registerSnapshots() {
    auto& reg = mgr->snapshots();
    reg.add(g);
    reg.add(*gis);
    reg.add(*nws);
    reg.add(*ibp);
    reg.add(*autopilot);
    if (journal) reg.add(*journal);
    if (governor) reg.add(*governor);
    if (meta) reg.add(*meta);
  }
};

/// Every per-layer counter a finished world exposes, added to the pass.
inline void harvestWorld(Pass& p, World& w, const Observer& obs) {
  p.add("sim.events", static_cast<double>(w.eng.processedEvents()));
  p.add("sim.daemon_events", static_cast<double>(obs.daemons));
  p.peak("sim.pool_nodes_peak", static_cast<double>(w.eng.poolSize()));
  p.add("services.nws.samples", static_cast<double>(w.nws->samplesTaken()));
  const grid::FlowRegistry& flows = w.g.flows();
  p.add("grid.flow.solves", static_cast<double>(flows.solves()));
  p.add("grid.flow.flows_opened", static_cast<double>(flows.flowsOpened()));
  p.peak("grid.flow.peak_concurrent",
         static_cast<double>(flows.peakConcurrentFlows()));
  if (w.journal) {
    p.add("reschedule.journal.committed", w.journal->committed());
    p.add("reschedule.journal.rolled_back", w.journal->rolledBack());
  }
  if (w.governor) {
    p.add("reschedule.governor.suppressed", w.governor->stats().suppressed());
  }
}

inline void installQrSoftware(World& w) {
  w.gis.emplace(w.g);
  w.gis->installEverywhere(services::software::kLocalBinder);
  w.gis->installEverywhere(services::software::kScalapack);
  w.gis->installEverywhere(services::software::kSrsLibrary);
  w.gis->installEverywhere(services::software::kAutopilotSensors);
}

inline void addQrServices(World& w, double nwsNoise, std::uint64_t nwsSeed) {
  w.nws.emplace(w.eng, w.g, 10.0, nwsNoise, nwsSeed);
  w.ibp.emplace(w.g);
  w.autopilot.emplace(w.eng);
  w.injector.emplace(w.eng, *w.gis);
  w.chaos.emplace(w.eng, w.g, *w.injector, &*w.nws, &*w.ibp);
}

inline grid::LoadTrace squareWave(double firstOnset, double period,
                                  double weight, int cycles) {
  std::vector<grid::LoadPhase> phases;
  for (int c = 0; c < cycles; ++c) {
    const double on = firstOnset + 2.0 * period * c;
    phases.push_back({on, weight});
    phases.push_back({on + period, 0.0});
  }
  return grid::LoadTrace(phases);
}

// --- crash-restart scenarios -------------------------------------------

/// QR on the §4.2.1 testbed under a seeded chaos campaign: a node failure,
/// depot and NWS outages, and WAN degrades that make the flow registry
/// re-share in-flight checkpoint traffic.
inline void buildChaosQr(World& w, std::uint64_t seed) {
  const auto tb = grid::buildQrTestbed(w.g);
  installQrSoftware(w);
  for (const auto node : tb.utkNodes) w.gis->setNodeUp(node, false);
  addQrServices(w, 0.0, seed);

  const grid::NodeId depot = tb.uiucNodes[7];
  reschedule::CampaignConfig cc;
  cc.seed = seed;
  cc.horizonSec = 450.0;
  cc.nodeFailures = 1;
  cc.nodeOutageSec = 400.0;
  cc.detectionDelaySec = 5.0;
  cc.gisLagSec = 45.0;
  cc.candidateNodes.assign(tb.uiucNodes.begin(), tb.uiucNodes.begin() + 6);
  cc.depotOutages = 2;
  cc.depotOutageSec = 200.0;
  cc.candidateDepots = {depot};
  cc.nwsOutages = 1;
  cc.nwsOutageSec = 300.0;
  cc.linkDegrades = 2;
  cc.degradeScale = 0.5;
  cc.degradeDurationSec = 120.0;
  cc.candidateLinks = {w.g.route(tb.utkNodes[0], tb.uiucNodes[0]).links[1]};
  w.schedule = reschedule::makeCampaign(cc);

  apps::QrConfig cfg;
  cfg.n = 6000;
  cfg.checkpointEveryPanels = 8;
  w.cop = apps::makeQrCop(w.g, cfg);
  w.mgr.emplace(w.g, *w.gis, &*w.nws, *w.ibp, *w.autopilot);
  w.mopts.monitorContract = false;
  w.mopts.stableDepot = depot;
  w.mopts.failures = &*w.injector;
  w.mopts.retrySeed = seed;
  w.mopts.depotRetry.maxAttempts = 3;
  w.mopts.depotRetry.baseDelaySec = 20.0;
  w.mopts.replicaDepot = tb.uiucNodes[6];
  w.registerSnapshots();
}

/// QR with verified, fenced, scrubbed checkpoints under seeded bit flips,
/// torn writes and stale deliveries.
inline void buildIntegrityQr(World& w, std::uint64_t seed) {
  const auto tb = grid::buildQrTestbed(w.g);
  installQrSoftware(w);
  for (const auto node : tb.utkNodes) w.gis->setNodeUp(node, false);
  addQrServices(w, 0.0, seed);

  const grid::NodeId depot = tb.uiucNodes[7];
  const grid::NodeId replica = tb.uiucNodes[6];
  reschedule::CampaignConfig cc;
  cc.seed = seed;
  cc.horizonSec = 450.0;
  cc.nodeFailures = 1;
  cc.nodeOutageSec = 400.0;
  cc.detectionDelaySec = 5.0;
  cc.candidateNodes.assign(tb.uiucNodes.begin(), tb.uiucNodes.begin() + 6);
  cc.bitFlips = 8;
  cc.tornWrites = 4;
  cc.staleDeliveries = 4;
  cc.tornKeepFrac = 0.5;
  cc.integrityDepots = {depot, replica};
  w.schedule = reschedule::makeCampaign(cc);

  apps::QrConfig cfg;
  cfg.n = 6000;
  cfg.checkpointEveryPanels = 8;
  w.cop = apps::makeQrCop(w.g, cfg);
  w.mgr.emplace(w.g, *w.gis, &*w.nws, *w.ibp, *w.autopilot);
  w.mopts.monitorContract = false;
  w.mopts.stableDepot = depot;
  w.mopts.replicaDepot = replica;
  w.mopts.failures = &*w.injector;
  w.mopts.retrySeed = seed;
  w.mopts.depotRetry.maxAttempts = 3;
  w.mopts.depotRetry.baseDelaySec = 20.0;
  w.mopts.verifyCheckpoints = true;
  w.mopts.fenceWrites = true;
  w.mopts.scrubPeriodSec = 60.0;
  w.registerSnapshots();
}

/// Two clusters under antiphase flapping load, app governed through the
/// action journal (quorum, hysteresis, a long cooldown).
inline void buildThrashQr(World& w, std::uint64_t seed) {
  const auto east = w.g.addCluster(
      grid::ClusterSpec{"east", "East", grid::fastEthernetLan("east.lan", 4)});
  const auto west = w.g.addCluster(
      grid::ClusterSpec{"west", "West", grid::fastEthernetLan("west.lan", 4)});
  std::vector<grid::NodeId> eastNodes;
  std::vector<grid::NodeId> westNodes;
  for (int i = 0; i < 4; ++i) {
    eastNodes.push_back(w.g.addNode(east, grid::utkQrNodeSpec(i)));
    westNodes.push_back(w.g.addNode(west, grid::utkQrNodeSpec(i + 4)));
  }
  w.g.connectClusters(east, west,
                      grid::internetWan("east-west.wan", 0.005, 12.0 * kMB));
  installQrSoftware(w);
  addQrServices(w, 0.02, seed);

  const double period = 90.0;
  for (const auto n : eastNodes) {
    w.traces.emplace_back(n, squareWave(period, period, 3.0, 10));
  }
  for (const auto n : westNodes) {
    w.traces.emplace_back(n, squareWave(2.0 * period, period, 3.0, 10));
  }

  apps::QrConfig cfg;
  cfg.n = 6000;
  w.cop = apps::makeQrCop(w.g, cfg);
  w.journal.emplace(w.eng);
  reschedule::ReschedulerOptions ropts;
  ropts.worstCaseMigrationSec = 40.0;
  w.rescheduler.emplace(*w.gis, &*w.nws, ropts);
  w.rescheduler->setJournal(&*w.journal);
  reschedule::GovernorOptions gopts;
  gopts.quorumK = 2;
  gopts.quorumN = 4;
  gopts.hysteresisBand = 0.1;
  gopts.cooldownSec = 600.0;
  gopts.maxConcurrentActions = 1;
  w.governor.emplace(w.eng, *w.journal, gopts);
  w.mgr.emplace(w.g, *w.gis, &*w.nws, *w.ibp, *w.autopilot);
  w.mopts.journal = &*w.journal;
  w.mopts.governor = &*w.governor;
  w.mopts.retrySeed = seed;
  w.registerSnapshots();
}

// --- tenant overload -----------------------------------------------------

struct TenantConfig {
  std::uint64_t seed = 41;
  int clusters = 4;
  int nodesPerCluster = 8;
  double horizonSec = 40000.0;
  double deadlineSec = 80000.0;
  double offeredFactor = 2.2;
};

/// The mitigated metascheduler arm: admission with backpressure, brownout
/// ladder and journaled checkpoint-and-park preemption over a slot pool,
/// fed by diurnal Poisson arrivals of Pareto-sized jobs at `offeredFactor`
/// times slot capacity, across three priority tiers.
inline std::vector<grid::NodeId> buildTenant(World& w,
                                             const TenantConfig& cfg) {
  std::vector<grid::NodeId> slots;
  std::vector<grid::ClusterId> clusters;
  for (int c = 0; c < cfg.clusters; ++c) {
    const std::string tag = "site" + std::to_string(c);
    clusters.push_back(w.g.addCluster(grid::ClusterSpec{
        tag, tag, grid::fastEthernetLan(tag + ".lan", cfg.nodesPerCluster)}));
    for (int n = 0; n < cfg.nodesPerCluster; ++n) {
      slots.push_back(w.g.addNode(clusters.back(), grid::utkQrNodeSpec(n)));
    }
  }
  for (std::size_t a = 0; a < clusters.size(); ++a) {
    for (std::size_t b = a + 1; b < clusters.size(); ++b) {
      w.g.connectClusters(clusters[a], clusters[b],
                          grid::internetWan("wan" + std::to_string(a) + "-" +
                                                std::to_string(b),
                                            0.01, 4.0 * kMB));
    }
  }
  w.gis.emplace(w.g);
  w.gis->installEverywhere(services::software::kLocalBinder);
  w.gis->installEverywhere(services::software::kSrsLibrary);
  w.nws.emplace(w.eng, w.g, 60.0, 0.0, cfg.seed);
  w.ibp.emplace(w.g);
  w.autopilot.emplace(w.eng);
  w.journal.emplace(w.eng);
  w.mgr.emplace(w.g, *w.gis, &*w.nws, *w.ibp, *w.autopilot);

  const double ref = w.g.node(slots.front()).spec().effectiveFlopsPerCpu();
  metasched::FrontendOptions fo;
  fo.slots = slots;
  fo.horizonSec = cfg.horizonSec;
  fo.hardDeadlineSec = cfg.deadlineSec;
  fo.controlPeriodSec = 30.0;
  fo.flopsPerPhase = ref * 30.0;
  fo.refFlopsPerSec = ref;
  fo.seed = cfg.seed;
  const double xm = 150.0;
  const double alpha = 1.9;
  const double totalRate = cfg.offeredFactor *
                           static_cast<double>(slots.size()) /
                           ((alpha / (alpha - 1.0)) * xm);
  const struct { const char* name; int tier; double weight; double share; }
      shapes[] = {{"hi-a", 2, 3.0, 0.075},  {"hi-b", 2, 1.0, 0.075},
                  {"norm-a", 1, 2.0, 0.175}, {"norm-b", 1, 1.0, 0.175},
                  {"batch-a", 0, 2.0, 0.25}, {"batch-b", 0, 1.0, 0.25}};
  int i = 0;
  for (const auto& s : shapes) {
    metasched::TenantSpec t;
    t.name = s.name;
    t.tier = s.tier;
    t.weight = s.weight;
    t.baseRatePerSec = s.share * totalRate;
    t.diurnalAmplitude = 0.3;
    t.diurnalPeriodSec = 3000.0;
    t.diurnalPhaseSec = 500.0 * i;
    t.paretoXmFlops = ref * xm;
    t.paretoAlpha = alpha;
    t.maxJobFlops = ref * 3600.0;
    t.resubmit.maxAttempts = 4;
    t.resubmit.baseDelaySec = 60.0;
    t.resubmit.backoffFactor = 2.0;
    t.resubmit.maxDelaySec = 900.0;
    t.resubmit.jitterFrac = 0.2;
    t.seed = deriveSeed(cfg.seed, 100 + static_cast<std::uint64_t>(i));
    fo.tenants.push_back(t);
    ++i;
  }
  fo.admission.maxQueuedPerTenant = 16;
  fo.admission.maxQueuedTotal = 64;
  fo.admission.maxBacklogSec = 1800.0;
  fo.preempt.minRunSec = 60.0;
  fo.preempt.cooldownSec = 300.0;
  fo.preempt.maxConcurrent = 2;
  fo.preempt.highTierMaxWaitSec = 600.0;
  fo.jobOptions.resourceSelectionSec = 1.0;
  fo.jobOptions.perfModelingSec = 0.5;
  fo.jobOptions.appStartPerRankSec = 0.5;
  fo.jobOptions.monitorContract = false;
  fo.jobOptions.reserveNodes = false;
  w.meta.emplace(*w.mgr, w.g, *w.gis, &*w.nws, &*w.journal, std::move(fo));
  w.registerSnapshots();
  return slots;
}

}  // namespace perfbench
