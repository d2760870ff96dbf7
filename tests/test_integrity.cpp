#include <gtest/gtest.h>

#include "grid/testbeds.hpp"
#include "reschedule/chaos.hpp"
#include "services/gis.hpp"
#include "reschedule/scrubber.hpp"
#include "reschedule/srs.hpp"
#include "services/ibp.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace grads::reschedule {
namespace {

constexpr double kMB = 1024.0 * 1024.0;

struct Fixture {
  sim::Engine eng;
  grid::Grid g{eng};
  grid::QrTestbed tb;
  std::unique_ptr<services::Ibp> ibp;

  Fixture() {
    tb = grid::buildQrTestbed(g);
    ibp = std::make_unique<services::Ibp>(g);
  }

  void putNow(const std::string& key, double bytes, grid::NodeId node,
              services::PutOptions opts = {}) {
    eng.spawn([](services::Ibp& s, std::string k, double b, grid::NodeId n,
                 services::PutOptions o) -> sim::Task {
      co_await s.put(k, b, n, grid::kNoId, o);
    }(*ibp, key, bytes, node, opts));
    eng.run();
  }
};

// --- Ibp integrity primitives. -------------------------------------------

TEST(IbpIntegrity, DefaultAndExplicitDigests) {
  Fixture f;
  f.putNow("a", 10.0, f.tb.utkNodes[0]);
  // Default digest: deterministic in (key, size), never zero here.
  const auto derived = util::hashCombine(util::fnv1a64("a"), 10.0);
  EXPECT_EQ(f.ibp->observedDigest("a"), derived);
  services::PutOptions opts;
  opts.digest = 0xfeedULL;
  f.putNow("b", 10.0, f.tb.utkNodes[0], opts);
  EXPECT_EQ(f.ibp->observedDigest("b"), 0xfeedULL);
  EXPECT_DOUBLE_EQ(f.ibp->observedBytes("b"), 10.0);
}

TEST(IbpIntegrity, FaultsPerturbObservationDeterministically) {
  Fixture f;
  f.putNow("x", 100.0, f.tb.utkNodes[0]);
  const auto clean = f.ibp->observedDigest("x");

  f.ibp->injectBitFlip("x", 1ULL << 7);
  EXPECT_EQ(f.ibp->observedDigest("x"), clean ^ (1ULL << 7));
  EXPECT_DOUBLE_EQ(f.ibp->observedBytes("x"), 100.0);  // size intact

  f.putNow("y", 100.0, f.tb.utkNodes[0]);
  f.ibp->injectTornWrite("y", 0.25);
  EXPECT_DOUBLE_EQ(f.ibp->observedBytes("y"), 25.0);
  EXPECT_NE(f.ibp->observedDigest("y"), clean);

  f.putNow("z", 100.0, f.tb.utkNodes[0]);
  const auto zClean = f.ibp->observedDigest("z");
  f.ibp->injectStaleDelivery("z");
  EXPECT_NE(f.ibp->observedDigest("z"), zClean);
  EXPECT_DOUBLE_EQ(f.ibp->observedBytes("z"), 100.0);
}

TEST(IbpIntegrity, TornObjectDeliversSilentShortRead) {
  Fixture f;
  f.putNow("t", 100.0, f.tb.utkNodes[0]);
  f.ibp->injectTornWrite("t", 0.5);
  // Reading the original size from a torn object must NOT throw — the depot
  // happily serves what survived; detection is the verifier's job.
  f.eng.spawn([](services::Ibp& s, grid::NodeId n) -> sim::Task {
    co_await s.getSlice("t", 100.0, n);
  }(*f.ibp, f.tb.utkNodes[1]));
  f.eng.run();
  // An intact object still rejects oversized reads as a caller bug.
  EXPECT_EQ(f.ibp->keysOnDepot(f.tb.utkNodes[0]).size(), 1u);
}

TEST(IbpIntegrity, FenceRejectsStaleEpochBeforePayingCost) {
  Fixture f;
  f.ibp->setFence("app", 3);
  f.ibp->setFence("app", 2);  // lowering is a no-op
  EXPECT_EQ(f.ibp->fenceEpoch("app"), 3);

  services::PutOptions stale;
  stale.fenceDomain = "app";
  stale.epoch = 2;
  f.eng.spawn([](services::Ibp& s, grid::NodeId n,
                 services::PutOptions o) -> sim::Task {
    co_await s.put("k", 10.0, n, grid::kNoId, o);
  }(*f.ibp, f.tb.utkNodes[0], stale));
  EXPECT_THROW(f.eng.run(), services::StaleEpochError);
  EXPECT_EQ(f.ibp->staleEpochRejects(), 1u);
  EXPECT_FALSE(f.ibp->exists("k"));

  services::PutOptions live = stale;
  live.epoch = 3;  // at the fence = allowed
  f.putNow("k", 10.0, f.tb.utkNodes[0], live);
  EXPECT_TRUE(f.ibp->exists("k"));
}

// --- Rss manifests and epoch checks. -------------------------------------

TEST(RssManifest, TwoPhaseCompleteness) {
  sim::Engine eng;
  Rss rss(eng, "app");
  rss.beginIncarnation(2);
  Rss::SliceEntry e;
  e.bytes = 5.0;
  e.digest = 0x1;
  EXPECT_TRUE(rss.stageSlice(1, "A", 0, e, 1));
  EXPECT_FALSE(rss.manifestComplete(1));  // rank 1 missing, no publish
  EXPECT_TRUE(rss.stageSlice(1, "A", 1, e, 1));
  EXPECT_FALSE(rss.manifestComplete(1));  // phase 2 still missing
  EXPECT_TRUE(rss.storeIterationFor(1, 42));
  EXPECT_TRUE(rss.manifestComplete(1));
  ASSERT_NE(rss.manifest(1), nullptr);
  EXPECT_EQ(rss.manifest(1)->iteration, 42u);
  ASSERT_NE(rss.sliceEntry(1, "A", 1), nullptr);
  EXPECT_EQ(rss.sliceEntry(1, "A", 1)->digest, 0x1u);

  // The manifest digest covers slice contents: a different digest in any
  // entry yields a different checksum.
  const auto d1 = rss.manifestDigest(1);
  EXPECT_NE(d1, 0u);
  e.digest = 0x2;
  EXPECT_TRUE(rss.stageSlice(1, "A", 1, e, 1));
  EXPECT_NE(rss.manifestDigest(1), d1);
}

TEST(RssManifest, ZombieStageAndPublishDropped) {
  sim::Engine eng;
  Rss rss(eng, "app");
  rss.beginIncarnation(2);
  rss.storeIterationFor(1, 10);
  rss.beginIncarnation(2);  // live epoch is now 2
  Rss::SliceEntry e;
  e.bytes = 1.0;
  e.digest = 0x9;
  EXPECT_FALSE(rss.stageSlice(1, "A", 0, e, 1));  // zombie stage
  EXPECT_FALSE(rss.storeIterationFor(1, 99));     // zombie publish
  EXPECT_EQ(rss.staleEpochRejects(), 2u);
  EXPECT_EQ(rss.storedIteration(), 10u);          // untouched
  EXPECT_EQ(rss.manifest(1)->slices.size(), 0u);
}

TEST(Rss, FailureSignalForUnoccupiedNodeIgnored) {
  sim::Engine eng;
  Rss rss(eng, "app");
  rss.beginIncarnation(2);
  rss.setOccupiedNodes({4, 5});
  rss.markFailure(7);  // late detection for a node this app moved off
  EXPECT_FALSE(rss.failureSignaled());
  EXPECT_EQ(rss.ignoredFailureSignals(), 1u);
  rss.markFailure(5);
  EXPECT_TRUE(rss.failureSignaled());
  EXPECT_EQ(rss.failedNode(), 5u);
  // An empty occupancy set keeps the pre-occupancy accept-all behavior.
  rss.beginIncarnation(2);
  rss.markFailure(7);
  EXPECT_TRUE(rss.failureSignaled());
}

// --- Verified restores. ---------------------------------------------------

struct CkptFixture : Fixture {
  Rss rss{eng, "qr"};
  static constexpr double kTotal = 8.0 * kMB;

  /// Writes generation 1 from 2 UTK ranks to a stable depot + replica and
  /// publishes the manifest.
  void writeGeneration() {
    vmpi::World w(g, {tb.utkNodes[0], tb.utkNodes[1]});
    rss.beginIncarnation(2);
    Srs srs(*ibp, rss, w);
    srs.setStableDepot(tb.uiucNodes[7]);
    srs.setReplicaDepot(tb.uiucNodes[6]);
    srs.registerArray("A", kTotal);
    for (int r = 0; r < 2; ++r) {
      eng.spawn([](Srs& s, int rank) -> sim::Task {
        co_await s.writeCheckpoint(rank);
      }(srs, r));
    }
    eng.run();
    rss.storeIteration(7);
    ASSERT_TRUE(rss.manifestComplete(1));
  }

  /// Restores into 2 UIUC ranks; returns the restoring Srs's counters via
  /// the out-params. Throws what the restore throws.
  void restore(bool verify, int* corrupt, int* rejects) {
    vmpi::World w(g, {tb.uiucNodes[0], tb.uiucNodes[1]});
    rss.beginIncarnation(2);
    Srs srs(*ibp, rss, w);
    srs.setVerifyOnRestore(verify);
    srs.registerArray("A", kTotal);
    for (int r = 0; r < 2; ++r) {
      eng.spawn([](Srs& s, int rank) -> sim::Task {
        co_await s.restoreCheckpoint(rank);
      }(srs, r));
    }
    eng.run();
    if (corrupt != nullptr) *corrupt = srs.corruptSliceReads();
    if (rejects != nullptr) *rejects = srs.integrityRejects();
  }
};

TEST(SrsIntegrity, VerifiedRestoreFallsBackToReplicaOnCorruptPrimary) {
  CkptFixture f;
  f.writeGeneration();
  f.ibp->injectBitFlip("qr.ckpt.A.r0.i1", 1ULL << 3);
  int corrupt = -1;
  int rejects = -1;
  f.restore(/*verify=*/true, &corrupt, &rejects);
  EXPECT_EQ(corrupt, 0);   // the app never saw bad data
  EXPECT_GT(rejects, 0);   // the primary copy was rejected, replica used
}

TEST(SrsIntegrity, RawRestoreSilentlyDeliversCorruptData) {
  CkptFixture f;
  f.writeGeneration();
  f.ibp->injectBitFlip("qr.ckpt.A.r0.i1", 1ULL << 3);
  int corrupt = -1;
  int rejects = -1;
  f.restore(/*verify=*/false, &corrupt, &rejects);
  EXPECT_GT(corrupt, 0);   // ground truth: wrong bytes reached the app
  EXPECT_EQ(rejects, 0);   // nothing was rejected — that is the point
}

TEST(SrsIntegrity, BothCopiesCorruptThrowsUnavailable) {
  CkptFixture f;
  f.writeGeneration();
  f.ibp->injectBitFlip("qr.ckpt.A.r0.i1", 1ULL << 3);
  f.ibp->injectTornWrite("qr.ckpt.A.r0.i1.rep", 0.5);
  EXPECT_THROW(f.restore(/*verify=*/true, nullptr, nullptr),
               CheckpointUnavailableError);
}

TEST(SrsIntegrity, FindRestorableGenerationSkipsCorruptWithVerify) {
  CkptFixture f;
  f.writeGeneration();
  // Without corruption both modes agree.
  EXPECT_EQ(findRestorableGeneration(*f.ibp, f.rss, {"A"}, true),
            std::optional<int>(1));
  // Corrupt both copies of one slice: the unverified walk still nominates
  // generation 1 (objects are readable), the verified walk refuses it.
  f.ibp->injectBitFlip("qr.ckpt.A.r1.i1", 1ULL << 9);
  f.ibp->injectStaleDelivery("qr.ckpt.A.r1.i1.rep");
  EXPECT_EQ(findRestorableGeneration(*f.ibp, f.rss, {"A"}, false),
            std::optional<int>(1));
  EXPECT_EQ(findRestorableGeneration(*f.ibp, f.rss, {"A"}, true),
            std::nullopt);
}

// --- Zombie end-to-end (acceptance). --------------------------------------

TEST(SrsIntegrity, ZombieIncarnationCannotOverwriteOrPublish) {
  CkptFixture f;
  f.writeGeneration();  // generation 1, live epoch 1

  // The zombie: an Srs instance created during incarnation 1 that keeps
  // running after the manager declared it dead and started incarnation 2.
  vmpi::World wZombie(f.g, {f.tb.utkNodes[0], f.tb.utkNodes[1]});
  Srs zombie(*f.ibp, f.rss, wZombie);
  zombie.setStableDepot(f.tb.uiucNodes[7]);
  zombie.setReplicaDepot(f.tb.uiucNodes[6]);
  zombie.registerArray("A", CkptFixture::kTotal);
  ASSERT_EQ(zombie.epoch(), 1);

  // Incarnation 2 starts: fence raised, new generation written + published.
  f.rss.beginIncarnation(2);
  f.ibp->setFence("qr", f.rss.incarnation());
  vmpi::World w2(f.g, {f.tb.uiucNodes[0], f.tb.uiucNodes[1]});
  Srs live(*f.ibp, f.rss, w2);
  live.setStableDepot(f.tb.uiucNodes[7]);
  live.setReplicaDepot(f.tb.uiucNodes[6]);
  live.registerArray("A", CkptFixture::kTotal);
  for (int r = 0; r < 2; ++r) {
    f.eng.spawn([](Srs& s, int rank) -> sim::Task {
      co_await s.writeCheckpoint(rank);
    }(live, r));
  }
  f.eng.run();
  f.rss.storeIteration(20);
  ASSERT_TRUE(f.rss.manifestComplete(2));
  const auto gen2Digest = f.rss.manifestDigest(2);
  const auto gen1Digest = f.rss.manifestDigest(1);
  const auto objects = f.ibp->objectCount();
  const auto obj1Digest = f.ibp->observedDigest("qr.ckpt.A.r0.i1");

  // The zombie now tries to checkpoint and publish a stale iteration.
  for (int r = 0; r < 2; ++r) {
    f.eng.spawn([](Srs& s, int rank) -> sim::Task {
      co_await s.writeCheckpoint(rank);
    }(zombie, r));
  }
  f.eng.run();
  zombie.storeIteration(5);

  // Nothing the live incarnation owns moved: no object count change, no
  // overwrite of either generation's objects, no ledger/manifest change.
  EXPECT_GT(zombie.staleWriteRejects(), 0);
  EXPECT_GT(f.ibp->staleEpochRejects(), 0u);
  EXPECT_EQ(f.ibp->objectCount(), objects);
  EXPECT_EQ(f.ibp->observedDigest("qr.ckpt.A.r0.i1"), obj1Digest);
  EXPECT_EQ(f.rss.storedIteration(), 20u);
  EXPECT_EQ(f.rss.manifestDigest(2), gen2Digest);
  EXPECT_EQ(f.rss.manifestDigest(1), gen1Digest);
  EXPECT_GT(f.rss.staleEpochRejects(), 0u);
}

TEST(SrsIntegrity, ZombieEpochFencedAcrossCrashRestart) {
  // The fence must survive a control-plane crash-restart: a zombie writer
  // carrying a pre-crash incarnation epoch, staging or publishing *after*
  // the restore, is dropped by the restored ledger and depot exactly as it
  // would have been by the originals.
  CkptFixture f;
  f.writeGeneration();  // generation 1, live epoch 1
  f.rss.beginIncarnation(2);  // incarnation 2 takes over pre-crash
  f.ibp->setFence("qr", f.rss.incarnation());
  vmpi::World w2(f.g, {f.tb.uiucNodes[0], f.tb.uiucNodes[1]});
  Srs live(*f.ibp, f.rss, w2);
  live.setStableDepot(f.tb.uiucNodes[7]);
  live.setReplicaDepot(f.tb.uiucNodes[6]);
  live.registerArray("A", CkptFixture::kTotal);
  for (int r = 0; r < 2; ++r) {
    f.eng.spawn([](Srs& s, int rank) -> sim::Task {
      co_await s.writeCheckpoint(rank);
    }(live, r));
  }
  f.eng.run();
  f.rss.storeIteration(20);
  ASSERT_TRUE(f.rss.manifestComplete(2));

  // Snapshot the depot and ledger at a quiescent boundary, then "crash":
  // everything below runs against a freshly built control plane.
  core::SnapshotRegistry reg;
  reg.add(*f.ibp);
  const core::SnapshotImage img = reg.capture(f.eng.now());
  core::SnapshotIO rssWords = core::SnapshotIO::writer();
  f.rss.snapshotFields(rssWords);

  CkptFixture fresh;
  core::SnapshotRegistry reg2;
  reg2.add(*fresh.ibp);
  reg2.restore(img);
  core::SnapshotIO rd = core::SnapshotIO::reader(rssWords.words());
  fresh.rss.snapshotFields(rd);
  ASSERT_EQ(rd.remaining(), 0u);
  ASSERT_EQ(fresh.ibp->fenceEpoch("qr"), 2);  // the fence round-tripped
  ASSERT_EQ(fresh.rss.incarnation(), 2);
  ASSERT_EQ(fresh.rss.storedIteration(), 20u);
  const auto gen2Digest = fresh.rss.manifestDigest(2);
  const auto objects = fresh.ibp->objectCount();

  // The zombie: a writer of the pre-crash incarnation (epoch 2), surviving
  // into the restored world where the relaunch starts incarnation 3.
  vmpi::World wZombie(fresh.g, {fresh.tb.uiucNodes[0], fresh.tb.uiucNodes[1]});
  Srs zombie(*fresh.ibp, fresh.rss, wZombie);
  zombie.setStableDepot(fresh.tb.uiucNodes[7]);
  zombie.setReplicaDepot(fresh.tb.uiucNodes[6]);
  zombie.registerArray("A", CkptFixture::kTotal);
  ASSERT_EQ(zombie.epoch(), 2);

  fresh.rss.beginIncarnation(2);  // incarnation 3: the post-restore relaunch
  fresh.ibp->setFence("qr", fresh.rss.incarnation());
  ASSERT_EQ(fresh.rss.incarnation(), 3);

  // Pre-crash zombie stage + publish after restore: all dropped.
  for (int r = 0; r < 2; ++r) {
    fresh.eng.spawn([](Srs& s, int rank) -> sim::Task {
      co_await s.writeCheckpoint(rank);
    }(zombie, r));
  }
  fresh.eng.run();
  zombie.storeIteration(5);
  EXPECT_GT(zombie.staleWriteRejects(), 0);
  EXPECT_GT(fresh.ibp->staleEpochRejects(), 0u);
  EXPECT_GT(fresh.rss.staleEpochRejects(), 0u);
  EXPECT_EQ(fresh.ibp->objectCount(), objects);
  EXPECT_EQ(fresh.rss.storedIteration(), 20u);
  EXPECT_EQ(fresh.rss.manifestDigest(2), gen2Digest);
}

// --- Depot scrubber. ------------------------------------------------------

TEST(Scrubber, RepairsCorruptCopyFromSurvivor) {
  CkptFixture f;
  f.writeGeneration();
  const auto want = f.rss.sliceEntry(1, "A", 0);
  ASSERT_NE(want, nullptr);
  f.ibp->injectBitFlip("qr.ckpt.A.r0.i1", 1ULL << 11);
  ASSERT_NE(f.ibp->observedDigest("qr.ckpt.A.r0.i1"), want->digest);

  DepotScrubber scrub(f.eng, *f.ibp, f.rss);
  f.eng.spawn(scrub.scanOnce());
  f.eng.run();
  EXPECT_EQ(scrub.stats().corruptFound, 1);
  EXPECT_EQ(scrub.stats().repaired, 1);
  EXPECT_EQ(scrub.stats().unrepairable, 0);
  EXPECT_EQ(f.ibp->observedDigest("qr.ckpt.A.r0.i1"), want->digest);

  // A second pass finds nothing left to do.
  f.eng.spawn(scrub.scanOnce());
  f.eng.run();
  EXPECT_EQ(scrub.stats().repaired, 1);
  EXPECT_EQ(scrub.stats().scans, 2);
}

TEST(Scrubber, ReportsUnrepairableWhenBothCopiesBad) {
  CkptFixture f;
  f.writeGeneration();
  f.ibp->injectBitFlip("qr.ckpt.A.r1.i1", 1ULL << 2);
  f.ibp->injectTornWrite("qr.ckpt.A.r1.i1.rep", 0.5);
  DepotScrubber scrub(f.eng, *f.ibp, f.rss);
  f.eng.spawn(scrub.scanOnce());
  f.eng.run();
  EXPECT_EQ(scrub.stats().repaired, 0);
  EXPECT_EQ(scrub.stats().unrepairable, 1);
}

TEST(Scrubber, PeriodicDaemonRepairsWhileAppRuns) {
  CkptFixture f;
  f.writeGeneration();
  const auto want = f.rss.sliceEntry(1, "A", 1);
  ASSERT_NE(want, nullptr);
  f.ibp->injectStaleDelivery("qr.ckpt.A.r1.i1");
  DepotScrubber scrub(f.eng, *f.ibp, f.rss);
  scrub.start(30.0);
  // Scrub ticks are daemons; some foreground work must keep time flowing.
  f.eng.spawn([](sim::Engine& e) -> sim::Task {
    co_await sim::sleepFor(e, 120.0);
  }(f.eng));
  f.eng.run();
  scrub.stop();
  EXPECT_GE(scrub.stats().scans, 2);
  EXPECT_EQ(scrub.stats().repaired, 1);
  EXPECT_EQ(f.ibp->observedDigest("qr.ckpt.A.r1.i1"), want->digest);
}

// --- Chaos integration. ---------------------------------------------------

TEST(ChaosIntegrity, CampaignGeneratesSeededIntegrityEvents) {
  CampaignConfig cc;
  cc.horizonSec = 100.0;
  cc.seed = 7;
  cc.bitFlips = 2;
  cc.tornWrites = 1;
  cc.staleDeliveries = 1;
  cc.tornKeepFrac = 0.3;
  cc.candidateDepots = {4, 5};
  const auto a = makeCampaign(cc);
  const auto b = makeCampaign(cc);
  ASSERT_EQ(a.size(), 4u);
  int flips = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].victimSeed, b[i].victimSeed);
    EXPECT_NE(a[i].victimSeed, 0u);
    EXPECT_DOUBLE_EQ(a[i].tornKeepFrac, 0.3);
    EXPECT_LE(a[i].durationSec, 0.0);  // corruption has no recovery event
    EXPECT_TRUE(a[i].node == 4 || a[i].node == 5);
    if (a[i].kind == ChaosKind::kBitFlip) ++flips;
  }
  EXPECT_EQ(flips, 2);
}

TEST(ChaosIntegrity, DriverCorruptsVictimOrCountsMiss) {
  Fixture f;
  services::Gis gis(f.g);
  FailureInjector fi(f.eng, gis);
  ChaosDriver driver(f.eng, f.g, fi, nullptr, f.ibp.get());

  ChaosEvent miss;
  miss.kind = ChaosKind::kBitFlip;
  miss.atSec = 1.0;
  miss.node = f.tb.utkNodes[0];  // depot still empty at t=1
  miss.victimSeed = 99;
  driver.arm(miss);

  ChaosEvent hit = miss;
  hit.atSec = 10.0;  // after the object exists
  driver.arm(hit);

  f.eng.spawn([](sim::Engine& e, services::Ibp& s,
                 grid::NodeId n) -> sim::Task {
    co_await sim::sleepFor(e, 5.0);
    co_await s.put("obj", 10.0, n);
    co_await sim::sleepFor(e, 20.0);
  }(f.eng, *f.ibp, f.tb.utkNodes[0]));
  const auto clean = util::hashCombine(util::fnv1a64("obj"), 10.0);
  f.eng.run();
  EXPECT_EQ(driver.counters().integrityMisses, 1);
  EXPECT_EQ(driver.counters().bitFlips, 1);
  EXPECT_NE(f.ibp->observedDigest("obj"), clean);
}

}  // namespace
}  // namespace grads::reschedule
