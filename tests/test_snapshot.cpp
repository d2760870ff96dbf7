// Unit tests for the whole-simulation snapshot/restore layer
// (core/snapshot): typed archive framing and its direction guards, image
// serialize/parse with checksum and length rejection, registry
// all-or-nothing restore, component round-trips, wire-format digest pins
// over seeded worlds, and the arm-once / restore-once guards on the
// AppManager snapshot coordinator.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "autopilot/sensor.hpp"
#include "core/app_manager.hpp"
#include "core/snapshot.hpp"
#include "grid/testbeds.hpp"
#include "metasched/frontend.hpp"
#include "reschedule/journal.hpp"
#include "reschedule/srs.hpp"
#include "services/gis.hpp"
#include "services/ibp.hpp"
#include "services/nws.hpp"
#include "sim/engine.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "vmpi/world.hpp"
#include "whatif_world.hpp"

namespace grads::core {
namespace {

// --- Archive framing. -------------------------------------------------------

TEST(SnapshotFraming, RoundTripsEveryFieldType) {
  std::uint64_t u = 0xfeedfacecafeULL;
  std::int64_t i = -12345;
  double f = 2.5e-3;
  bool yes = true;
  bool no = false;
  std::string name = "grid.fabric";
  std::string empty;  // empty strings must round-trip too
  SnapshotIO w = SnapshotIO::writer();
  w.u64(u);
  w.i64(i);
  w.f64(f);
  w.boolean(yes);
  w.boolean(no);
  w.str(name);
  w.str(empty);

  std::uint64_t u2 = 0;
  std::int64_t i2 = 0;
  double f2 = 0.0;
  bool yes2 = false;
  bool no2 = true;
  std::string name2 = "stale";
  std::string empty2 = "stale";
  SnapshotIO r = SnapshotIO::reader(w.words());
  r.u64(u2);
  r.i64(i2);
  r.f64(f2);
  r.boolean(yes2);
  r.boolean(no2);
  r.str(name2);
  r.str(empty2);
  EXPECT_EQ(u2, 0xfeedfacecafeULL);
  EXPECT_EQ(i2, -12345);
  EXPECT_EQ(f2, 2.5e-3);
  EXPECT_TRUE(yes2);
  EXPECT_FALSE(no2);
  EXPECT_EQ(name2, "grid.fabric");
  EXPECT_EQ(empty2, "");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SnapshotFraming, TypeTagMismatchThrows) {
  double f = 1.0;
  SnapshotIO w = SnapshotIO::writer();
  w.f64(f);
  std::uint64_t u = 0;
  SnapshotIO r = SnapshotIO::reader(w.words());
  EXPECT_THROW(r.u64(u), SnapshotError);  // wrong type, loud failure
}

TEST(SnapshotFraming, ExhaustionThrows) {
  std::uint64_t u = 1;
  SnapshotIO w = SnapshotIO::writer();
  w.u64(u);
  SnapshotIO r = SnapshotIO::reader(w.words());
  r.u64(u);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_THROW(r.u64(u), SnapshotError);
}

TEST(SnapshotFraming, NegativeZeroAndNanBitsPreserved) {
  double v = -0.0;
  SnapshotIO w = SnapshotIO::writer();
  w.f64(v);
  v = 1.0;
  SnapshotIO r = SnapshotIO::reader(w.words());
  r.f64(v);
  EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(std::signbit(v));  // bit-exact, not value-rounded
}

TEST(SnapshotFraming, IntegralAndEnumCastsKeepTheirTags) {
  enum class Kind : int { kA = 1, kB = 7 };
  int negative = -3;
  Kind kind = Kind::kB;
  std::size_t size = 42;
  SnapshotIO w = SnapshotIO::writer();
  w.i64(negative);
  w.u64(kind);
  w.u64(size);
  // Same words the hand-written casts produced: tag, payload per field.
  EXPECT_EQ(w.words(), (std::vector<std::uint64_t>{
                           2, static_cast<std::uint64_t>(-3), 1, 7, 1, 42}));
  int negative2 = 0;
  Kind kind2 = Kind::kA;
  std::size_t size2 = 0;
  SnapshotIO r = SnapshotIO::reader(w.words());
  r.i64(negative2);
  r.u64(kind2);
  r.u64(size2);
  EXPECT_EQ(negative2, -3);
  EXPECT_EQ(kind2, Kind::kB);
  EXPECT_EQ(size2, 42u);
}

/// A component exercising every archive helper, visited by one function.
struct Everything {
  std::vector<double> values;
  std::deque<int> window;
  std::set<std::uint32_t> nodes;
  std::map<std::string, std::vector<double>> series;
  double scaled = 0.5;  ///< lives behind a setter with a side effect
  int setterCalls = 0;
  double sum = 0.0;     ///< derived from `values` on load

  void fields(SnapshotIO& io) {
    io.expect(std::string("everything"), "Everything: wrong component");
    io.seq(values, [](SnapshotIO& a, double& v) { a.f64(v); });
    io.seq(window, [](SnapshotIO& a, int& v) { a.i64(v); });
    io.seq(nodes, [](SnapshotIO& a, std::uint32_t& n) { a.u64(n); });
    io.map(series, [](SnapshotIO& a, std::string& k, std::vector<double>& v) {
      a.str(k);
      a.seq(v, [](SnapshotIO& b, double& x) { b.f64(x); });
    });
    io.prop([this] { return scaled; },
            [this](double v) {
              scaled = v;
              ++setterCalls;
            });
    io.onLoad([this] {
      sum = 0.0;
      for (const double v : values) sum += v;
    });
  }
};

TEST(SnapshotFraming, SeqMapPropAndOnLoadRoundTrip) {
  Everything a;
  a.values = {1.0, 2.5};
  a.window = {-1, 4};
  a.nodes = {9, 3};
  a.series = {{"cpu", {0.25}}, {"bw", {}}};
  a.scaled = 0.125;
  SnapshotIO w = SnapshotIO::writer();
  a.fields(w);
  EXPECT_EQ(a.setterCalls, 0);  // writers never call setters or hooks
  EXPECT_EQ(a.sum, 0.0);

  Everything b;
  b.values = {99.0};  // stale contents are cleared, not appended to
  b.series = {{"stale", {1.0}}};
  SnapshotIO r = SnapshotIO::reader(w.words());
  b.fields(r);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(b.values, a.values);
  EXPECT_EQ(b.window, a.window);
  EXPECT_EQ(b.nodes, a.nodes);
  EXPECT_EQ(b.series, a.series);
  EXPECT_EQ(b.scaled, 0.125);
  EXPECT_EQ(b.setterCalls, 1);
  EXPECT_EQ(b.sum, 3.5);

  SnapshotIO again = SnapshotIO::writer();
  b.fields(again);
  EXPECT_EQ(again.words(), w.words());
}

TEST(SnapshotFraming, ExpectMismatchIsASnapshotError) {
  std::string app = "qr";
  SnapshotIO w = SnapshotIO::writer();
  w.expect(app, "app");
  w.expect(std::uint64_t{4}, "count");
  SnapshotIO r = SnapshotIO::reader(w.words());
  EXPECT_THROW(r.expect(std::string("eman"), "app"), SnapshotError);
  SnapshotIO r2 = SnapshotIO::reader(w.words());
  r2.expect(app, "app");
  EXPECT_THROW(r2.expect(std::uint64_t{5}, "count"), SnapshotError);
}

TEST(SnapshotFraming, ArchiveCallsInsideHooksThrow) {
  double x = 1.0;
  SnapshotIO w = SnapshotIO::writer();
  // A getter that writes its own field would make capture and restore
  // disagree; the archive refuses it.
  EXPECT_THROW(w.prop(
                   [&] {
                     w.f64(x);
                     return x;
                   },
                   [&](double v) { x = v; }),
               SnapshotError);

  SnapshotIO fill = SnapshotIO::writer();
  fill.f64(x);
  fill.f64(x);
  SnapshotIO r = SnapshotIO::reader(fill.words());
  EXPECT_THROW(r.onLoad([&] { r.f64(x); }), SnapshotError);
  SnapshotIO r2 = SnapshotIO::reader(fill.words());
  EXPECT_THROW(r2.prop([&] { return x; },
                       [&](double) {
                         r2.f64(x);
                       }),
               SnapshotError);
}

TEST(SnapshotFraming, OverrunningCountsAndLengthsAreSnapshotErrors) {
  // Bogus counts and string lengths must be rejected before anything is
  // allocated for them.
  for (const std::uint64_t bogus :
       {std::uint64_t{1} << 62, ~std::uint64_t{0}, std::uint64_t{100}}) {
    const std::vector<std::uint64_t> seqWords = {1, bogus, 3, 0};
    std::vector<double> v;
    SnapshotIO r = SnapshotIO::reader(seqWords);
    EXPECT_THROW(r.seq(v, [](SnapshotIO& a, double& x) { a.f64(x); }),
                 SnapshotError)
        << bogus;

    std::map<std::uint64_t, double> m;
    SnapshotIO rm = SnapshotIO::reader(seqWords);
    EXPECT_THROW(rm.map(m,
                        [](SnapshotIO& a, std::uint64_t& k, double& x) {
                          a.u64(k);
                          a.f64(x);
                        }),
                 SnapshotError)
        << bogus;

    const std::vector<std::uint64_t> strWords = {5, bogus, 0x6f6c6c6568};
    std::string s;
    SnapshotIO rs = SnapshotIO::reader(strWords);
    EXPECT_THROW(rs.str(s), SnapshotError) << bogus;
  }
}

// --- Image serialize/parse. ------------------------------------------------

SnapshotImage makeImage() {
  SnapshotImage img;
  img.simTime = 123.5;
  SnapshotSection s;
  s.name = "test.alpha";
  s.version = 3;
  std::uint64_t seven = 7;
  std::string payload = "payload";
  SnapshotIO w = SnapshotIO::writer();
  w.u64(seven);
  w.str(payload);
  s.words = w.words();
  img.addSection(std::move(s));
  SnapshotSection t;
  t.name = "test.beta";
  t.words = {1, 2, 3};
  img.addSection(std::move(t));
  return img;
}

TEST(SnapshotImage, SerializeParseRoundTrip) {
  const SnapshotImage img = makeImage();
  const auto bytes = img.serialize();
  const SnapshotImage back = SnapshotImage::parse(bytes);
  EXPECT_EQ(back.simTime, 123.5);
  ASSERT_EQ(back.sections().size(), 2u);
  const auto* alpha = back.findSection("test.alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->version, 3u);
  std::uint64_t seven = 0;
  std::string payload;
  SnapshotIO r = SnapshotIO::reader(alpha->words);
  r.u64(seven);
  r.str(payload);
  EXPECT_EQ(seven, 7u);
  EXPECT_EQ(payload, "payload");
  EXPECT_EQ(back.digest(), img.digest());
}

TEST(SnapshotImage, CorruptionAnywhereIsRejected) {
  const auto bytes = makeImage().serialize();
  // Flip one bit at every byte offset: magic, header, lengths, payload, and
  // checksum corruption must all fail parse — never a silent misread.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto bad = bytes;
    bad[i] ^= 0x40;
    EXPECT_THROW(SnapshotImage::parse(bad), SnapshotError) << "offset " << i;
  }
}

TEST(SnapshotImage, TruncationIsRejected) {
  const auto bytes = makeImage().serialize();
  for (const std::size_t keep : {std::size_t{0}, std::size_t{4},
                                 bytes.size() / 2, bytes.size() - 1}) {
    auto bad = bytes;
    bad.resize(keep);
    EXPECT_THROW(SnapshotImage::parse(bad), SnapshotError) << "kept " << keep;
  }
}

// --- Registry semantics. ---------------------------------------------------

/// Test component: two fields and a restore counter.
class Probe : public Snapshottable {
 public:
  explicit Probe(std::string section) : section_(std::move(section)) {}

  const char* snapshotSection() const override { return section_.c_str(); }
  void snapshotFields(SnapshotIO& io) override {
    io.u64(a);
    io.f64(b);
    io.onLoad([this] { ++decodes; });
  }

  std::string section_;
  std::uint64_t a = 0;
  double b = 0.0;
  int decodes = 0;
};

TEST(SnapshotRegistry, CaptureAndRestoreInRegistrationOrder) {
  Probe p1("probe.one");
  Probe p2("probe.two");
  p1.a = 11;
  p1.b = 0.5;
  p2.a = 22;
  p2.b = 1.5;
  SnapshotRegistry reg;
  reg.add(p1);
  reg.add(p2);
  const SnapshotImage img = reg.capture(42.0);
  EXPECT_EQ(img.simTime, 42.0);
  ASSERT_EQ(img.sections().size(), 2u);
  EXPECT_EQ(img.sections()[0].name, "probe.one");
  EXPECT_EQ(img.sections()[1].name, "probe.two");

  Probe q1("probe.one");
  Probe q2("probe.two");
  SnapshotRegistry reg2;
  reg2.add(q1);
  reg2.add(q2);
  reg2.restore(img);
  EXPECT_EQ(q1.a, 11u);
  EXPECT_EQ(q1.b, 0.5);
  EXPECT_EQ(q2.a, 22u);
  EXPECT_EQ(q2.b, 1.5);
}

TEST(SnapshotRegistry, MissingSectionFailsBeforeAnyDecode) {
  Probe p1("probe.one");
  SnapshotRegistry cap;
  cap.add(p1);
  const SnapshotImage img = cap.capture(0.0);

  Probe q1("probe.one");
  Probe q2("probe.absent");
  SnapshotRegistry reg;
  reg.add(q1);
  reg.add(q2);
  EXPECT_THROW(reg.restore(img), SnapshotError);
  // All-or-nothing: q1's section exists, but no component may decode when
  // any registered component's section is missing.
  EXPECT_EQ(q1.decodes, 0);
}

TEST(SnapshotRegistry, LeftoverWordsAreAnError) {
  Probe p("probe.one");
  SnapshotRegistry cap;
  cap.add(p);
  SnapshotImage img = cap.capture(0.0);
  // Grow the section beyond what the decoder consumes.
  SnapshotSection fat = img.sections()[0];
  std::uint64_t extra = 1;
  SnapshotIO w = SnapshotIO::writer();
  w.u64(extra);
  fat.words.insert(fat.words.end(), w.words().begin(), w.words().end());
  SnapshotImage fatImg;
  fatImg.simTime = img.simTime;
  fatImg.addSection(std::move(fat));
  Probe q("probe.one");
  SnapshotRegistry reg;
  reg.add(q);
  EXPECT_THROW(reg.restore(fatImg), SnapshotError);
}

TEST(SnapshotRegistry, VersionSkewIsAVersionedError) {
  Probe p("probe.one");
  SnapshotRegistry cap;
  cap.add(p);
  SnapshotImage img = cap.capture(0.0);
  SnapshotSection old = img.sections()[0];
  old.version = 99;
  SnapshotImage oldImg;
  oldImg.addSection(std::move(old));
  Probe q("probe.one");
  SnapshotRegistry reg;
  reg.add(q);
  EXPECT_THROW(reg.restore(oldImg), SnapshotError);
}

// --- Component round-trips. ------------------------------------------------

TEST(SnapshotComponents, RngStreamPositionRoundTrips) {
  Rng rng(1234);
  (void)rng.uniform();
  (void)rng.uniform();
  const auto state = rng.state();
  Rng other(999);  // different seed, position overwritten by setState
  other.setState(state);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(rng.next(), other.next()) << "draw " << i;
  }
}

TEST(SnapshotComponents, GisAndServicesRoundTripThroughImageBytes) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  services::Gis gis(g);
  gis.installEverywhere(services::software::kScalapack);
  gis.setNodeUp(tb.utkNodes[0], false);
  services::Nws nws(eng, g, 10.0, 0.0, 7);
  services::Ibp ibp(g);
  ibp.setFence("qr", 4);
  autopilot::AutopilotManager pilot(eng);
  pilot.report("phase-time.qr", 1.25);
  reschedule::ActionJournal journal(eng);
  const int id = journal.open("qr", reschedule::ActionKind::kMigrate, {1, 2});
  journal.beginCommit(id);

  SnapshotRegistry reg;
  reg.add(g);
  reg.add(gis);
  reg.add(nws);
  reg.add(ibp);
  reg.add(pilot);
  reg.add(journal);
  const auto bytes = reg.capture(eng.now()).serialize();

  // Fresh control plane, restored from the parsed bytes.
  sim::Engine eng2;
  grid::Grid g2(eng2);
  const auto tb2 = grid::buildQrTestbed(g2);
  services::Gis gis2(g2);
  services::Nws nws2(eng2, g2, 10.0, 0.0, 1);
  services::Ibp ibp2(g2);
  autopilot::AutopilotManager pilot2(eng2);
  reschedule::ActionJournal journal2(eng2);
  SnapshotRegistry reg2;
  reg2.add(g2);
  reg2.add(gis2);
  reg2.add(nws2);
  reg2.add(ibp2);
  reg2.add(pilot2);
  reg2.add(journal2);
  reg2.restore(SnapshotImage::parse(bytes));

  EXPECT_FALSE(gis2.isNodeUp(tb2.utkNodes[0]));
  EXPECT_TRUE(gis2.hasSoftware(tb2.uiucNodes[0], services::software::kScalapack));
  EXPECT_EQ(ibp2.fenceEpoch("qr"), 4);
  ASSERT_EQ(pilot2.history("phase-time.qr").size(), 1u);
  EXPECT_EQ(pilot2.history("phase-time.qr")[0].value, 1.25);
  ASSERT_NE(journal2.openAction("qr"), nullptr);
  EXPECT_EQ(journal2.openAction("qr")->state,
            reschedule::ActionState::kCommitting);
  EXPECT_EQ(journal2.inFlight(), 1);

  // Identity: re-capturing the restored components yields the same bytes.
  EXPECT_EQ(reg2.capture(0.0).serialize(), bytes);
}

// --- AppManager coordinator guards. ---------------------------------------

struct ManagerFixture {
  sim::Engine eng;
  grid::Grid g{eng};
  grid::QrTestbed tb;
  services::Gis gis{g};
  services::Nws nws{eng, g, 10.0, 0.0, 7};
  services::Ibp ibp{g};
  autopilot::AutopilotManager pilot{eng};
  core::AppManager mgr{g, gis, &nws, ibp, pilot};

  ManagerFixture() { tb = grid::buildQrTestbed(g); }
};

TEST(AppManagerSnapshots, SnapshotDaemonArmsExactlyOnce) {
  ManagerFixture f;
  int captures = 0;
  const auto sink = [&captures](SnapshotImage) { ++captures; };
  EXPECT_FALSE(f.mgr.snapshotDaemonArmed());
  EXPECT_TRUE(f.mgr.armSnapshotDaemon(10.0, sink));
  EXPECT_TRUE(f.mgr.snapshotDaemonArmed());
  EXPECT_FALSE(f.mgr.armSnapshotDaemon(10.0, sink));  // arm-once
  f.eng.runUntil(35.0);
  EXPECT_EQ(captures, 3);  // t=10,20,30 — single cadence, not doubled
  EXPECT_EQ(f.mgr.snapshotsTaken(), 3u);
}

TEST(AppManagerSnapshots, SnapshotAtCapturesAtTheRequestedBoundary) {
  ManagerFixture f;
  double capturedAt = -1.0;
  f.mgr.snapshotAt(25.0, [&capturedAt](SnapshotImage img) {
    capturedAt = img.simTime;
  });
  f.eng.runUntil(30.0);
  EXPECT_EQ(capturedAt, 25.0);
}

TEST(AppManagerSnapshots, SecondRestoreThrows) {
  ManagerFixture f;
  const SnapshotImage img = f.mgr.snapshotNow();
  ManagerFixture fresh;
  fresh.mgr.restoreFrom(img);
  // Restore-twice would fork live state from the image; the guard throws.
  EXPECT_THROW(fresh.mgr.restoreFrom(img), Error);
}

TEST(AppManagerSnapshots, SandboxRestoresRepeatFreely) {
  ManagerFixture f;
  const SnapshotImage img = f.mgr.snapshotNow();
  // Sandbox engines (what-if forks) replay the same image as often as the
  // speculation budget allows — the once-guard applies to live restores
  // only, and a history of sandbox restores must not weaken it.
  ManagerFixture fork;
  fork.mgr.restoreFrom(img, AppManager::RestoreKind::kSandbox);
  fork.mgr.restoreFrom(img, AppManager::RestoreKind::kSandbox);
  fork.mgr.restoreFrom(img, AppManager::RestoreKind::kLive);
  EXPECT_THROW(fork.mgr.restoreFrom(img, AppManager::RestoreKind::kLive),
               Error);
}

TEST(AppManagerSnapshots, CompletedAppsRoundTrip) {
  ManagerFixture f;
  SnapshotIO w = SnapshotIO::writer();
  f.mgr.snapshotFields(w);
  SnapshotIO r0 = SnapshotIO::reader(w.words());
  f.mgr.snapshotFields(r0);  // empty manager round-trips cleanly
  EXPECT_EQ(r0.remaining(), 0u);
  EXPECT_FALSE(f.mgr.isCompleted("qr"));
  EXPECT_FALSE(f.mgr.hasResumeState("qr"));
}

// --- Wire-format pins over seeded worlds. -----------------------------------
//
// Two seeded control planes that between them register every section the
// tree defines. Their image digests are pinned constants: any change to a
// component's field list, a tag, the word order, a section name or a
// section version changes the bytes and fails here first.

/// The crash sweep's tenant-overload world, cut down: three tenants over a
/// four-slot pool behind the metascheduler frontend.
struct TenantWorld {
  sim::Engine eng;
  grid::Grid g{eng};
  std::optional<services::Gis> gis;
  std::optional<services::Nws> nws;
  std::optional<services::Ibp> ibp;
  std::optional<autopilot::AutopilotManager> autopilot;
  std::optional<reschedule::ActionJournal> journal;
  std::optional<AppManager> mgr;
  std::optional<metasched::MetaScheduler> meta;

  explicit TenantWorld(std::size_t tenants) {
    const auto site = g.addCluster(grid::ClusterSpec{
        "site", "Site", grid::fastEthernetLan("site.lan", 4)});
    std::vector<grid::NodeId> slots;
    for (int i = 0; i < 4; ++i) {
      slots.push_back(g.addNode(site, grid::utkQrNodeSpec(i)));
    }
    gis.emplace(g);
    gis->installEverywhere(services::software::kLocalBinder);
    gis->installEverywhere(services::software::kSrsLibrary);
    nws.emplace(eng, g, 60.0, 0.0, 9);
    ibp.emplace(g);
    autopilot.emplace(eng);
    journal.emplace(eng);
    mgr.emplace(g, *gis, &*nws, *ibp, *autopilot);

    const double refRate = g.node(slots.front()).spec().effectiveFlopsPerCpu();
    metasched::FrontendOptions fo;
    fo.slots = slots;
    fo.horizonSec = 1200.0;
    fo.hardDeadlineSec = 2400.0;
    fo.controlPeriodSec = 30.0;
    fo.flopsPerPhase = refRate * 15.0;
    fo.refFlopsPerSec = refRate;
    fo.seed = 41;
    for (std::size_t i = 0; i < tenants; ++i) {
      metasched::TenantSpec t;
      t.name = "tenant" + std::to_string(i);
      t.tier = static_cast<int>(i % 3);
      t.baseRatePerSec = 0.03;
      t.paretoXmFlops = refRate * 45.0;
      t.paretoAlpha = 1.9;
      t.maxJobFlops = refRate * 450.0;
      t.seed = 41 + 17 * (i + 1);
      fo.tenants.push_back(t);
    }
    fo.admission.maxQueuedPerTenant = 10;
    fo.admission.maxQueuedTotal = 32;
    fo.preempt.minRunSec = 20.0;
    fo.jobOptions.monitorContract = false;
    meta.emplace(*mgr, g, *gis, &*nws, &*journal, std::move(fo));

    auto& reg = mgr->snapshots();
    reg.add(g);
    reg.add(*gis);
    reg.add(*nws);
    reg.add(*ibp);
    reg.add(*autopilot);
    reg.add(*journal);
    reg.add(*meta);
  }
};

/// The shared what-if world with the fork driver speculating, run until the
/// QR app is live and the driver has logged decisions.
bench::WhatifConfig pinnedWhatifConfig() {
  bench::WhatifConfig cfg;
  cfg.seed = 61;
  cfg.linkDegrades = 2;
  cfg.withDriver = true;
  cfg.driver.budget.maxForks = 4;
  cfg.driver.budget.pessimisticFutures = 1;
  return cfg;
}

std::vector<std::string> sectionNames(const SnapshotImage& img) {
  std::vector<std::string> names;
  for (const auto& s : img.sections()) names.push_back(s.name);
  return names;
}

constexpr double kWhatifPinAt = 700.0;
constexpr double kTenantPinAt = 600.0;
// A changed digest is a changed wire format: committed images, BENCH files
// and crash-sweep digests would all move with it.
constexpr std::uint64_t kWhatifPinDigest = 0x77a5947d1fc486b5ULL;
constexpr std::uint64_t kTenantPinDigest = 0xe30e09b82382c94bULL;

TEST(SnapshotWirePins, WhatifWorldDigestIsPinned) {
  bench::WhatifWorld w;
  const auto cfg = pinnedWhatifConfig();
  bench::buildWhatifWorld(w, cfg, /*armDaemons=*/true);
  w.eng.spawn(w.mgr->run(w.cop, &*w.rescheduler, w.mopts, &w.bd), w.cop.name);
  w.eng.runUntil(kWhatifPinAt);
  w.eng.rethrowIfFailed();
  ASSERT_FALSE(w.mgr->isCompleted(w.cop.name));
  ASSERT_GT(w.fork->stats().decisions, 0);
  const SnapshotImage img = w.mgr->snapshotNow();
  EXPECT_EQ(sectionNames(img),
            (std::vector<std::string>{
                "core.apps", "grid.fabric", "services.gis", "services.nws",
                "services.ibp", "autopilot.sensor", "reschedule.journal",
                "reschedule.governor", "reschedule.whatif"}));
  EXPECT_EQ(img.serialize().size(), 49440u);
  EXPECT_EQ(img.digest(), kWhatifPinDigest);
}

TEST(SnapshotWirePins, TenantWorldDigestIsPinned) {
  TenantWorld w(3);
  w.nws->start();
  w.meta->start();
  w.eng.runUntil(kTenantPinAt);
  w.eng.rethrowIfFailed();
  ASSERT_GT(w.meta->jobsInSystem(), 0);
  const SnapshotImage img = w.mgr->snapshotNow();
  EXPECT_EQ(sectionNames(img),
            (std::vector<std::string>{
                "core.apps", "grid.fabric", "services.gis", "services.nws",
                "services.ibp", "autopilot.sensor", "reschedule.journal",
                "metasched.frontend"}));
  EXPECT_EQ(img.serialize().size(), 20984u);
  EXPECT_EQ(img.digest(), kTenantPinDigest);
}

TEST(SnapshotWirePins, WhatifWorldRecapturesIdenticalBytesAfterRestore) {
  const auto cfg = pinnedWhatifConfig();
  std::vector<std::uint8_t> bytes;
  {
    bench::WhatifWorld w;
    bench::buildWhatifWorld(w, cfg, /*armDaemons=*/true);
    w.eng.spawn(w.mgr->run(w.cop, &*w.rescheduler, w.mopts, &w.bd),
                w.cop.name);
    w.eng.runUntil(kWhatifPinAt);
    w.eng.rethrowIfFailed();
    bytes = w.mgr->snapshotNow().serialize();
  }
  bench::WhatifWorld fresh;
  bench::buildWhatifWorld(fresh, cfg, /*armDaemons=*/false);
  const SnapshotImage img = SnapshotImage::parse(bytes);
  fresh.eng.runUntil(img.simTime);
  fresh.mgr->restoreFrom(img);
  EXPECT_TRUE(fresh.mgr->hasResumeState(fresh.cop.name));
  EXPECT_EQ(fresh.mgr->snapshotNow().serialize(), bytes);
}

TEST(SnapshotWirePins, TenantWorldRecapturesIdenticalBytesAfterRestore) {
  std::vector<std::uint8_t> bytes;
  {
    TenantWorld w(3);
    w.nws->start();
    w.meta->start();
    w.eng.runUntil(kTenantPinAt);
    w.eng.rethrowIfFailed();
    bytes = w.mgr->snapshotNow().serialize();
  }
  TenantWorld fresh(3);
  const SnapshotImage img = SnapshotImage::parse(bytes);
  fresh.eng.runUntil(img.simTime);
  fresh.mgr->restoreFrom(img);
  EXPECT_EQ(fresh.mgr->snapshotNow().serialize(), bytes);
}

TEST(SnapshotShapes, FrontendImageIntoDifferentTenantCountIsASnapshotError) {
  TenantWorld w(3);
  w.nws->start();
  w.meta->start();
  w.eng.runUntil(kTenantPinAt);
  const SnapshotImage img = w.mgr->snapshotNow();
  TenantWorld other(2);
  other.eng.runUntil(img.simTime);
  EXPECT_THROW(other.mgr->restoreFrom(img), SnapshotError);
}

TEST(SnapshotShapes, RssLedgerOfAnotherAppIsASnapshotError) {
  sim::Engine eng;
  reschedule::Rss qr(eng, "qr");
  SnapshotIO w = SnapshotIO::writer();
  qr.snapshotFields(w);
  reschedule::Rss eman(eng, "eman");
  SnapshotIO r = SnapshotIO::reader(w.words());
  EXPECT_THROW(eman.snapshotFields(r), SnapshotError);
}

TEST(SnapshotShapes, CommunicatorOnAnUnknownNodeIsASnapshotError) {
  sim::Engine eng;
  grid::Grid big(eng);
  const auto tb = grid::buildQrTestbed(big);
  vmpi::World wide(big, {tb.utkNodes[0], tb.uiucNodes[7]});
  SnapshotIO w = SnapshotIO::writer();
  wide.snapshotFields(w);

  grid::Grid small(eng);
  const auto site = small.addCluster(grid::ClusterSpec{
      "site", "Site", grid::fastEthernetLan("site.lan", 2)});
  const auto n0 = small.addNode(site, grid::utkQrNodeSpec(0));
  vmpi::World narrow(small, {n0, n0});
  SnapshotIO r = SnapshotIO::reader(w.words());
  EXPECT_THROW(narrow.snapshotFields(r), SnapshotError);
}

/// Rewrites the trailing whole-image checksum so a doctored image passes
/// the integrity check and reaches the structural parser.
void reseal(std::vector<std::uint8_t>& bytes) {
  const std::uint64_t sum = util::fnv1a64(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  }
}

void putWordAt(std::vector<std::uint8_t>& bytes, std::size_t word,
               std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[word * 8 + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

TEST(SnapshotImage, ResealedOverrunningLengthsAreSnapshotErrors) {
  // Layout of makeImage(): magic, format, time, section count, then the
  // first section's name length at word 4.
  const auto good = makeImage().serialize();
  const std::size_t nameLenWord = 4;
  const std::size_t nameWords = (std::string("test.alpha").size() + 7) / 8;
  const std::size_t wordCountWord = nameLenWord + 1 + nameWords + 1;
  for (const std::uint64_t bogus :
       {std::uint64_t{1} << 62, std::uint64_t{1} << 63, ~std::uint64_t{0},
        std::uint64_t{1000}}) {
    auto badName = good;
    putWordAt(badName, nameLenWord, bogus);
    reseal(badName);
    EXPECT_THROW(SnapshotImage::parse(badName), SnapshotError) << bogus;
    auto badCount = good;
    putWordAt(badCount, wordCountWord, bogus);
    reseal(badCount);
    EXPECT_THROW(SnapshotImage::parse(badCount), SnapshotError) << bogus;
    auto badSections = good;
    putWordAt(badSections, 3, bogus);
    reseal(badSections);
    EXPECT_THROW(SnapshotImage::parse(badSections), SnapshotError) << bogus;
  }
}

}  // namespace
}  // namespace grads::core
