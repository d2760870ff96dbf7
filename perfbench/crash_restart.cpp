// crash-restart: one op = one crash point. Run a QR scenario to a sampled
// kill point while the snapshot daemon captures and serializes images, kill
// the whole control plane, then parse the latest image into a fresh one,
// restore, and run the app to completion. Oracle: the app completes and the
// restored replay digest equals an uncrashed reference arm restored from
// the same image bytes (cached per image, computed outside the op).

#include <algorithm>
#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "core/snapshot.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "workload.hpp"
#include "worlds.hpp"

namespace perfbench {
namespace {

constexpr double kSnapshotPeriodSec = 90.0;

struct Scenario {
  const char* name;
  void (*build)(World&, std::uint64_t);
  std::uint64_t seed = 0;
  std::vector<std::uint64_t> crashAt;  ///< pop ordinals, 1-based
};

struct Restored {
  bool completed = false;
  std::uint64_t digest = 0;
  double endTime = 0.0;
  std::string error;
};

class CrashRestart final : public Workload {
 public:
  explicit CrashRestart(Scale scale) : scale_(scale) {}

  /// Derives the scenarios and their kill points: each scenario's uncrashed
  /// run is profiled for its event count, and the kill points are sampled
  /// strictly inside it. Untimed, because it runs the simulator.
  void prepare(std::uint64_t seed) override {
    const Scenario kinds[] = {{"chaos-qr", buildChaosQr, 0, {}},
                              {"integrity-qr", buildIntegrityQr, 0, {}},
                              {"thrash-governed", buildThrashQr, 0, {}}};
    scenarios_.clear();
    references_.clear();
    const int seeds = scale_ == Scale::kTiny ? 1 : kSeedsPerScenario;
    const int points = scale_ == Scale::kTiny ? 1 : kCrashPointsPerScenario;
    std::uint64_t stream = 0;
    for (const Scenario& kind : kinds) {
      for (int k = 0; k < seeds; ++k, ++stream) {
        Scenario sc = kind;
        sc.seed = deriveSeed(seed, stream) % 100000;
        Observer obs;
        World w;
        sc.build(w, sc.seed);
        obs.attach(w.eng, nullptr, nullptr, {});
        w.armDaemons(0.0);
        w.spawnApp();
        w.eng.run();
        GRADS_REQUIRE(w.mgr->isCompleted(w.cop.name),
                      "crash-restart: uncrashed profile run did not complete");
        // One kill point in each of `points` equal strata of the run.
        Rng rng(deriveSeed(seed, 1000 + stream));
        const auto pops = static_cast<std::int64_t>(obs.seen) - 1;
        for (std::int64_t i = 0; i < points; ++i) {
          const std::int64_t lo = 1 + i * pops / points;
          const std::int64_t hi = std::max(lo, (i + 1) * pops / points);
          sc.crashAt.push_back(
              static_cast<std::uint64_t>(rng.uniformInt(lo, hi)));
        }
        scenarios_.push_back(sc);
      }
    }
    if (scale_ == Scale::kTiny) scenarios_.resize(1);
  }

  /// Builds each scenario's world once, as every op does before it runs.
  void setup(std::uint64_t /*seed*/) override {
    for (const Scenario& sc : scenarios_) {
      World w;
      sc.build(w, sc.seed);
    }
  }

  void runPass(Pass& p) override {
    for (const Scenario& sc : scenarios_) {
      for (const std::uint64_t at : sc.crashAt) runOp(p, sc, at);
    }
  }

 private:
  /// An op re-runs its scenario to the kill point and again from the start
  /// on restore, so its cost grows with the kill point: stratified kill
  /// points and eight seeds of each kind keep the pass's work (and
  /// sim_makespan_s) steady across benchmark seeds.
  static constexpr int kSeedsPerScenario = 8;
  static constexpr int kCrashPointsPerScenario = 4;

  void runOp(Pass& p, const Scenario& sc, std::uint64_t at) {
    std::vector<std::uint8_t> image;
    bool crashed = false;
    std::string crashError;
    Restored r;
    {
      OpTimer op(p);
      try {
        crashed = runCrashed(p, sc, at, image);
      } catch (const std::exception& e) {
        crashError = e.what();
      }
      if (p.inject == Inject::kFlipImageByte && !image.empty()) {
        image[image.size() / 2] ^= 0x40;
      }
      r = restore(&p, sc, image);
    }
    Untimed oracle(p, "oracle");
    const std::uint64_t key = util::fnv1a64(image.data(), image.size());
    auto ref = references_.find(key);
    if (ref == references_.end()) {
      ref = references_.emplace(key, restore(nullptr, sc, image)).first;
    }
    const std::string where =
        std::string(sc.name) + " crash at pop " + std::to_string(at);
    if (!crashError.empty()) {
      p.fail(where + ": crashed arm threw: " + crashError);
    } else if (!crashed) {
      p.fail(where + ": run drained before the kill point");
    } else if (!r.error.empty()) {
      p.fail(where + ": restore threw: " + r.error);
    } else if (!r.completed || !ref->second.completed) {
      p.fail(where + ": app did not complete after restore");
    } else if (r.digest != ref->second.digest) {
      p.fail(where + ": restored digest differs from the reference arm");
    }
    p.digest.put(r.digest);
    p.digest.put(r.endTime);
    p.simMakespanSec += r.endTime;
  }

  /// Fresh run killed at pop ordinal `at`; leaves the latest serialized
  /// snapshot in `image`. Returns whether the kill point was reached.
  bool runCrashed(Pass& p, const Scenario& sc, std::uint64_t at,
                  std::vector<std::uint8_t>& image) {
    Observer obs;
    World w;
    sc.build(w, sc.seed);
    obs.stopAt = at;
    obs.attach(w.eng, &p, &*w.nws, w.g.allNodes());
    w.armDaemons(0.0);
    w.spawnApp();
    const auto sink = [&p, &image](core::SnapshotImage img) {
      Scope s(*p.tr, "core.snapshot.serialize");
      image = img.serialize();
      p.add("core.snapshot.captures", 1);
      p.add("core.snapshot.bytes_encoded", static_cast<double>(image.size()));
    };
    w.mgr->armSnapshotDaemon(kSnapshotPeriodSec, sink);
    sink(w.mgr->snapshotNow());  // a crash before the first periodic
                                 // capture restores from t=0
    {
      Scope s(*p.tr, "sim.run");
      w.eng.run();
    }
    harvestWorld(p, w, obs);
    return obs.stopped;
  }

  /// Rebuilds the control plane from `image` and runs it to completion.
  /// `p` is null for the reference arm, which counts nothing.
  Restored restore(Pass* p, const Scenario& sc,
                   const std::vector<std::uint8_t>& image) {
    Restored out;
    Observer obs;
    World w;
    sc.build(w, sc.seed);
    obs.attach(w.eng, p, &*w.nws, w.g.allNodes());
    Tracer idle;
    Tracer& tr = p != nullptr ? *p->tr : idle;
    try {
      core::SnapshotImage img;
      {
        Scope s(tr, "core.snapshot.parse");
        img = core::SnapshotImage::parse(image);
      }
      if (p != nullptr) {
        p->add("core.snapshot.parses", 1);
        p->add("core.snapshot.bytes_parsed", static_cast<double>(image.size()));
      }
      {
        Scope s(tr, "sim.run");
        w.eng.runUntil(img.simTime);
      }
      {
        Scope s(tr, "core.restore");
        w.mgr->restoreFrom(img);
      }
      if (w.journal) w.journal->recover("control-plane restart");
      w.armDaemons(img.simTime);
      w.spawnApp();
      {
        Scope s(tr, "sim.run");
        w.eng.run();
      }
      out.completed = w.mgr->isCompleted(w.cop.name);
      out.endTime = w.eng.now();
      w.foldOutcome(obs.ds);
      out.digest = obs.ds.digest();
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    if (p != nullptr) harvestWorld(*p, w, obs);
    return out;
  }

  Scale scale_;
  std::vector<Scenario> scenarios_;
  std::map<std::uint64_t, Restored> references_;  ///< by image hash
};

}  // namespace

std::unique_ptr<Workload> makeCrashRestart(Scale scale) {
  return std::make_unique<CrashRestart>(scale);
}

}  // namespace perfbench
