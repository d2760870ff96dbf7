// The four benchmark workloads behind one interface. Each is a closed loop
// on the host: one op at a time, one thread, every input derived from the
// seed given on the command line.

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "bench.hpp"

namespace perfbench {

/// Scale of a workload's op set: `kFull` for measurement, `kTiny` for the
/// benchmark's self-test.
enum class Scale { kFull, kTiny };

class Workload {
 public:
  virtual ~Workload() = default;
  /// Input derivation that runs the simulator (crash-restart profiles its
  /// scenarios to place kill points). Called once, before setup; untimed.
  virtual void prepare(std::uint64_t /*seed*/) {}
  /// Derives the op set from `seed` and builds what the first op needs.
  /// Timed as setup_s; the harness calls it several times, each call
  /// starting from scratch.
  virtual void setup(std::uint64_t seed) = 0;
  /// One pass over the op set: times each op, checks it with the
  /// workload's in-run oracle, and folds the outcome into the pass digest.
  virtual void runPass(Pass& p) = 0;
};

std::unique_ptr<Workload> makeCrashRestart(Scale scale);
std::unique_ptr<Workload> makeTenantOverload(Scale scale);
std::unique_ptr<Workload> makeWhatifFork(Scale scale);
std::unique_ptr<Workload> makeEmanWorkflow(Scale scale);

}  // namespace perfbench
