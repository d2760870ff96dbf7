#include "metasched/types.hpp"

namespace grads::metasched {

const char* brownoutLevelName(BrownoutLevel level) {
  switch (level) {
    case BrownoutLevel::kFull: return "full";
    case BrownoutLevel::kDeferLow: return "defer-low";
    case BrownoutLevel::kPark: return "park";
    case BrownoutLevel::kShed: return "shed";
  }
  return "?";
}

void TenantLedger::snapshotFields(core::SnapshotIO& io) {
  io.i64(submitted);
  io.i64(admitted);
  io.i64(shed);
  io.i64(resubmits);
  io.i64(abandoned);
  io.i64(dispatched);
  io.i64(completed);
  io.i64(failed);
  io.i64(preempted);
  io.i64(parks);
  io.i64(unparked);
  io.i64(deferrals);
  io.i64(unserved);
  io.seq(slowdowns, [](core::SnapshotIO& a, double& s) { a.f64(s); });
}

bool BrownoutController::update(double pressure, double now) {
  if (!opts_.enabled) return false;
  if (now - lastChangeAt_ < opts_.dwellSec) return false;
  if (level_ < 3 && pressure >= opts_.enterPressure[level_]) {
    ++level_;
    ++escalations_;
    lastChangeAt_ = now;
    return true;
  }
  if (level_ > 0 && pressure <= opts_.exitPressure[level_ - 1]) {
    --level_;
    ++deescalations_;
    lastChangeAt_ = now;
    return true;
  }
  return false;
}

void BrownoutController::snapshotFields(core::SnapshotIO& io) {
  io.i64(level_);
  io.f64(lastChangeAt_);
  io.i64(escalations_);
  io.i64(deescalations_);
}

}  // namespace grads::metasched
