#include "metasched/admission.hpp"

#include <algorithm>

namespace grads::metasched {

AdmissionController::CapacityKey AdmissionController::capacityKey() const {
  CapacityKey key;
  key.gisEpoch = gis_->reachabilityEpoch();
  if (nws_ != nullptr) {
    key.nwsEpoch = nws_->measurementEpoch();
    key.stale = nws_->stale();
  }
  return key;
}

double AdmissionController::capacityFlops() const {
  const CapacityKey key = capacityKey();
  if (capacity_ && capacity_->first == key) return capacity_->second;
  double total = 0.0;
  for (const grid::NodeId n : slots_) {
    if (!gis_->isNodeReachable(n)) continue;
    double rate = grid_->node(n).spec().effectiveFlopsPerCpu();
    if (nws_ != nullptr) {
      const auto measured = nws_->tryEffectiveRate(n);
      if (measured && *measured > 0.0) rate = *measured;
    }
    total += rate;
  }
  capacity_.emplace(key, total);
  return total;
}

AdmissionDecision AdmissionController::decide(int tier,
                                              std::size_t tenantDepth,
                                              std::size_t totalDepth,
                                              double backlogSec,
                                              BrownoutLevel level) const {
  if (!opts_.enabled) return {true, 0.0, "open"};
  const double hint =
      std::clamp(opts_.retryAfterFactor * backlogSec, opts_.retryAfterMinSec,
                 opts_.retryAfterMaxSec);
  if (level == BrownoutLevel::kShed && tier < opts_.shedProtectTier) {
    return {false, hint, "brownout-shed"};
  }
  if (tenantDepth >= opts_.maxQueuedPerTenant) {
    return {false, hint, "tenant-queue-full"};
  }
  if (totalDepth >= opts_.maxQueuedTotal) {
    return {false, hint, "global-queue-full"};
  }
  if (backlogSec > opts_.maxBacklogSec) {
    return {false, hint, "backlog"};
  }
  return {true, 0.0, "admit"};
}

}  // namespace grads::metasched
