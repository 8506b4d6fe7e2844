#include "traj/noise_filter.h"

#include <cmath>

#include "common/check.h"

namespace dlinf {

NoiseFilter::NoiseFilter(const NoiseFilterOptions& options)
    : options_(options) {
  CHECK_GT(options_.max_speed_mps, 0.0);
}

bool NoiseFilter::Push(const TrajPoint& p) {
  // Non-finite samples (NaN/inf coordinates or timestamps, e.g. from a
  // cold-started receiver) are unconditional outliers: a NaN coordinate
  // would otherwise poison every comparison below (NaN > x is false, so
  // the speed gate alone would wave it through).
  if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.t)) {
    return false;
  }
  if (!has_last_) {
    has_last_ = true;
    last_kept_ = p;
    return true;
  }
  const double dt = p.t - last_kept_.t;
  if (dt <= 0) return false;  // Out-of-order or duplicate timestamp.
  const double speed = Distance(p.position(), last_kept_.position()) / dt;
  if (speed > options_.max_speed_mps &&
      consecutive_drops_ < options_.max_consecutive_drops) {
    ++consecutive_drops_;
    return false;
  }
  consecutive_drops_ = 0;
  last_kept_ = p;
  return true;
}

void NoiseFilter::Reset() {
  has_last_ = false;
  consecutive_drops_ = 0;
}

Trajectory FilterNoise(const Trajectory& input,
                       const NoiseFilterOptions& options) {
  NoiseFilter filter(options);
  Trajectory output;
  output.courier_id = input.courier_id;
  output.points.reserve(input.points.size());
  for (const TrajPoint& p : input.points) {
    if (filter.Push(p)) output.points.push_back(p);
  }
  return output;
}

}  // namespace dlinf
