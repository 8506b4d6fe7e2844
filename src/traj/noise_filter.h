#ifndef DLINF_TRAJ_NOISE_FILTER_H_
#define DLINF_TRAJ_NOISE_FILTER_H_

#include "traj/trajectory.h"

namespace dlinf {

/// Parameters for the heuristic GPS outlier filter [8] used before stay-point
/// extraction (Section III-A, operation 1).
struct NoiseFilterOptions {
  /// Points implying a speed above this (m/s) from the previous kept point
  /// are dropped. Couriers ride at most ~15 m/s; default leaves headroom.
  double max_speed_mps = 25.0;

  /// Cap on consecutive drops: after this many rejected points in a row the
  /// next point is accepted unconditionally, so a genuine fast segment (or a
  /// long signal gap) re-anchors the filter instead of consuming the rest of
  /// the track.
  int max_consecutive_drops = 5;
};

/// The heuristic GPS outlier filter, one point at a time. Feed raw points in
/// arrival order; Push() returns true when the point is kept. Duplicate-
/// timestamp and out-of-order points are dropped (keeping the first), as are
/// samples with non-finite coordinates or timestamps, so the kept sequence is
/// always finite and chronological — even on deliberately corrupted input
/// (see traj/corruption.h). The only state is the last kept point and the
/// consecutive-drop counter.
class NoiseFilter {
 public:
  explicit NoiseFilter(const NoiseFilterOptions& options = {});

  /// True when `p` survives the filter (forward it downstream).
  bool Push(const TrajPoint& p);

  /// Forgets all state (start of a new trajectory).
  void Reset();

 private:
  NoiseFilterOptions options_;
  bool has_last_ = false;
  TrajPoint last_kept_{};
  int consecutive_drops_ = 0;
};

/// Returns a copy of `input` holding the points a fresh NoiseFilter keeps,
/// in order. The result always satisfies Trajectory::IsChronological().
Trajectory FilterNoise(const Trajectory& input,
                       const NoiseFilterOptions& options = {});

}  // namespace dlinf

#endif  // DLINF_TRAJ_NOISE_FILTER_H_
