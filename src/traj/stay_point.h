#ifndef DLINF_TRAJ_STAY_POINT_H_
#define DLINF_TRAJ_STAY_POINT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "traj/trajectory.h"

namespace dlinf {

/// A detected stay (Definition 4): a maximal trajectory subsequence whose
/// points remain within `distance_threshold` of its first point for at least
/// `time_threshold` seconds.
struct StayPoint {
  Point location;        ///< Spatial centroid of the subsequence.
  double start_time = 0; ///< Time of the first point in the stay.
  double end_time = 0;   ///< Time of the last point in the stay.
  int64_t courier_id = -1;
  int64_t trip_id = -1;  ///< Filled in by callers that know the trip.

  /// Definition 4 assigns a stay point the midpoint of its interval.
  double Time() const { return (start_time + end_time) / 2.0; }

  double Duration() const { return end_time - start_time; }
};

/// Parameters of stay-point detection. The paper (following [5]) uses
/// D_max = 20 m and T_min = 30 s (Section III-A).
struct StayPointOptions {
  double distance_threshold_m = 20.0;  ///< D_max.
  double time_threshold_s = 30.0;      ///< T_min.
};

/// Stay-point extraction with the anchor-based algorithm of Li et al. [7],
/// fed one point (or one run of points) at a time: scan j forward from
/// anchor i while distance(p_i, p_j) <= D_max; when the window breaks, emit
/// <p_i..p_{j-1}> as a stay if it spans >= T_min and restart at j, else
/// advance the anchor by one.
///
/// The scan only ever reads the points from the current anchor on, so the
/// detector stores exactly that suffix and suspends at "j == end of input"
/// until more points arrive; Flush() declares end of input. A stay is
/// therefore final once a point beyond D_max arrives, or at Flush. Fed
/// point at a time, storage is bounded by the current open window (the
/// points within D_max of the live anchor plus the one that broke it) — the
/// dwell length, not the trajectory length.
///
/// Stay points carry the detector's `courier_id`; `trip_id` is left -1.
class StayPointDetector {
 public:
  explicit StayPointDetector(const StayPointOptions& options = {},
                             int64_t courier_id = -1);

  /// Ingests one chronological point; appends any stay points it
  /// finalizes. Returns the number emitted (almost always 0 or 1).
  size_t Push(const TrajPoint& p, std::vector<StayPoint>* out);

  /// Ingests a run of chronological points at once — the same scan as
  /// pushing them one by one, with one append and one drain.
  size_t Push(std::span<const TrajPoint> points, std::vector<StayPoint>* out);

  /// End of input: finalizes the stored tail. Afterwards nothing is stored
  /// and the detector is ready for a new trajectory.
  size_t Flush(std::vector<StayPoint>* out);

  /// Drops stored points and tags future stay points with `courier_id`.
  void Reset(int64_t courier_id);

  /// Points currently stored (the open anchor window).
  size_t buffered_points() const { return buffer_.size(); }

  /// High-water mark of buffered_points() — the bounded-memory claim,
  /// observable.
  size_t max_buffered_points() const { return max_buffered_; }

 private:
  /// Runs the scan as far as the stored points allow, then erases the
  /// consumed prefix. With `end_of_input` the end of the buffer is the end
  /// of the trajectory.
  size_t Drain(bool end_of_input, std::vector<StayPoint>* out);

  /// The stay point of buffer_[begin, end): centroid by index-order double
  /// summation, time span from the first and last point.
  StayPoint Emit(size_t begin, size_t end) const;

  StayPointOptions options_;
  int64_t courier_id_;
  std::vector<TrajPoint> buffer_;  ///< Points from the current anchor on.
  /// The scan cursor j as an index into buffer_, whose first point is the
  /// anchor: buffer_[0, scan_) are all within D_max of it. Invariant
  /// 1 <= scan_ <= buffer_.size() while the buffer is non-empty.
  size_t scan_ = 1;
  size_t max_buffered_ = 0;
};

/// Stay points of a whole (noise-filtered) trajectory: feeds a fresh
/// StayPointDetector every point, then flushes. Stay points inherit
/// `courier_id` from the trajectory; `trip_id` is left -1.
std::vector<StayPoint> DetectStayPoints(const Trajectory& trajectory,
                                        const StayPointOptions& options = {});

}  // namespace dlinf

#endif  // DLINF_TRAJ_STAY_POINT_H_
