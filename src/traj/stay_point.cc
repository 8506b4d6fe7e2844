#include "traj/stay_point.h"

#include <algorithm>

#include "common/check.h"

namespace dlinf {

StayPointDetector::StayPointDetector(const StayPointOptions& options,
                                     int64_t courier_id)
    : options_(options), courier_id_(courier_id) {
  CHECK_GT(options_.distance_threshold_m, 0.0);
  CHECK_GT(options_.time_threshold_s, 0.0);
}

StayPoint StayPointDetector::Emit(size_t begin, size_t end) const {
  double sx = 0.0;
  double sy = 0.0;
  for (size_t k = begin; k < end; ++k) {
    sx += buffer_[k].x;
    sy += buffer_[k].y;
  }
  const double n = static_cast<double>(end - begin);
  StayPoint sp;
  sp.location = Point{sx / n, sy / n};
  sp.start_time = buffer_[begin].t;
  sp.end_time = buffer_[end - 1].t;
  sp.courier_id = courier_id_;
  return sp;
}

size_t StayPointDetector::Drain(bool end_of_input,
                                std::vector<StayPoint>* out) {
  const size_t n = buffer_.size();
  size_t emitted = 0;
  size_t anchor = 0;
  while (anchor < n) {
    // Advance j while p_j stays within D_max of the anchor.
    while (scan_ < n && Distance(buffer_[anchor].position(),
                                 buffer_[scan_].position()) <=
                            options_.distance_threshold_m) {
      ++scan_;
    }
    // The window is still open: the next point to read has not arrived.
    if (scan_ == n && !end_of_input) break;
    // Window [anchor, scan_) is closed, by a too-far point or by the end of
    // input.
    if (buffer_[scan_ - 1].t - buffer_[anchor].t >=
        options_.time_threshold_s) {
      out->push_back(Emit(anchor, scan_));
      ++emitted;
      anchor = scan_;  // Restart after the stay, per [7].
    } else {
      ++anchor;
    }
    scan_ = anchor + 1;
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<ptrdiff_t>(anchor));
  scan_ -= anchor;
  return emitted;
}

size_t StayPointDetector::Push(const TrajPoint& p,
                               std::vector<StayPoint>* out) {
  return Push(std::span<const TrajPoint>(&p, 1), out);
}

size_t StayPointDetector::Push(std::span<const TrajPoint> points,
                               std::vector<StayPoint>* out) {
  buffer_.insert(buffer_.end(), points.begin(), points.end());
  max_buffered_ = std::max(max_buffered_, buffer_.size());
  return Drain(/*end_of_input=*/false, out);
}

size_t StayPointDetector::Flush(std::vector<StayPoint>* out) {
  return Drain(/*end_of_input=*/true, out);
}

void StayPointDetector::Reset(int64_t courier_id) {
  courier_id_ = courier_id;
  buffer_.clear();
  scan_ = 1;
}

std::vector<StayPoint> DetectStayPoints(const Trajectory& trajectory,
                                        const StayPointOptions& options) {
  StayPointDetector detector(options, trajectory.courier_id);
  std::vector<StayPoint> stays;
  detector.Push(trajectory.points, &stays);
  detector.Flush(&stays);
  return stays;
}

}  // namespace dlinf
