#include "stream/candidate_updater.h"

#include "common/check.h"
#include "obs/metrics.h"

namespace dlinf {
namespace stream {

CandidateIndexUpdater::CandidateIndexUpdater(const Options& options)
    : options_(options), grid_(options.cluster_distance_m) {
  CHECK_GT(options_.cluster_distance_m, 0.0);
}

void CandidateIndexUpdater::MergeInto(int64_t dst, int64_t src) {
  PointCluster& a = clusters_[static_cast<size_t>(dst)];
  PointCluster& b = clusters_[static_cast<size_t>(src)];
  CHECK(!a.members.empty() && !b.members.empty() && dst != src);
  grid_.Remove(dst, a.centroid);
  grid_.Remove(src, b.centroid);
  // Weighted union keeps the centroid the exact mean of all members, the
  // same arithmetic the batch PointCluster merge uses.
  const double total = a.weight + b.weight;
  a.centroid.x = (a.centroid.x * a.weight + b.centroid.x * b.weight) / total;
  a.centroid.y = (a.centroid.y * a.weight + b.centroid.y * b.weight) / total;
  a.weight = total;
  a.members.insert(a.members.end(), b.members.begin(), b.members.end());
  b.members.clear();
  --live_clusters_;
  grid_.Insert(dst, a.centroid);
  obs::MetricsRegistry::Global().GetCounter("stream.cluster.merges")->Add(1);
}

void CandidateIndexUpdater::CascadeMerges(int64_t cid) {
  // Each merge moves the centroid, so re-query until no neighbour remains
  // within D. Termination: every iteration removes one live cluster.
  bool merged = true;
  while (merged) {
    merged = false;
    const Point center = clusters_[static_cast<size_t>(cid)].centroid;
    for (int64_t other :
         grid_.RadiusQuery(center, options_.cluster_distance_m)) {
      if (other == cid) continue;
      MergeInto(cid, other);
      merged = true;
      break;
    }
  }
}

void CandidateIndexUpdater::AssignStay(int64_t stay_index) {
  const Point p = stay_points_[static_cast<size_t>(stay_index)].location;
  const int64_t nearest = grid_.Nearest(p, options_.cluster_distance_m);
  if (nearest < 0) {
    const int64_t cid = static_cast<int64_t>(clusters_.size());
    clusters_.push_back(PointCluster{p, 1.0, {stay_index}});
    ++live_clusters_;
    grid_.Insert(cid, p);
    obs::MetricsRegistry::Global().GetCounter("stream.cluster.spawns")->Add(1);
    return;
  }
  PointCluster& cluster = clusters_[static_cast<size_t>(nearest)];
  grid_.Remove(nearest, cluster.centroid);
  cluster.centroid.x = (cluster.centroid.x * cluster.weight + p.x) /
                       (cluster.weight + 1.0);
  cluster.centroid.y = (cluster.centroid.y * cluster.weight + p.y) /
                       (cluster.weight + 1.0);
  cluster.weight += 1.0;
  cluster.members.push_back(stay_index);
  grid_.Insert(nearest, cluster.centroid);
  CascadeMerges(nearest);
}

void CandidateIndexUpdater::AddTrip(const sim::World& city,
                                    const sim::DeliveryTrip& trip,
                                    const std::vector<StayPoint>& stays) {
  CHECK_EQ(trip.id, num_trips_)
      << "streamed trips must arrive with dense in-order ids";
  for (const StayPoint& sp : stays) {
    CHECK_EQ(sp.trip_id, trip.id);
    const int64_t index = static_cast<int64_t>(stay_points_.size());
    stay_points_.push_back(sp);
    AssignStay(index);
  }
  waybills_.AddTrip(city, trip);
  ++num_trips_;
}

dlinfma::CandidateGeneration CandidateIndexUpdater::Snapshot() const {
  std::vector<PointCluster> live;
  live.reserve(live_clusters_);
  for (const PointCluster& cluster : clusters_) {
    if (!cluster.members.empty()) live.push_back(cluster);
  }
  return dlinfma::CandidateGeneration::Assemble(stay_points_, live,
                                                num_trips_, waybills_);
}

std::vector<Point> CandidateIndexUpdater::LiveCentroids() const {
  std::vector<Point> centroids;
  for (const PointCluster& cluster : clusters_) {
    if (!cluster.members.empty()) centroids.push_back(cluster.centroid);
  }
  return centroids;
}

std::vector<Point> CandidateIndexUpdater::LiveMemberMeans() const {
  std::vector<Point> means;
  for (const PointCluster& cluster : clusters_) {
    if (cluster.members.empty()) continue;
    Point mean{0.0, 0.0};
    for (int64_t member : cluster.members) {
      mean.x += stay_points_[static_cast<size_t>(member)].location.x;
      mean.y += stay_points_[static_cast<size_t>(member)].location.y;
    }
    const double n = static_cast<double>(cluster.members.size());
    mean.x /= n;
    mean.y /= n;
    means.push_back(mean);
  }
  return means;
}

}  // namespace stream
}  // namespace dlinf
