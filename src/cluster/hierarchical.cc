#include "cluster/hierarchical.h"

#include <algorithm>
#include <optional>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "geo/grid_index.h"

namespace dlinf {
namespace {

/// Candidate merge between two clusters `a < b` at squared centroid
/// distance `d2`, queued on behalf of `owner` (a or b): the cluster whose
/// closest pair it was when queued.
struct MergePair {
  double d2;
  int64_t a;
  int64_t b;
  int64_t owner;
};

/// (d2, a, b) order: equal distances put lower ids first, so every pair
/// has its own rank and the merge sequence is a total order.
bool Before(const MergePair& x, const MergePair& y) {
  return std::tie(x.d2, x.a, x.b) < std::tie(y.d2, y.a, y.b);
}

/// Heap comparator putting the first pair in Before order on top.
bool PopsAfter(const MergePair& x, const MergePair& y) { return Before(y, x); }

}  // namespace

std::vector<PointCluster> MakeSingletonClusters(
    const std::vector<Point>& points, int64_t id_offset) {
  std::vector<PointCluster> clusters;
  clusters.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    PointCluster c;
    c.centroid = points[i];
    c.weight = 1.0;
    c.members = {id_offset + static_cast<int64_t>(i)};
    clusters.push_back(std::move(c));
  }
  return clusters;
}

std::vector<PointCluster> AgglomerateByDistance(
    std::vector<PointCluster> clusters, double distance_threshold) {
  CHECK_GT(distance_threshold, 0.0);
  const double d2_threshold = distance_threshold * distance_threshold;

  // Clusters are append-only; merged inputs are tombstoned. Ids index `pool`,
  // which n inputs grow to at most 2n - 1 entries.
  std::vector<PointCluster> pool = std::move(clusters);
  const size_t num_inputs = pool.size();
  pool.reserve(2 * num_inputs);
  std::vector<bool> alive(num_inputs, true);
  GridIndex index(distance_threshold);
  for (size_t i = 0; i < num_inputs; ++i) {
    index.Insert(static_cast<int64_t>(i), pool[i].centroid);
  }

  // The heap holds at most one pair per cluster: its closest live pair
  // when queued. A cluster's pairs only disappear when a partner merges
  // away, so a popped pair with a dead partner is re-queued as its owner's
  // new closest pair, and a new cluster queues its own. Every live pair thus
  // keeps a queued pair of one of its clusters ranked no later than itself,
  // so the first live pair popped is the first live pair in Before order.
  std::vector<int64_t> neighbors;
  auto closest_pair = [&](int64_t id) -> std::optional<MergePair> {
    index.RadiusQuery(pool[id].centroid, distance_threshold, &neighbors);
    std::optional<MergePair> best;
    for (int64_t other : neighbors) {
      if (other == id) continue;
      const double d2 =
          SquaredDistance(pool[id].centroid, pool[other].centroid);
      if (d2 > d2_threshold) continue;
      const MergePair pair{d2, std::min(id, other), std::max(id, other), id};
      if (!best || Before(pair, *best)) best = pair;
    }
    return best;
  };
  std::vector<MergePair> heap;
  auto enqueue = [&](int64_t id) {
    if (const std::optional<MergePair> pair = closest_pair(id)) {
      heap.push_back(*pair);
      std::push_heap(heap.begin(), heap.end(), PopsAfter);
    }
  };
  for (size_t i = 0; i < num_inputs; ++i) {
    if (const auto pair = closest_pair(static_cast<int64_t>(i))) {
      heap.push_back(*pair);
    }
  }
  std::make_heap(heap.begin(), heap.end(), PopsAfter);

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), PopsAfter);
    const MergePair top = heap.back();
    heap.pop_back();
    if (!alive[top.owner]) continue;
    if (!alive[top.a] || !alive[top.b]) {
      enqueue(top.owner);
      continue;
    }
    // Centroids never move after creation, so a popped pair of live clusters
    // is the current first pair in Before order; merge it.
    PointCluster& ca = pool[top.a];
    const PointCluster& cb = pool[top.b];
    PointCluster merged;
    const double w = ca.weight + cb.weight;
    merged.centroid =
        Point{(ca.centroid.x * ca.weight + cb.centroid.x * cb.weight) / w,
              (ca.centroid.y * ca.weight + cb.centroid.y * cb.weight) / w};
    merged.weight = w;
    merged.members = std::move(ca.members);
    merged.members.insert(merged.members.end(), cb.members.begin(),
                          cb.members.end());

    alive[top.a] = false;
    alive[top.b] = false;
    index.Remove(top.a, ca.centroid);
    index.Remove(top.b, cb.centroid);

    const int64_t new_id = static_cast<int64_t>(pool.size());
    pool.push_back(std::move(merged));
    alive.push_back(true);
    index.Insert(new_id, pool[new_id].centroid);
    enqueue(new_id);
  }

  std::vector<PointCluster> result;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (alive[i]) result.push_back(std::move(pool[i]));
  }
  return result;
}

std::vector<PointCluster> AgglomerateByDistance(
    const std::vector<Point>& points, double distance_threshold) {
  return AgglomerateByDistance(MakeSingletonClusters(points),
                               distance_threshold);
}

}  // namespace dlinf
