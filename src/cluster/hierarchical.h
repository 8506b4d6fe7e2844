#ifndef DLINF_CLUSTER_HIERARCHICAL_H_
#define DLINF_CLUSTER_HIERARCHICAL_H_

#include <cstdint>
#include <vector>

#include "geo/point.h"

namespace dlinf {

/// A cluster of spatial points, tracked by centroid and membership.
///
/// `weight` is the number of original points the cluster absorbed, so that
/// merging two clusters yields the exact centroid of their union; `members`
/// are the caller's ids of those original points (stay-point indexes in the
/// candidate-pool pipeline).
struct PointCluster {
  Point centroid;
  double weight = 1.0;
  std::vector<int64_t> members;
};

/// Wraps each point as a singleton cluster with member id = its index
/// (offset by `id_offset` to support batched input).
std::vector<PointCluster> MakeSingletonClusters(
    const std::vector<Point>& points, int64_t id_offset = 0);

/// Centroid-linkage agglomerative clustering with a distance threshold
/// (Section III-B): repeatedly merges the two clusters whose centroids are
/// closest, until no two centroids are within `distance_threshold`.
///
/// Accepts pre-existing clusters as input, which is exactly what the paper's
/// bi-weekly incremental pool construction needs: cluster each two-week batch
/// of stay points, then feed the accumulated clusters back through the same
/// procedure. The closest-pair search is grid-accelerated: only pairs at most
/// `distance_threshold` apart are ever materialized, so the run time is
/// near-linear for the dispersed point sets stay points form in practice.
///
/// Merges pop in the total order (squared centroid distance, lower id,
/// higher id), where ids are input indexes and each merged cluster takes the
/// next id in creation order. So equal distances merge the lowest ids first
/// and the output depends on nothing but the input. The merge heap holds one
/// pair per cluster, its closest live pair (seeded in one heapify); a popped
/// pair whose partner already merged away is replaced by its cluster's next
/// closest pair, which keeps the pop order exact without queueing every pair.
std::vector<PointCluster> AgglomerateByDistance(
    std::vector<PointCluster> clusters, double distance_threshold);

/// Convenience overload: singleton-wraps `points` and agglomerates.
std::vector<PointCluster> AgglomerateByDistance(
    const std::vector<Point>& points, double distance_threshold);

}  // namespace dlinf

#endif  // DLINF_CLUSTER_HIERARCHICAL_H_
