#ifndef DLINF_STREAM_CANDIDATE_UPDATER_H_
#define DLINF_STREAM_CANDIDATE_UPDATER_H_

#include <cstdint>
#include <vector>

#include "cluster/hierarchical.h"
#include "dlinfma/candidate_generation.h"
#include "geo/grid_index.h"
#include "geo/point.h"
#include "sim/world.h"
#include "traj/stay_point.h"

namespace dlinf {
namespace stream {

/// Incremental clustering of the candidate pool (DESIGN.md §13): the
/// streaming counterpart of the clustering stage of
/// dlinfma::CandidateGeneration::Build.
///
/// Each finalized stay point is inserted online: it joins the nearest live
/// cluster within the clustering threshold D (weighted-mean centroid update,
/// so centroids stay the exact mean of their members, as in the batch
/// PointCluster arithmetic), or spawns a new cluster; any insertion that
/// pulls two centroids within D of each other triggers cascading merges.
/// The invariant the batch agglomerative pass guarantees — no two final
/// centroids within D — therefore holds after every AddTrip. AddTrip also
/// indexes the trip's waybills through the same WaybillIndex Build uses.
///
/// Snapshot() hands the live clusters, the stay points and the waybill index
/// to the assembly step Build uses (CandidateGeneration::Assemble), so
/// candidates, profiles, per-trip visits and retrieval maps come from one
/// piece of code, without re-running detection. The online trainer feeds
/// these snapshots to feature extraction and retraining rounds.
///
/// The clusterer is therefore the only difference from a batch rebuild.
/// Cluster *identity* is insertion-order greedy rather than the batch
/// closest-pair order, so cluster compositions can differ on the same data;
/// where both clusterers find the same partition the snapshots agree
/// (tests/stream_test.cc), and end-to-end served-answer agreement is
/// enforced within golden tolerance by tests/online_trainer_test.cc.
class CandidateIndexUpdater {
 public:
  using Options = dlinfma::CandidateGeneration::Options;

  explicit CandidateIndexUpdater(const Options& options);

  /// Absorbs one completed trip: its finalized stay points (tagged with the
  /// trip's id, which must equal the number of trips already added — trips
  /// arrive in stream order) and its waybill records. `city` resolves
  /// waybill addresses to buildings.
  void AddTrip(const sim::World& city, const sim::DeliveryTrip& trip,
               const std::vector<StayPoint>& stays);

  size_t num_stay_points() const { return stay_points_.size(); }
  size_t num_clusters() const { return live_clusters_; }
  int64_t num_trips() const { return num_trips_; }

  /// Batch-compatible snapshot of the mined state (see class comment).
  dlinfma::CandidateGeneration Snapshot() const;

  /// Test hook: live cluster centroids (stable iteration order).
  std::vector<Point> LiveCentroids() const;

  /// Test hook: exact mean of each live cluster's member stay points, in
  /// the same order as LiveCentroids().
  std::vector<Point> LiveMemberMeans() const;

 private:
  /// Routes stay_points_[stay_index] into the pool (join / spawn + merges).
  void AssignStay(int64_t stay_index);

  /// Merges `src` into `dst` (weighted centroid union) and empties `src`.
  void MergeInto(int64_t dst, int64_t src);

  /// Re-merges until no other live centroid lies within D of `cid`'s.
  void CascadeMerges(int64_t cid);

  Options options_;
  GridIndex grid_;  ///< Live cluster centroids, payload = cluster index.
  /// Spawn order; a cluster is live while it has members (merging one away
  /// empties it).
  std::vector<PointCluster> clusters_;
  size_t live_clusters_ = 0;

  std::vector<StayPoint> stay_points_;
  dlinfma::CandidateGeneration::WaybillIndex waybills_;
  int64_t num_trips_ = 0;
};

}  // namespace stream
}  // namespace dlinf

#endif  // DLINF_STREAM_CANDIDATE_UPDATER_H_
