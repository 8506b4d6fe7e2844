#ifndef DLINF_STREAM_STREAM_PIPELINE_H_
#define DLINF_STREAM_STREAM_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "dlinfma/candidate_generation.h"
#include "sim/world.h"
#include "stream/candidate_updater.h"
#include "traj/noise_filter.h"
#include "traj/stay_point.h"
#include "traj/trajectory.h"

namespace dlinf {
namespace stream {

/// Point-at-a-time ingestion front end (DESIGN.md §13): glues the noise
/// filter + stay-point detector to the incremental candidate index and
/// accumulates an ingested sim::World that the batch pipeline can replay.
///
/// Lifecycle per trip: StartTrip (metadata: courier, waybills, window) →
/// PushPoint for each GPS fix in time order → FinishTrip (flushes the
/// detector, assigns the next dense trip id and folds the trip into the
/// candidate index). ReplayTrip drives that loop over a recorded trip.
///
/// The ingested world holds exactly the points that survived ingestion
/// faults — a batch CandidateGeneration::Build over world() (faults
/// disarmed) therefore mines the *identical* stay-point list, which is the
/// anchor for the streamed-vs-batch equivalence suite.
///
/// Fault points (armed via fault::ScopedFaultPlan):
///  - `stream.ingest.drop_point`       drops the incoming fix,
///  - `stream.ingest.duplicate_point`  delivers the fix twice,
///  - `stream.ingest.latency`          sleeps the configured latency.
/// Counters: stream.ingest.{points,dropped_points,duplicated_points,trips,
/// stay_points}; gauge stream.clusters tracks the live candidate pool.
class StreamIngestor {
 public:
  /// `city` supplies the static side of the world (station, communities,
  /// buildings, addresses, couriers — everything except trips, which arrive
  /// over the stream).
  StreamIngestor(const sim::World& city,
                 const dlinfma::CandidateGeneration::Options& options);

  /// Opens a trip. `trip`'s metadata (courier, window, waybills) is copied;
  /// its recorded trajectory is ignored — points arrive via PushPoint. The
  /// previous trip must have been finished.
  void StartTrip(const sim::DeliveryTrip& trip);

  /// Feeds one GPS fix to the open trip. Returns the number of stay points
  /// finalized by this fix.
  size_t PushPoint(const TrajPoint& point);

  /// Closes the open trip: flushes the detector, assigns the next dense
  /// trip id, updates the candidate index and appends the trip (with its
  /// ingested trajectory) to world(). Returns the trip's stay-point count.
  size_t FinishTrip();

  /// StartTrip + PushPoint(each recorded fix) + FinishTrip.
  size_t ReplayTrip(const sim::DeliveryTrip& trip);

  /// The world ingested so far: static city + completed streamed trips.
  const sim::World& world() const { return world_; }

  const CandidateIndexUpdater& updater() const { return updater_; }

  /// Batch-compatible snapshot of the mined state (see CandidateIndexUpdater).
  dlinfma::CandidateGeneration Snapshot() const { return updater_.Snapshot(); }

  int64_t num_trips() const { return updater_.num_trips(); }
  bool trip_open() const { return trip_open_; }

 private:
  /// Runs one delivered (post-fault) fix through filter + detector.
  size_t Ingest(const TrajPoint& point);

  dlinfma::CandidateGeneration::Options options_;
  sim::World world_;
  CandidateIndexUpdater updater_;
  NoiseFilter filter_;
  StayPointDetector detector_;

  bool trip_open_ = false;
  sim::DeliveryTrip current_;
  std::vector<StayPoint> current_stays_;
};

}  // namespace stream
}  // namespace dlinf

#endif  // DLINF_STREAM_STREAM_PIPELINE_H_
