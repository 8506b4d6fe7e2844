#ifndef DLINF_DLINFMA_CANDIDATE_GENERATION_H_
#define DLINF_DLINFMA_CANDIDATE_GENERATION_H_

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cluster/hierarchical.h"
#include "common/thread_pool.h"
#include "geo/point.h"
#include "sim/world.h"
#include "traj/noise_filter.h"
#include "traj/stay_point.h"

namespace dlinf {

namespace stream {
class CandidateIndexUpdater;
}  // namespace stream

namespace dlinfma {

/// Aggregate profile of a location candidate, mined from the stay points in
/// its cluster (Section III-B): used later as "profile features".
struct CandidateProfile {
  double avg_duration_s = 0.0;  ///< Mean stay duration at this location.
  int num_couriers = 0;         ///< Distinct couriers who stayed here.
  /// Hour-of-day distribution of visits (normalized to sum 1).
  std::array<double, 24> time_distribution{};
};

/// One delivery-location candidate: a cluster centroid of stay points.
struct LocationCandidate {
  int64_t id = -1;
  Point location;
  int num_stay_points = 0;
  CandidateProfile profile;
};

/// One pass of a trip through a candidate: the stay-point time (midpoint)
/// and duration.
struct TripCandidateVisit {
  int64_t candidate_id = -1;
  double time = 0.0;
  double duration = 0.0;
};

/// A (trip, recorded delivery time) pair for an address.
struct AddressTripRecord {
  int64_t trip_id = -1;
  double recorded_delivery_time = 0.0;
};

/// The Location Candidate Generation component (Section III).
///
/// Build() runs the full mining pass over a dataset's trips:
///  1. Stay-point extraction: GPS noise filtering [8] + stay-point detection
///     [7] per trajectory (parallelized trajectory-level when a thread pool
///     is supplied, as in the paper's deployment).
///  2. Candidate-pool construction: stay points are clustered bi-weekly with
///     threshold-D hierarchical clustering, then batch results are merged by
///     the same procedure.
///  3. Assembly: cluster centroids become candidates and cluster members
///     yield the profiles; per-trip candidate visits and per-address trip
///     records back Retrieve(), which applies the recorded-delivery-time
///     upper bound of Section III-C.
/// The streaming stream::CandidateIndexUpdater swaps in its own clusterer
/// for step 2 and shares step 3.
class CandidateGeneration {
 public:
  struct Options {
    NoiseFilterOptions noise_filter;
    StayPointOptions stay_point;  ///< D_max = 20 m, T_min = 30 s defaults.
    double cluster_distance_m = 40.0;       ///< D of Section III-B.
    double batch_window_s = 14.0 * 86400.0; ///< Bi-weekly batching.
    /// DLInfMA-Grid variant: replace hierarchical clustering with
    /// grid-merging over cells of cluster_distance_m.
    bool use_grid_merge = false;
  };

  /// Mines candidates from every trip in `world`.
  static CandidateGeneration Build(const sim::World& world,
                                   const Options& options,
                                   ThreadPool* pool = nullptr);

  /// The candidate pool.
  const std::vector<LocationCandidate>& candidates() const {
    return candidates_;
  }
  const LocationCandidate& candidate(int64_t id) const;

  /// All extracted stay points (tagged with courier and trip).
  const std::vector<StayPoint>& stay_points() const { return stay_points_; }

  /// Candidate visits of each trip, chronological, indexed by trip id.
  const std::vector<std::vector<TripCandidateVisit>>& trip_visits() const {
    return trip_visits_;
  }

  /// Trips involving an address, with the recorded delivery times of its
  /// waybills (TR_j of Section IV-A). Empty for never-delivered addresses.
  const std::vector<AddressTripRecord>& address_trips(int64_t address_id) const;

  /// Section III-C retrieval: the union over the address's trips of
  /// candidates visited no later than the trip's recorded delivery time for
  /// this address. Sorted ascending, deduplicated.
  std::vector<int64_t> Retrieve(int64_t address_id) const;

  /// Ids of trips that pass through the candidate (any time).
  const std::vector<int64_t>& trips_through(int64_t candidate_id) const;

  /// Ids of trips that involve at least one waybill of the building.
  const std::vector<int64_t>& trips_of_building(int64_t building_id) const;

  /// Ids of trips that involve the address itself (for the LC_addr ablation).
  std::vector<int64_t> trip_ids_of_address(int64_t address_id) const;

  int64_t num_trips() const { return num_trips_; }

 private:
  CandidateGeneration() = default;

  /// The streaming ingestion layer (src/stream) clusters stay points
  /// incrementally and materializes snapshots through Assemble without
  /// re-running the mining pass.
  friend class dlinf::stream::CandidateIndexUpdater;

  /// The waybill side of the retrieval indexes: address -> trips (with the
  /// recorded delivery times) and building -> trips, grown one trip at a
  /// time.
  struct WaybillIndex {
    std::unordered_map<int64_t, std::vector<AddressTripRecord>> address_trips;
    std::unordered_map<int64_t, std::vector<int64_t>> building_trips;

    /// Indexes `trip`'s waybills; `city` resolves addresses to buildings.
    void AddTrip(const sim::World& city, const sim::DeliveryTrip& trip);
  };

  /// The assembly step shared by Build and the streaming snapshot.
  /// `clusters` partition `stay_points` (members are indexes into it; trip
  /// ids are dense in [0, num_trips)). Each cluster becomes one candidate,
  /// in order, with its BuildProfile profile; the trips' chronological
  /// visits and candidate -> trips index follow from the membership.
  static CandidateGeneration Assemble(std::vector<StayPoint> stay_points,
                                      const std::vector<PointCluster>& clusters,
                                      int64_t num_trips, WaybillIndex waybills);

  std::vector<StayPoint> stay_points_;
  std::vector<LocationCandidate> candidates_;
  std::vector<std::vector<TripCandidateVisit>> trip_visits_;
  std::unordered_map<int64_t, std::vector<AddressTripRecord>> address_trips_;
  std::unordered_map<int64_t, std::vector<int64_t>> candidate_trips_;
  std::unordered_map<int64_t, std::vector<int64_t>> building_trips_;
  int64_t num_trips_ = 0;

  static const std::vector<AddressTripRecord> kNoTrips;
  static const std::vector<int64_t> kNoTripIds;
};

}  // namespace dlinfma
}  // namespace dlinf

#endif  // DLINF_DLINFMA_CANDIDATE_GENERATION_H_
