#include "dlinfma/candidate_generation.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <unordered_set>

#include "cluster/grid_merge.h"
#include "cluster/hierarchical.h"
#include "common/check.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "traj/corruption.h"

namespace dlinf {
namespace dlinfma {

const std::vector<AddressTripRecord> CandidateGeneration::kNoTrips = {};
const std::vector<int64_t> CandidateGeneration::kNoTripIds = {};

namespace {

/// Stage 1: noise-filter and stay-point-detect every trip's trajectory.
std::vector<StayPoint> ExtractStayPoints(
    const sim::World& world, const CandidateGeneration::Options& options,
    ThreadPool* pool) {
  std::vector<std::vector<StayPoint>> per_trip(world.trips.size());
  auto process = [&](int64_t i) {
    const sim::DeliveryTrip& trip = world.trips[i];
    // This is where the pipeline ingests the raw GPS stream, so it is where
    // an armed fault plan corrupts it (traj.gps.*; see traj/corruption.h).
    // Disarmed runs skip even the copy.
    const Trajectory* raw = &trip.trajectory;
    Trajectory corrupted;
    if (fault::Armed()) {
      corrupted = traj::ApplyTrajectoryFaults(trip.trajectory);
      raw = &corrupted;
    }
    const Trajectory cleaned = FilterNoise(*raw, options.noise_filter);
    std::vector<StayPoint> stays =
        DetectStayPoints(cleaned, options.stay_point);
    for (StayPoint& sp : stays) sp.trip_id = trip.id;
    per_trip[i] = std::move(stays);
  };
  if (pool != nullptr) {
    pool->ParallelFor(static_cast<int64_t>(world.trips.size()), process);
  } else {
    for (int64_t i = 0; i < static_cast<int64_t>(world.trips.size()); ++i) {
      process(i);
    }
  }
  std::vector<StayPoint> all;
  for (std::vector<StayPoint>& stays : per_trip) {
    all.insert(all.end(), stays.begin(), stays.end());
  }
  return all;
}

/// Stage 2: bi-weekly hierarchical clustering + merge (Section III-B), or
/// grid-merging for the DLInfMA-Grid variant. Member ids of the returned
/// clusters index `stay_points`.
std::vector<PointCluster> ClusterStayPoints(
    const std::vector<StayPoint>& stay_points,
    const CandidateGeneration::Options& options) {
  if (options.use_grid_merge) {
    std::vector<Point> points;
    points.reserve(stay_points.size());
    for (const StayPoint& sp : stay_points) points.push_back(sp.location);
    return GridMergeCluster(points, options.cluster_distance_m);
  }

  // Partition stay-point indexes into time batches.
  double t0 = 0.0;
  for (size_t i = 0; i < stay_points.size(); ++i) {
    t0 = i == 0 ? stay_points[i].Time() : std::min(t0, stay_points[i].Time());
  }
  std::unordered_map<int64_t, std::vector<int64_t>> batches;
  for (size_t i = 0; i < stay_points.size(); ++i) {
    const int64_t batch = static_cast<int64_t>(
        (stay_points[i].Time() - t0) / options.batch_window_s);
    batches[batch].push_back(static_cast<int64_t>(i));
  }

  // Cluster each batch independently, then merge the accumulated clusters
  // with the same procedure.
  std::vector<PointCluster> accumulated;
  std::vector<int64_t> batch_keys;
  for (const auto& [key, ids] : batches) batch_keys.push_back(key);
  std::sort(batch_keys.begin(), batch_keys.end());
  for (int64_t key : batch_keys) {
    std::vector<PointCluster> singletons;
    for (int64_t index : batches[key]) {
      PointCluster c;
      c.centroid = stay_points[index].location;
      c.weight = 1.0;
      c.members = {index};
      singletons.push_back(std::move(c));
    }
    std::vector<PointCluster> batch_clusters = AgglomerateByDistance(
        std::move(singletons), options.cluster_distance_m);
    accumulated.insert(accumulated.end(),
                       std::make_move_iterator(batch_clusters.begin()),
                       std::make_move_iterator(batch_clusters.end()));
    accumulated =
        AgglomerateByDistance(std::move(accumulated),
                              options.cluster_distance_m);
  }
  return accumulated;
}

CandidateProfile BuildProfile(const PointCluster& cluster,
                              const std::vector<StayPoint>& stay_points) {
  CandidateProfile profile;
  std::unordered_set<int64_t> couriers;
  double duration_sum = 0.0;
  for (int64_t member : cluster.members) {
    const StayPoint& sp = stay_points[member];
    duration_sum += sp.Duration();
    couriers.insert(sp.courier_id);
    const double seconds_in_day = std::fmod(sp.Time(), 86400.0);
    const int hour = std::clamp(static_cast<int>(seconds_in_day / 3600.0), 0,
                                23);
    profile.time_distribution[hour] += 1.0;
  }
  const double n = static_cast<double>(cluster.members.size());
  profile.avg_duration_s = n > 0 ? duration_sum / n : 0.0;
  profile.num_couriers = static_cast<int>(couriers.size());
  if (n > 0) {
    for (double& bin : profile.time_distribution) bin /= n;
  }
  return profile;
}

}  // namespace

CandidateGeneration CandidateGeneration::Build(const sim::World& world,
                                               const Options& options,
                                               ThreadPool* pool) {
  obs::Span span("candidate_generation");
  std::vector<StayPoint> stay_points;
  {
    obs::Span stage("stay_point_extraction");
    stay_points = ExtractStayPoints(world, options, pool);
  }
  obs::MetricsRegistry::Global()
      .GetCounter("pipeline.stay_points_extracted")
      ->Add(static_cast<int64_t>(stay_points.size()));

  std::vector<PointCluster> clusters;
  {
    obs::Span stage("clustering");
    clusters = ClusterStayPoints(stay_points, options);
  }

  obs::Span stage("candidate_index");
  WaybillIndex waybills;
  for (const sim::DeliveryTrip& trip : world.trips) {
    waybills.AddTrip(world, trip);
  }
  CandidateGeneration gen =
      Assemble(std::move(stay_points), clusters,
               static_cast<int64_t>(world.trips.size()), std::move(waybills));
  obs::MetricsRegistry::Global()
      .GetCounter("pipeline.candidates_generated")
      ->Add(static_cast<int64_t>(gen.candidates_.size()));
  return gen;
}

void CandidateGeneration::WaybillIndex::AddTrip(const sim::World& city,
                                                const sim::DeliveryTrip& trip) {
  std::unordered_set<int64_t> trip_buildings;
  for (const sim::Waybill& waybill : trip.waybills) {
    address_trips[waybill.address_id].push_back(
        AddressTripRecord{trip.id, waybill.recorded_delivery_time});
    trip_buildings.insert(city.address(waybill.address_id).building_id);
  }
  for (int64_t building_id : trip_buildings) {
    building_trips[building_id].push_back(trip.id);
  }
}

CandidateGeneration CandidateGeneration::Assemble(
    std::vector<StayPoint> stay_points,
    const std::vector<PointCluster>& clusters, int64_t num_trips,
    WaybillIndex waybills) {
  CandidateGeneration gen;
  gen.num_trips_ = num_trips;
  gen.stay_points_ = std::move(stay_points);

  // Candidates + the stay->candidate assignment.
  std::vector<int64_t> candidate_of_stay(gen.stay_points_.size(), -1);
  gen.candidates_.reserve(clusters.size());
  for (const PointCluster& cluster : clusters) {
    LocationCandidate candidate;
    candidate.id = static_cast<int64_t>(gen.candidates_.size());
    candidate.location = cluster.centroid;
    candidate.num_stay_points = static_cast<int>(cluster.members.size());
    candidate.profile = BuildProfile(cluster, gen.stay_points_);
    for (int64_t member : cluster.members) {
      candidate_of_stay[member] = candidate.id;
    }
    gen.candidates_.push_back(std::move(candidate));
  }

  // Per-trip chronological candidate visits.
  gen.trip_visits_.assign(static_cast<size_t>(num_trips), {});
  for (size_t i = 0; i < gen.stay_points_.size(); ++i) {
    const StayPoint& sp = gen.stay_points_[i];
    CHECK_GE(candidate_of_stay[i], 0);
    gen.trip_visits_[sp.trip_id].push_back(
        TripCandidateVisit{candidate_of_stay[i], sp.Time(), sp.Duration()});
  }
  for (auto& visits : gen.trip_visits_) {
    std::sort(visits.begin(), visits.end(),
              [](const TripCandidateVisit& a, const TripCandidateVisit& b) {
                return a.time < b.time;
              });
  }

  // Candidate -> trips passing through (deduplicated).
  for (int64_t trip_id = 0; trip_id < num_trips; ++trip_id) {
    std::unordered_set<int64_t> seen;
    for (const TripCandidateVisit& visit : gen.trip_visits_[trip_id]) {
      if (seen.insert(visit.candidate_id).second) {
        gen.candidate_trips_[visit.candidate_id].push_back(trip_id);
      }
    }
  }

  gen.address_trips_ = std::move(waybills.address_trips);
  gen.building_trips_ = std::move(waybills.building_trips);
  return gen;
}

const LocationCandidate& CandidateGeneration::candidate(int64_t id) const {
  CHECK(id >= 0 && id < static_cast<int64_t>(candidates_.size()));
  return candidates_[id];
}

const std::vector<AddressTripRecord>& CandidateGeneration::address_trips(
    int64_t address_id) const {
  auto it = address_trips_.find(address_id);
  return it == address_trips_.end() ? kNoTrips : it->second;
}

std::vector<int64_t> CandidateGeneration::Retrieve(int64_t address_id) const {
  std::unordered_set<int64_t> result;
  for (const AddressTripRecord& record : address_trips(address_id)) {
    for (const TripCandidateVisit& visit : trip_visits_[record.trip_id]) {
      // Temporal upper bound: a stay later than the recorded delivery time
      // cannot be the delivery (Section III-C).
      if (visit.time <= record.recorded_delivery_time) {
        result.insert(visit.candidate_id);
      }
    }
  }
  std::vector<int64_t> sorted(result.begin(), result.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

const std::vector<int64_t>& CandidateGeneration::trips_through(
    int64_t candidate_id) const {
  auto it = candidate_trips_.find(candidate_id);
  return it == candidate_trips_.end() ? kNoTripIds : it->second;
}

const std::vector<int64_t>& CandidateGeneration::trips_of_building(
    int64_t building_id) const {
  auto it = building_trips_.find(building_id);
  return it == building_trips_.end() ? kNoTripIds : it->second;
}

std::vector<int64_t> CandidateGeneration::trip_ids_of_address(
    int64_t address_id) const {
  std::vector<int64_t> ids;
  for (const AddressTripRecord& record : address_trips(address_id)) {
    ids.push_back(record.trip_id);
  }
  return ids;
}

}  // namespace dlinfma
}  // namespace dlinf
