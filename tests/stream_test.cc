// Property-style equivalence suite for the streaming ingestion layer
// (src/stream): the noise filter and stay-point detector must be
// *bit-identical* to literal reference implementations of the batch
// algorithms, whether fed a whole trajectory or one point at a time —
// across >= 1000 randomized trajectories, a full (D_max, T_min) sweep, and
// GPS corruption — and the incremental candidate index must uphold the
// batch clustering invariants and replay-consistency of its snapshots.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/random.h"
#include "dlinfma/candidate_generation.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "random_trajectory.h"
#include "sim/generator.h"
#include "stream/candidate_updater.h"
#include "stream/stream_pipeline.h"
#include "traj/corruption.h"
#include "traj/noise_filter.h"
#include "traj/stay_point.h"

namespace dlinf {
namespace {

using testing_support::MakeRandomTrajectory;

// Exact float-bit equality: NaN-proof and -0.0-strict, unlike operator==.
bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool BitEqual(const StayPoint& a, const StayPoint& b) {
  return BitEqual(a.location.x, b.location.x) &&
         BitEqual(a.location.y, b.location.y) &&
         BitEqual(a.start_time, b.start_time) &&
         BitEqual(a.end_time, b.end_time) && a.courier_id == b.courier_id &&
         a.trip_id == b.trip_id;
}

::testing::AssertionResult StaysBitIdentical(
    const std::vector<StayPoint>& expected,
    const std::vector<StayPoint>& actual) {
  if (expected.size() != actual.size()) {
    return ::testing::AssertionFailure()
           << "stay counts differ: expected " << expected.size() << ", got "
           << actual.size();
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (!BitEqual(expected[i], actual[i])) {
      return ::testing::AssertionFailure()
             << "stay " << i << " differs: expected ("
             << expected[i].location.x << "," << expected[i].location.y
             << ") [" << expected[i].start_time << "," << expected[i].end_time
             << "] vs (" << actual[i].location.x << "," << actual[i].location.y
             << ") [" << actual[i].start_time << "," << actual[i].end_time
             << "]";
    }
  }
  return ::testing::AssertionSuccess();
}

// --- Exact-output references ------------------------------------------------
//
// Literal batch formulations of the filter pass [8] and the anchor scan of
// Li et al. [7], kept here as the specification the point-at-a-time
// NoiseFilter and StayPointDetector must reproduce bit for bit.

Trajectory ReferenceFilterNoise(const Trajectory& input,
                                const NoiseFilterOptions& options) {
  Trajectory output;
  output.courier_id = input.courier_id;
  int consecutive_drops = 0;
  for (const TrajPoint& p : input.points) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.t)) {
      continue;
    }
    if (output.points.empty()) {
      output.points.push_back(p);
      continue;
    }
    const TrajPoint& prev = output.points.back();
    const double dt = p.t - prev.t;
    if (dt <= 0) continue;  // Out-of-order or duplicate timestamp.
    const double speed = Distance(p.position(), prev.position()) / dt;
    if (speed > options.max_speed_mps &&
        consecutive_drops < options.max_consecutive_drops) {
      ++consecutive_drops;
      continue;
    }
    consecutive_drops = 0;
    output.points.push_back(p);
  }
  return output;
}

StayPoint ReferenceMakeStayPoint(const Trajectory& trajectory, size_t begin,
                                 size_t end) {
  // Centroid and time span over points [begin, end).
  double sx = 0.0;
  double sy = 0.0;
  for (size_t k = begin; k < end; ++k) {
    sx += trajectory.points[k].x;
    sy += trajectory.points[k].y;
  }
  const double n = static_cast<double>(end - begin);
  StayPoint sp;
  sp.location = Point{sx / n, sy / n};
  sp.start_time = trajectory.points[begin].t;
  sp.end_time = trajectory.points[end - 1].t;
  sp.courier_id = trajectory.courier_id;
  return sp;
}

std::vector<StayPoint> ReferenceDetectStayPoints(
    const Trajectory& trajectory, const StayPointOptions& options) {
  std::vector<StayPoint> stays;
  const std::vector<TrajPoint>& pts = trajectory.points;
  const size_t n = pts.size();
  size_t i = 0;
  while (i < n) {
    size_t j = i + 1;
    while (j < n && Distance(pts[i].position(), pts[j].position()) <=
                        options.distance_threshold_m) {
      ++j;
    }
    // Window is [i, j): all points within D_max of the anchor p_i.
    if (pts[j - 1].t - pts[i].t >= options.time_threshold_s) {
      stays.push_back(ReferenceMakeStayPoint(trajectory, i, j));
      i = j;  // Restart after the stay, per [7].
    } else {
      ++i;
    }
  }
  return stays;
}

std::vector<StayPoint> DetectPointAtATime(const Trajectory& traj,
                                          const StayPointOptions& options) {
  StayPointDetector detector(options, traj.courier_id);
  std::vector<StayPoint> stays;
  for (const TrajPoint& p : traj.points) detector.Push(p, &stays);
  detector.Flush(&stays);
  return stays;
}

// Both feeding modes — the whole trajectory (DetectStayPoints) and one
// point at a time (Push…Flush) — against the reference scan.
::testing::AssertionResult BothModesMatchReference(
    const Trajectory& traj, const StayPointOptions& options,
    size_t* num_stays = nullptr) {
  const std::vector<StayPoint> expected =
      ReferenceDetectStayPoints(traj, options);
  if (num_stays != nullptr) *num_stays = expected.size();
  ::testing::AssertionResult whole =
      StaysBitIdentical(expected, DetectStayPoints(traj, options));
  if (!whole) return whole << " (whole trajectory)";
  ::testing::AssertionResult streamed =
      StaysBitIdentical(expected, DetectPointAtATime(traj, options));
  if (!streamed) return streamed << " (point at a time)";
  return ::testing::AssertionSuccess();
}

// The sweep of detector options each randomized trajectory is checked
// under, mirroring the batch property suite's (D_max, T_min) grid.
StayPointOptions SweepOptions(int index) {
  static constexpr double kDistances[] = {15.0, 20.0, 30.0, 50.0};
  static constexpr double kTimes[] = {30.0, 60.0, 90.0};
  StayPointOptions options;
  options.distance_threshold_m = kDistances[index % 4];
  options.time_threshold_s = kTimes[(index / 4) % 3];
  return options;
}

// --- Detector vs reference: >= 1000 randomized replays ---------------------

TEST(StreamingStayPointTest, BitIdenticalToBatchOnThousandTrajectories) {
  constexpr int kTrajectories = 1008;  // 84 per (D_max, T_min) combination.
  int64_t total_stays = 0;
  for (int seed = 0; seed < kTrajectories; ++seed) {
    const StayPointOptions options = SweepOptions(seed);
    Rng rng(static_cast<uint64_t>(seed) + 1);
    testing_support::RandomTrajectoryOptions traj_options;
    traj_options.courier_id = seed % 7;
    const Trajectory traj = MakeRandomTrajectory(&rng, traj_options);

    size_t stays = 0;
    ASSERT_TRUE(BothModesMatchReference(traj, options, &stays))
        << "seed " << seed << ", D=" << options.distance_threshold_m
        << ", T=" << options.time_threshold_s;
    total_stays += static_cast<int64_t>(stays);
  }
  // The sweep must actually exercise emissions, not trivially agree on
  // empty outputs.
  EXPECT_GT(total_stays, kTrajectories);
}

// Degenerate shapes the random sweep may miss: empty input, a single
// point, an all-dwell track (flush emits the tail), and a pure move (no
// stay at all).
TEST(StreamingStayPointTest, BitIdenticalOnDegenerateShapes) {
  const StayPointOptions options;
  std::vector<Trajectory> shapes;

  shapes.emplace_back();  // Empty.

  Trajectory single;
  single.points.push_back({3.0, 4.0, 100.0});
  shapes.push_back(single);

  Trajectory dwell;  // One long dwell: only Flush can finalize it.
  for (int i = 0; i < 50; ++i) {
    dwell.points.push_back({1.0 + 0.01 * i, 2.0, 10.0 * i});
  }
  shapes.push_back(dwell);

  Trajectory move;  // Steps larger than D_max: nothing ever accumulates.
  for (int i = 0; i < 50; ++i) {
    move.points.push_back({40.0 * i, 0.0, 10.0 * i});
  }
  shapes.push_back(move);

  for (size_t i = 0; i < shapes.size(); ++i) {
    shapes[i].courier_id = static_cast<int64_t>(i);
    EXPECT_TRUE(BothModesMatchReference(shapes[i], options)) << "shape " << i;
  }
}

// --- Equivalence under GPS corruption --------------------------------------

// The full cleaning chain (noise filter -> detector) over corrupted tracks
// must match the reference chain bit-for-bit, both as whole-trajectory
// calls and streamed point-at-a-time: the faults produce NaNs, duplicates,
// out-of-order and clock-skewed samples, exercising every filter branch.
TEST(StreamingStayPointTest, BitIdenticalUnderGpsFaults) {
  constexpr int kTrajectories = 250;
  const NoiseFilterOptions filter_options;
  int64_t total_stays = 0;
  int64_t total_dropped = 0;
  for (int seed = 0; seed < kTrajectories; ++seed) {
    const StayPointOptions options = SweepOptions(seed);
    Rng rng(static_cast<uint64_t>(seed) + 10007);
    const Trajectory clean = MakeRandomTrajectory(&rng);

    Trajectory corrupted;
    {
      fault::FaultPlan plan;
      plan.FailWithProbability("traj.gps.dropout", 0.05)
          .FailWithProbability("traj.gps.duplicate", 0.05)
          .FailWithProbability("traj.gps.out_of_order", 0.03)
          .FailWithProbability("traj.gps.nan", 0.02)
          .Inject({.point = "traj.gps.clock_skew",
                   .probability = 0.01,
                   .param = 600});
      fault::ScopedFaultPlan armed(plan, static_cast<uint64_t>(seed));
      corrupted = traj::ApplyTrajectoryFaults(clean);
    }

    // Reference chain.
    const Trajectory reference_cleaned =
        ReferenceFilterNoise(corrupted, filter_options);
    const std::vector<StayPoint> expected =
        ReferenceDetectStayPoints(reference_cleaned, options);
    total_dropped +=
        static_cast<int64_t>(corrupted.size() - reference_cleaned.size());

    // Whole-trajectory chain.
    const Trajectory cleaned = FilterNoise(corrupted, filter_options);
    ASSERT_TRUE(
        StaysBitIdentical(expected, DetectStayPoints(cleaned, options)))
        << "seed " << seed << " (whole trajectory)";

    // Point-at-a-time chain over the exact corrupted arrival order.
    NoiseFilter filter(filter_options);
    StayPointDetector detector(options, corrupted.courier_id);
    std::vector<StayPoint> streamed;
    for (const TrajPoint& p : corrupted.points) {
      if (filter.Push(p)) detector.Push(p, &streamed);
    }
    detector.Flush(&streamed);
    ASSERT_TRUE(StaysBitIdentical(expected, streamed))
        << "seed " << seed << " (point at a time)";
    total_stays += static_cast<int64_t>(expected.size());
  }
  EXPECT_GT(total_stays, 0);
  EXPECT_GT(total_dropped, 0) << "corruption never exercised the filter";
}

// The filter alone must keep exactly the reference filter's subsequence
// (same points, same order) on corrupted input, both through FilterNoise and
// pushed point at a time.
TEST(NoiseFilterStreamTest, KeepsExactlyTheBatchSubsequence) {
  for (int seed = 0; seed < 100; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) + 77);
    const Trajectory clean = MakeRandomTrajectory(&rng);
    Trajectory corrupted;
    {
      fault::FaultPlan plan;
      plan.FailWithProbability("traj.gps.nan", 0.05)
          .FailWithProbability("traj.gps.duplicate", 0.05)
          .FailWithProbability("traj.gps.out_of_order", 0.05);
      fault::ScopedFaultPlan armed(plan, static_cast<uint64_t>(seed) + 77);
      corrupted = traj::ApplyTrajectoryFaults(clean);
    }

    const Trajectory expected = ReferenceFilterNoise(corrupted, {});
    NoiseFilter filter;
    std::vector<TrajPoint> streamed;
    for (const TrajPoint& p : corrupted.points) {
      if (filter.Push(p)) streamed.push_back(p);
    }
    const Trajectory whole = FilterNoise(corrupted, {});
    ASSERT_EQ(expected.courier_id, whole.courier_id) << "seed " << seed;
    const std::vector<TrajPoint>* both[] = {&whole.points, &streamed};
    for (const std::vector<TrajPoint>* kept : both) {
      ASSERT_EQ(expected.points.size(), kept->size()) << "seed " << seed;
      for (size_t i = 0; i < kept->size(); ++i) {
        ASSERT_TRUE(BitEqual(expected.points[i].x, (*kept)[i].x) &&
                    BitEqual(expected.points[i].y, (*kept)[i].y) &&
                    BitEqual(expected.points[i].t, (*kept)[i].t))
            << "seed " << seed << ", point " << i;
      }
    }
  }
}

// --- Bounded memory ---------------------------------------------------------

TEST(StreamingStayPointTest, BufferBoundedByDwellNotTrajectoryLength) {
  const StayPointOptions options;  // D = 20 m.

  // Pure motion with 40 m steps: the window never holds more than the
  // anchor and its breaker, regardless of trajectory length.
  StayPointDetector moving(options, 1);
  std::vector<StayPoint> out;
  for (int i = 0; i < 20000; ++i) {
    moving.Push({40.0 * i, 0.0, 5.0 * i}, &out);
  }
  EXPECT_TRUE(out.empty());
  EXPECT_LE(moving.max_buffered_points(), 2u);
  moving.Flush(&out);
  EXPECT_EQ(moving.buffered_points(), 0u);

  // Long dwells separated by moves: the high-water mark tracks the dwell
  // size (plus the breaker), not the total point count.
  Rng rng(42);
  testing_support::RandomTrajectoryOptions traj_options;
  traj_options.num_segments = 30;
  const Trajectory traj = MakeRandomTrajectory(&rng, traj_options);
  StayPointDetector detector(options, 1);
  size_t longest_dwell = 0;
  {
    // Upper bound on any dwell window: max points within 240 s (the dwell
    // cap) at the 12 s sample period, plus slack for the move lead-in.
    longest_dwell = 240 / 12 + 8;
  }
  for (const TrajPoint& p : traj.points) detector.Push(p, &out);
  detector.Flush(&out);
  EXPECT_FALSE(out.empty());
  EXPECT_LT(detector.max_buffered_points(), longest_dwell);
  EXPECT_LT(detector.max_buffered_points(), traj.points.size() / 4);
}

// --- Incremental candidate index -------------------------------------------

// Replays randomized stay points (as single-stay trips against an empty
// world) and checks the batch clustering invariants after every insertion
// batch: pairwise centroid separation > D, centroids are the exact mean of
// their members, and membership partitions the input.
TEST(CandidateIndexUpdaterTest, SeparationMeanAndPartitionInvariants) {
  dlinfma::CandidateGeneration::Options options;
  options.cluster_distance_m = 40.0;
  stream::CandidateIndexUpdater updater(options);
  const sim::World empty_world;

  Rng rng(99);
  int64_t total_stays = 0;
  for (int trip_id = 0; trip_id < 40; ++trip_id) {
    std::vector<StayPoint> stays;
    const int n = 1 + static_cast<int>(rng.Uniform(0, 6));
    for (int i = 0; i < n; ++i) {
      StayPoint sp;
      sp.location = {rng.Uniform(0, 600), rng.Uniform(0, 600)};
      sp.start_time = rng.Uniform(0, 86400);
      sp.end_time = sp.start_time + rng.Uniform(30, 300);
      sp.courier_id = trip_id % 5;
      sp.trip_id = trip_id;
      stays.push_back(sp);
    }
    total_stays += n;
    sim::DeliveryTrip trip;
    trip.id = trip_id;
    trip.courier_id = trip_id % 5;
    updater.AddTrip(empty_world, trip, stays);

    const std::vector<Point> centroids = updater.LiveCentroids();
    const std::vector<Point> means = updater.LiveMemberMeans();
    ASSERT_EQ(centroids.size(), means.size());
    ASSERT_EQ(centroids.size(), updater.num_clusters());
    for (size_t i = 0; i < centroids.size(); ++i) {
      for (size_t j = i + 1; j < centroids.size(); ++j) {
        EXPECT_GT(Distance(centroids[i], centroids[j]),
                  options.cluster_distance_m)
            << "separation violated after trip " << trip_id;
      }
      EXPECT_LT(Distance(centroids[i], means[i]), 1e-6)
          << "centroid drifted from member mean after trip " << trip_id;
    }
  }
  EXPECT_EQ(updater.num_stay_points(), static_cast<size_t>(total_stays));

  // Snapshot membership partitions the stays exactly.
  const dlinfma::CandidateGeneration snapshot = updater.Snapshot();
  int64_t assigned = 0;
  for (const dlinfma::LocationCandidate& candidate : snapshot.candidates()) {
    assigned += candidate.num_stay_points;
    EXPECT_GT(candidate.num_stay_points, 0);
  }
  EXPECT_EQ(assigned, total_stays);
}

// --- End-to-end replay: ingestor vs batch pipeline --------------------------

// Replaying a generated world point-at-a-time must leave the ingestor's
// world able to reproduce the *identical* stay-point list under the batch
// pipeline, with identical retrieval records, and a snapshot whose
// candidate pool covers every stay.
TEST(StreamIngestorTest, SnapshotConsistentWithBatchRebuild) {
  sim::SimConfig config = sim::SynDowBJConfig();
  config.num_days = 2;
  config.num_communities = 5;
  const sim::World world = sim::GenerateWorld(config);
  ASSERT_FALSE(world.trips.empty());

  stream::StreamIngestor ingestor(world, {});
  for (const sim::DeliveryTrip& trip : world.trips) {
    ingestor.ReplayTrip(trip);
  }
  ASSERT_EQ(ingestor.num_trips(),
            static_cast<int64_t>(world.trips.size()));
  ASSERT_FALSE(ingestor.trip_open());

  const dlinfma::CandidateGeneration streamed = ingestor.Snapshot();
  const dlinfma::CandidateGeneration batch =
      dlinfma::CandidateGeneration::Build(ingestor.world(), {});

  // Stay points: bit-identical, in the same trip order.
  ASSERT_TRUE(StaysBitIdentical(batch.stay_points(), streamed.stay_points()));
  EXPECT_EQ(batch.num_trips(), streamed.num_trips());

  // Address retrieval records: identical trips and recorded times.
  for (int64_t id : world.DeliveredAddressIds()) {
    const auto& batch_records = batch.address_trips(id);
    const auto& stream_records = streamed.address_trips(id);
    ASSERT_EQ(batch_records.size(), stream_records.size()) << "address " << id;
    for (size_t i = 0; i < batch_records.size(); ++i) {
      EXPECT_EQ(batch_records[i].trip_id, stream_records[i].trip_id);
      EXPECT_TRUE(BitEqual(batch_records[i].recorded_delivery_time,
                           stream_records[i].recorded_delivery_time));
    }
    // Retrieval produces a non-degenerate, sorted, deduplicated candidate
    // set from the streamed snapshot too.
    const std::vector<int64_t> retrieved = streamed.Retrieve(id);
    EXPECT_TRUE(std::is_sorted(retrieved.begin(), retrieved.end()));
    EXPECT_TRUE(std::adjacent_find(retrieved.begin(), retrieved.end()) ==
                retrieved.end());
  }

  // Candidate pools agree in coverage (cluster identity may differ between
  // greedy-online and batch closest-pair order, but both partition the same
  // stays under the same D, so the pools are close in size and every
  // streamed centroid respects the separation invariant).
  ASSERT_FALSE(streamed.candidates().empty());
  int64_t covered = 0;
  for (const dlinfma::LocationCandidate& candidate : streamed.candidates()) {
    covered += candidate.num_stay_points;
  }
  EXPECT_EQ(covered, static_cast<int64_t>(streamed.stay_points().size()));
  for (const auto& visits : streamed.trip_visits()) {
    for (size_t i = 1; i < visits.size(); ++i) {
      EXPECT_LE(visits[i - 1].time, visits[i].time);
    }
  }
}

// A city of well-separated delivery sites: site k sits at (500k, 0) with one
// building holding two addresses. Every stay at a site lies within 3 m of
// it, so each site's stays are far less than D wide and far more than D from
// any other site's: both clusterers find the one-cluster-per-site partition.
// GPS fixes fall on whole seconds, so stay durations are whole numbers and
// their sums do not depend on summation order.
sim::World MakeSeparatedSitesWorld() {
  constexpr int kSites = 6;
  constexpr double kSpacing = 500.0;
  sim::World world;
  world.name = "separated_sites";
  sim::Community community;
  community.id = 0;
  world.communities.push_back(community);
  for (int k = 0; k < kSites; ++k) {
    sim::Building building;
    building.id = k;
    building.community_id = 0;
    building.position = {kSpacing * k, 0.0};
    building.reception = building.position;
    world.buildings.push_back(building);
    for (int unit = 0; unit < 2; ++unit) {
      sim::Address address;
      address.id = static_cast<int64_t>(world.addresses.size());
      address.building_id = k;
      address.community_id = 0;
      address.true_delivery_location = building.position;
      address.geocoded_location = building.position;
      world.addresses.push_back(address);
    }
  }

  // 30 trips over 30 days (three bi-weekly batches), three couriers, each
  // trip dwelling at three to five sites at varying hours of the day.
  Rng rng(2024);
  int64_t next_waybill_id = 0;
  for (int64_t trip_id = 0; trip_id < 30; ++trip_id) {
    sim::DeliveryTrip trip;
    trip.id = trip_id;
    trip.courier_id = trip_id % 3;
    trip.trajectory.courier_id = trip.courier_id;
    double t = 86400.0 * trip_id + 3600.0 * rng.UniformInt(7, 19);
    trip.start_time = t;
    std::vector<int> sites(kSites);
    for (int k = 0; k < kSites; ++k) sites[k] = k;
    rng.Shuffle(&sites);
    sites.resize(static_cast<size_t>(rng.UniformInt(3, 5)));
    Point here{-kSpacing, 0.0};
    for (int site : sites) {
      const Point stop{kSpacing * site + rng.UniformInt(-3, 3),
                       static_cast<double>(rng.UniformInt(-3, 3))};
      // Travel at ~10 m/s with 10 s fixes: every step is far more than the
      // stay-point distance threshold, so no stay forms en route.
      const int steps = static_cast<int>(Distance(here, stop) / 100.0) + 1;
      for (int i = 1; i < steps; ++i) {
        const double f = static_cast<double>(i) / steps;
        t += 10.0;
        trip.trajectory.points.push_back(TrajPoint{
            here.x + f * (stop.x - here.x), here.y + f * (stop.y - here.y), t});
      }
      const double dwell_end = t + 10.0 * rng.UniformInt(6, 24);
      for (t += 10.0; t <= dwell_end; t += 10.0) {
        trip.trajectory.points.push_back(TrajPoint{stop.x, stop.y, t});
      }
      t = dwell_end;
      // Confirmations are sometimes delayed past later stays.
      sim::Waybill waybill;
      waybill.id = next_waybill_id++;
      waybill.address_id = 2 * site + rng.UniformInt(0, 1);
      waybill.actual_delivery_time = dwell_end;
      waybill.recorded_delivery_time = dwell_end + 600.0 * rng.UniformInt(0, 2);
      trip.waybills.push_back(waybill);
      here = stop;
    }
    trip.end_time = t;
    world.trips.push_back(std::move(trip));
  }
  return world;
}

// Where both clusterers find the same partition, the streamed snapshot and
// the batch build come out of the same assembly: per candidate (matched by
// centroid) the same stay count, a bit-equal profile and the same trips;
// per address the same retrieved candidates.
TEST(StreamIngestorTest, SnapshotMatchesBatchBuildOnSeparatedSites) {
  const sim::World world = MakeSeparatedSitesWorld();
  sim::World city = world;
  city.trips.clear();
  stream::StreamIngestor ingestor(city, {});
  for (const sim::DeliveryTrip& trip : world.trips) ingestor.ReplayTrip(trip);

  const dlinfma::CandidateGeneration streamed = ingestor.Snapshot();
  const dlinfma::CandidateGeneration batch =
      dlinfma::CandidateGeneration::Build(ingestor.world(), {});
  ASSERT_TRUE(StaysBitIdentical(batch.stay_points(), streamed.stay_points()));
  ASSERT_EQ(batch.candidates().size(), 6u);
  ASSERT_EQ(streamed.candidates().size(), batch.candidates().size());

  // Batch candidate id -> streamed candidate id, by nearest centroid.
  std::vector<int64_t> to_streamed;
  for (const dlinfma::LocationCandidate& b : batch.candidates()) {
    int64_t match = -1;
    for (const dlinfma::LocationCandidate& s : streamed.candidates()) {
      if (Distance(b.location, s.location) < 1e-6) match = s.id;
    }
    ASSERT_GE(match, 0) << "no streamed candidate at batch candidate " << b.id;
    to_streamed.push_back(match);

    const dlinfma::LocationCandidate& s = streamed.candidate(match);
    EXPECT_EQ(b.num_stay_points, s.num_stay_points);
    EXPECT_TRUE(BitEqual(b.profile.avg_duration_s, s.profile.avg_duration_s));
    EXPECT_EQ(b.profile.num_couriers, s.profile.num_couriers);
    for (size_t h = 0; h < b.profile.time_distribution.size(); ++h) {
      EXPECT_TRUE(BitEqual(b.profile.time_distribution[h],
                           s.profile.time_distribution[h]))
          << "candidate " << b.id << " hour " << h;
    }
    EXPECT_EQ(batch.trips_through(b.id), streamed.trips_through(match));
  }

  for (const sim::Address& address : world.addresses) {
    std::vector<int64_t> expected;
    for (int64_t id : batch.Retrieve(address.id)) {
      expected.push_back(to_streamed[static_cast<size_t>(id)]);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(expected, streamed.Retrieve(address.id))
        << "address " << address.id;
  }
}

// Streamed replay under armed ingest faults must still leave a replayable
// world: a batch rebuild over the ingested (post-fault) trajectories
// reproduces the streamed stay points exactly, because the ingested world
// records what was actually delivered. Every trip is ingested, and the
// point counters account for every drop and duplicate exactly.
TEST(StreamIngestorTest, FaultedIngestStillMatchesBatchOverIngestedWorld) {
  sim::SimConfig config = sim::SynDowBJConfig();
  config.num_days = 2;
  config.num_communities = 4;
  const sim::World world = sim::GenerateWorld(config);

  stream::StreamIngestor ingestor(world, {});
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* points = registry.GetCounter("stream.ingest.points");
  obs::Counter* dropped = registry.GetCounter("stream.ingest.dropped_points");
  obs::Counter* duplicated =
      registry.GetCounter("stream.ingest.duplicated_points");
  const int64_t points_before = points->value();
  const int64_t dropped_before = dropped->value();
  const int64_t duplicated_before = duplicated->value();
  int64_t raw_points = 0;
  {
    fault::FaultPlan plan;
    plan.FailWithProbability("stream.ingest.drop_point", 0.1)
        .FailWithProbability("stream.ingest.duplicate_point", 0.05)
        .Inject({.point = "stream.ingest.latency",
                 .probability = 0.005,
                 .latency_ms = 1.0});
    fault::ScopedFaultPlan armed(plan, 4242);
    for (const sim::DeliveryTrip& trip : world.trips) {
      raw_points += static_cast<int64_t>(trip.trajectory.size());
      ingestor.ReplayTrip(trip);
    }
  }
  const int64_t drops = fault::FireCount("stream.ingest.drop_point");
  const int64_t dups = fault::FireCount("stream.ingest.duplicate_point");
  EXPECT_GT(drops, 0);
  EXPECT_GT(dups, 0);
  EXPECT_GT(fault::FireCount("stream.ingest.latency"), 0);
  EXPECT_EQ(ingestor.num_trips(), static_cast<int64_t>(world.trips.size()));
  EXPECT_EQ(dropped->value() - dropped_before, drops);
  EXPECT_EQ(duplicated->value() - duplicated_before, dups);
  EXPECT_EQ(points->value() - points_before, raw_points - drops + dups);

  const dlinfma::CandidateGeneration streamed = ingestor.Snapshot();
  const dlinfma::CandidateGeneration batch =
      dlinfma::CandidateGeneration::Build(ingestor.world(), {});
  EXPECT_FALSE(streamed.stay_points().empty());
  EXPECT_TRUE(StaysBitIdentical(batch.stay_points(), streamed.stay_points()));
}

}  // namespace
}  // namespace dlinf
