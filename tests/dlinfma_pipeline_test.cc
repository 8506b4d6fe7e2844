// Exact-semantics tests of candidate generation and feature extraction on a
// hand-crafted world with known stays, trips and waybills, plus the whole
// train -> infer -> serve path under GPS-level fault injection.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>

#include "apps/location_service.h"
#include "dlinfma/candidate_generation.h"
#include "dlinfma/dlinfma_method.h"
#include "dlinfma/features.h"
#include "dlinfma/inferrer.h"
#include "dlinfma/metrics.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "sim/generator.h"
#include "sim/world.h"

namespace dlinf {
namespace dlinfma {
namespace {

/// Appends GPS samples standing still at `p` from t0 for `duration` seconds
/// (sampled every 10 s, noise-free).
void AppendStay(Trajectory* traj, const Point& p, double t0, double duration) {
  for (double t = t0; t <= t0 + duration; t += 10.0) {
    traj->points.push_back(TrajPoint{p.x, p.y, t});
  }
}

/// Appends a straight-line move ending just before `t_end`.
void AppendTravel(Trajectory* traj, const Point& from, const Point& to,
                  double t0, double t_end) {
  for (double t = t0 + 10.0; t < t_end; t += 10.0) {
    const double frac = (t - t0) / (t_end - t0);
    traj->points.push_back(TrajPoint{from.x + frac * (to.x - from.x),
                                     from.y + frac * (to.y - from.y), t});
  }
}

constexpr Point kLocA{0, 0};
constexpr Point kLocB{300, 0};
constexpr Point kLocC{600, 0};

/// World layout:
///   building 0 (community 0): addresses 0, 1 — true location kLocA.
///   building 1 (community 0): address 2      — true location kLocC.
/// Trips:
///   trip 0 (courier 0): stays A, B, C; delivers a0 (recorded at B's time,
///     i.e. delayed) and a1 (recorded during C, heavily delayed).
///   trip 1 (courier 0): stays A, B; delivers a0 (prompt confirmation).
///   trip 2 (courier 1): stays B, C; delivers a2 (prompt).
sim::World MakeTinyWorld() {
  sim::World world;
  world.name = "tiny";
  world.station = Point{-100, -100};

  sim::Community community;
  community.id = 0;
  community.center = Point{300, 0};
  community.gate = Point{150, -50};
  community.locker = Point{180, -40};
  community.split = sim::Split::kTrain;
  world.communities.push_back(community);

  for (int b = 0; b < 2; ++b) {
    sim::Building building;
    building.id = b;
    building.community_id = 0;
    building.position = b == 0 ? kLocA : kLocC;
    building.reception = building.position;
    world.buildings.push_back(building);
  }

  auto add_address = [&](int64_t building_id, Point truth) {
    sim::Address addr;
    addr.id = static_cast<int64_t>(world.addresses.size());
    addr.building_id = building_id;
    addr.community_id = 0;
    addr.true_delivery_location = truth;
    addr.geocoded_location = truth;
    addr.poi_category = 3;
    addr.split = sim::Split::kTrain;
    world.addresses.push_back(addr);
  };
  add_address(0, kLocA);
  add_address(0, kLocA);
  add_address(1, kLocC);

  sim::Courier c0;
  c0.id = 0;
  sim::Courier c1;
  c1.id = 1;
  world.couriers = {c0, c1};

  // --- Trip 0: A [0,60] -> B [200,260] -> C [400,460]. ---------------------
  {
    sim::DeliveryTrip trip;
    trip.id = 0;
    trip.courier_id = 0;
    trip.start_time = 0;
    trip.end_time = 500;
    trip.trajectory.courier_id = 0;
    AppendStay(&trip.trajectory, kLocA, 0, 60);
    AppendTravel(&trip.trajectory, kLocA, kLocB, 60, 200);
    AppendStay(&trip.trajectory, kLocB, 200, 60);
    AppendTravel(&trip.trajectory, kLocB, kLocC, 260, 400);
    AppendStay(&trip.trajectory, kLocC, 400, 60);
    sim::Waybill w0;
    w0.id = 0;
    w0.address_id = 0;
    w0.actual_delivery_time = 30;
    w0.recorded_delivery_time = 230;  // Delayed: confirmed while at B.
    sim::Waybill w1;
    w1.id = 1;
    w1.address_id = 1;
    w1.actual_delivery_time = 40;
    w1.recorded_delivery_time = 430;  // Heavily delayed: confirmed at C.
    trip.waybills = {w0, w1};
    world.trips.push_back(std::move(trip));
  }
  // --- Trip 1: A [0,60] -> B [200,260]. ------------------------------------
  {
    sim::DeliveryTrip trip;
    trip.id = 1;
    trip.courier_id = 0;
    trip.start_time = 86400;
    trip.end_time = 86700;
    trip.trajectory.courier_id = 0;
    AppendStay(&trip.trajectory, kLocA, 86400, 60);
    AppendTravel(&trip.trajectory, kLocA, kLocB, 86460, 86600);
    AppendStay(&trip.trajectory, kLocB, 86600, 60);
    sim::Waybill w;
    w.id = 2;
    w.address_id = 0;
    w.actual_delivery_time = 86430;
    w.recorded_delivery_time = 86435;  // Prompt.
    trip.waybills = {w};
    world.trips.push_back(std::move(trip));
  }
  // --- Trip 2 (courier 1): B [0,60] -> C [200,260]. ------------------------
  {
    sim::DeliveryTrip trip;
    trip.id = 2;
    trip.courier_id = 1;
    trip.start_time = 172800;
    trip.end_time = 173100;
    trip.trajectory.courier_id = 1;
    AppendStay(&trip.trajectory, kLocB, 172800, 60);
    AppendTravel(&trip.trajectory, kLocB, kLocC, 172860, 173000);
    AppendStay(&trip.trajectory, kLocC, 173000, 60);
    sim::Waybill w;
    w.id = 3;
    w.address_id = 2;
    w.actual_delivery_time = 173030;
    w.recorded_delivery_time = 173040;
    trip.waybills = {w};
    world.trips.push_back(std::move(trip));
  }
  return world;
}

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : world_(MakeTinyWorld()),
        gen_(CandidateGeneration::Build(world_, {})) {}

  int64_t CandidateAt(const Point& p) const {
    for (const LocationCandidate& c : gen_.candidates()) {
      if (Distance(c.location, p) < 1.0) return c.id;
    }
    return -1;
  }

  sim::World world_;
  CandidateGeneration gen_;
};

TEST_F(PipelineTest, StayPointsDetectedAtPlannedLocations) {
  // 3 + 2 + 2 stays across the three trips.
  EXPECT_EQ(gen_.stay_points().size(), 7u);
  EXPECT_GE(CandidateAt(kLocA), 0);
  EXPECT_GE(CandidateAt(kLocB), 0);
  EXPECT_GE(CandidateAt(kLocC), 0);
  EXPECT_EQ(gen_.candidates().size(), 3u);
}

TEST_F(PipelineTest, TripVisitsAreChronological) {
  ASSERT_EQ(gen_.trip_visits().size(), 3u);
  EXPECT_EQ(gen_.trip_visits()[0].size(), 3u);
  EXPECT_EQ(gen_.trip_visits()[1].size(), 2u);
  EXPECT_EQ(gen_.trip_visits()[0][0].candidate_id, CandidateAt(kLocA));
  EXPECT_EQ(gen_.trip_visits()[0][2].candidate_id, CandidateAt(kLocC));
  EXPECT_NEAR(gen_.trip_visits()[0][0].time, 30.0, 1.0);
  EXPECT_NEAR(gen_.trip_visits()[0][0].duration, 60.0, 1.0);
}

TEST_F(PipelineTest, RetrievalRespectsRecordedTimeUpperBound) {
  // Address 0: trip 0 (t_d = 230: stays A@30, B@230 qualify; C@430 does not)
  // union trip 1 (t_d = 86435: A@86430 qualifies, B@86630 does not).
  std::vector<int64_t> got = gen_.Retrieve(0);
  std::vector<int64_t> want = {CandidateAt(kLocA), CandidateAt(kLocB)};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);

  // Address 1: trip 0 only, t_d = 430 -> A and B qualify (C@430 == t_d).
  got = gen_.Retrieve(1);
  EXPECT_EQ(got.size(), 3u);  // C's stay time (430) == recorded time: kept.

  // Address 2: trip 2, t_d = 173040 -> B@172830 and C@173030.
  got = gen_.Retrieve(2);
  want = {CandidateAt(kLocB), CandidateAt(kLocC)};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST_F(PipelineTest, ProfilesAggregateStays) {
  const LocationCandidate& b = gen_.candidate(CandidateAt(kLocB));
  EXPECT_EQ(b.num_stay_points, 3);  // Trips 0, 1, 2.
  EXPECT_EQ(b.profile.num_couriers, 2);
  EXPECT_NEAR(b.profile.avg_duration_s, 60.0, 1.0);
  // All stays fall in hour 0 of their day.
  EXPECT_NEAR(b.profile.time_distribution[0], 1.0, 1e-9);

  const LocationCandidate& a = gen_.candidate(CandidateAt(kLocA));
  EXPECT_EQ(a.profile.num_couriers, 1);
}

TEST_F(PipelineTest, AddressTripsAndBuildingTrips) {
  EXPECT_EQ(gen_.address_trips(0).size(), 2u);
  EXPECT_EQ(gen_.address_trips(1).size(), 1u);
  EXPECT_EQ(gen_.address_trips(99).size(), 0u);
  EXPECT_EQ(gen_.trip_ids_of_address(0),
            (std::vector<int64_t>{0, 1}));
  // Building 0 hosts addresses 0 and 1 -> trips 0 and 1.
  EXPECT_EQ(gen_.trips_of_building(0).size(), 2u);
  EXPECT_EQ(gen_.trips_of_building(1).size(), 1u);
}

TEST_F(PipelineTest, TripCoverageMatchesEquation1) {
  FeatureExtractor extractor(&world_, &gen_);
  const AddressSample s = extractor.Extract(0, /*with_label=*/true);
  ASSERT_EQ(s.candidate_ids.size(), 2u);
  // Both A and B are passed by both of address 0's trips -> TC = 1 for both.
  for (const CandidateFeatureVector& f : s.features) {
    EXPECT_DOUBLE_EQ(f.trip_coverage, 1.0);
  }
}

TEST_F(PipelineTest, LocationCommonalityMatchesEquation2) {
  FeatureExtractor extractor(&world_, &gen_);
  const AddressSample s = extractor.Extract(0, /*with_label=*/true);
  // Trips not involving building 0: only trip 2. Trip 2 passes B and C but
  // not A -> LC(A) = 0/1, LC(B) = 1/1.
  const int index_a = s.candidate_ids[0] == CandidateAt(kLocA) ? 0 : 1;
  const int index_b = 1 - index_a;
  EXPECT_DOUBLE_EQ(s.features[index_a].location_commonality, 0.0);
  EXPECT_DOUBLE_EQ(s.features[index_b].location_commonality, 1.0);
}

TEST_F(PipelineTest, AddressBasedLcAblationDiffers) {
  FeatureConfig config;
  config.lc_address_based = true;
  FeatureExtractor extractor(&world_, &gen_, config);
  const AddressSample s = extractor.Extract(1, /*with_label=*/true);
  // Address 1 occurs only in trip 0; excluded = {0}; denominator = 2.
  // B is passed by trips 1 and 2 -> LC_addr(B) = 1.0.
  for (size_t i = 0; i < s.candidate_ids.size(); ++i) {
    if (s.candidate_ids[i] == CandidateAt(kLocB)) {
      EXPECT_DOUBLE_EQ(s.features[i].location_commonality, 1.0);
    }
  }
}

TEST_F(PipelineTest, LabelIsNearestCandidateToGroundTruth) {
  FeatureExtractor extractor(&world_, &gen_);
  const AddressSample s0 = extractor.Extract(0, /*with_label=*/true);
  EXPECT_EQ(s0.candidate_ids[s0.label], CandidateAt(kLocA));
  const AddressSample s2 = extractor.Extract(2, /*with_label=*/true);
  EXPECT_EQ(s2.candidate_ids[s2.label], CandidateAt(kLocC));
  const AddressSample unlabeled = extractor.Extract(0, /*with_label=*/false);
  EXPECT_EQ(unlabeled.label, -1);
}

TEST_F(PipelineTest, DistanceFeatureLogCompressed) {
  FeatureExtractor extractor(&world_, &gen_);
  const AddressSample s = extractor.Extract(0, /*with_label=*/true);
  for (size_t i = 0; i < s.candidate_ids.size(); ++i) {
    if (s.candidate_ids[i] == CandidateAt(kLocB)) {
      // log1p(300 m / 10).
      EXPECT_NEAR(s.features[i].distance, std::log1p(30.0), 0.05);
    }
  }
}

TEST_F(PipelineTest, FeatureAblationsZeroTheRightColumns) {
  FeatureConfig config;
  config.use_trip_coverage = false;
  config.use_profile = false;
  FeatureExtractor extractor(&world_, &gen_, config);
  const AddressSample s = extractor.Extract(0, /*with_label=*/true);
  bool any_distance = false;
  for (const CandidateFeatureVector& f : s.features) {
    EXPECT_DOUBLE_EQ(f.trip_coverage, 0.0);
    EXPECT_DOUBLE_EQ(f.avg_duration, 0.0);
    EXPECT_DOUBLE_EQ(f.num_couriers, 0.0);
    if (f.distance != 0.0) any_distance = true;
  }
  EXPECT_TRUE(any_distance);  // Distance feature still on.
}

TEST_F(PipelineTest, FlattenFeaturesLayout) {
  FeatureExtractor extractor(&world_, &gen_);
  const AddressSample s = extractor.Extract(0, /*with_label=*/true);
  const ml::FeatureRow row = FlattenFeatures(s, 0);
  ASSERT_EQ(static_cast<int>(row.size()), kFlatFeatureWidth);
  EXPECT_DOUBLE_EQ(row[0], s.features[0].trip_coverage);
  EXPECT_DOUBLE_EQ(row[kFlatFeatureWidth - 1], 3.0);  // POI category.
}

TEST_F(PipelineTest, BatchWindowDoesNotChangeWellSeparatedPool) {
  // The tiny world's trips span three days; a small batch window forces the
  // incremental (bi-weekly-style) path: per-batch clustering + merge. For
  // well-separated locations the final pool must be identical to the
  // one-shot pool.
  CandidateGeneration::Options small_window;
  small_window.batch_window_s = 12.0 * 3600.0;  // Half-day batches.
  const CandidateGeneration incremental =
      CandidateGeneration::Build(world_, small_window);
  ASSERT_EQ(incremental.candidates().size(), gen_.candidates().size());
  for (const LocationCandidate& c : incremental.candidates()) {
    double best = 1e18;
    for (const LocationCandidate& d : gen_.candidates()) {
      best = std::min(best, Distance(c.location, d.location));
    }
    EXPECT_LT(best, 1e-6);
  }
}

TEST_F(PipelineTest, GridMergeVariantProducesCandidates) {
  CandidateGeneration::Options options;
  options.use_grid_merge = true;
  const CandidateGeneration grid_gen =
      CandidateGeneration::Build(world_, options);
  EXPECT_GE(grid_gen.candidates().size(), 3u);
}

/// The previous hash-set feature extraction, kept verbatim as the oracle:
/// TC and LC probe `unordered_set`s of the address's own and excluded
/// trips, and ExtractAll retrieves every address's candidates twice.
AddressSample OracleExtract(const sim::World& world,
                            const CandidateGeneration& gen,
                            const FeatureConfig& config, int64_t address_id) {
  const sim::Address& addr = world.address(address_id);
  AddressSample sample;
  sample.address_id = address_id;
  sample.candidate_ids = gen.Retrieve(address_id);
  const std::vector<AddressTripRecord>& records =
      gen.address_trips(address_id);
  const double num_trips_j = static_cast<double>(records.size());
  std::unordered_set<int64_t> excluded_trips;
  if (config.lc_address_based) {
    for (const AddressTripRecord& r : records) excluded_trips.insert(r.trip_id);
  } else {
    for (int64_t trip_id : gen.trips_of_building(addr.building_id)) {
      excluded_trips.insert(trip_id);
    }
  }
  const double lc_denominator = static_cast<double>(gen.num_trips()) -
                                static_cast<double>(excluded_trips.size());
  std::unordered_set<int64_t> own_trips;
  for (const AddressTripRecord& r : records) own_trips.insert(r.trip_id);
  for (int64_t candidate_id : sample.candidate_ids) {
    const LocationCandidate& candidate = gen.candidate(candidate_id);
    const std::vector<int64_t>& through = gen.trips_through(candidate_id);
    CandidateFeatureVector f;
    if (config.use_trip_coverage && num_trips_j > 0) {
      double covered = 0.0;
      for (int64_t trip_id : through) {
        if (own_trips.count(trip_id) > 0) covered += 1.0;
      }
      f.trip_coverage = covered / num_trips_j;
    }
    if (config.use_location_commonality && lc_denominator > 0) {
      double outside = 0.0;
      for (int64_t trip_id : through) {
        if (excluded_trips.count(trip_id) == 0) outside += 1.0;
      }
      f.location_commonality = outside / lc_denominator;
    }
    if (config.use_distance) {
      f.distance = std::log1p(
          Distance(candidate.location, addr.geocoded_location) / 10.0);
    }
    if (config.use_profile) {
      f.avg_duration = candidate.profile.avg_duration_s / 60.0;
      f.num_couriers = static_cast<double>(candidate.profile.num_couriers);
      f.time_distribution = candidate.profile.time_distribution;
    }
    sample.features.push_back(f);
  }
  sample.address.log_num_deliveries = std::log1p(num_trips_j);
  sample.address.poi_category = addr.poi_category;
  int best = 0;
  double best_d = Distance(gen.candidate(sample.candidate_ids[0]).location,
                           addr.true_delivery_location);
  for (size_t i = 1; i < sample.candidate_ids.size(); ++i) {
    const double d = Distance(gen.candidate(sample.candidate_ids[i]).location,
                              addr.true_delivery_location);
    if (d < best_d) {
      best_d = d;
      best = static_cast<int>(i);
    }
  }
  sample.label = best;
  return sample;
}

std::vector<AddressSample> OracleExtractAll(const sim::World& world,
                                            const CandidateGeneration& gen,
                                            const FeatureConfig& config,
                                            const std::vector<int64_t>& ids) {
  std::vector<AddressSample> samples;
  for (int64_t id : ids) {
    if (gen.Retrieve(id).empty()) continue;
    samples.push_back(OracleExtract(world, gen, config, id));
  }
  return samples;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSamplesBitEqual(const std::vector<AddressSample>& got,
                           const std::vector<AddressSample>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "address " << want[i].address_id);
    ASSERT_EQ(got[i].address_id, want[i].address_id);
    EXPECT_EQ(got[i].candidate_ids, want[i].candidate_ids);
    EXPECT_EQ(got[i].label, want[i].label);
    EXPECT_TRUE(BitEqual(got[i].address.log_num_deliveries,
                         want[i].address.log_num_deliveries));
    EXPECT_EQ(got[i].address.poi_category, want[i].address.poi_category);
    ASSERT_EQ(got[i].features.size(), want[i].features.size());
    for (size_t j = 0; j < got[i].features.size(); ++j) {
      const CandidateFeatureVector& g = got[i].features[j];
      const CandidateFeatureVector& w = want[i].features[j];
      EXPECT_TRUE(BitEqual(g.trip_coverage, w.trip_coverage)) << j;
      EXPECT_TRUE(BitEqual(g.location_commonality, w.location_commonality))
          << j;
      EXPECT_TRUE(BitEqual(g.distance, w.distance)) << j;
      EXPECT_TRUE(BitEqual(g.avg_duration, w.avg_duration)) << j;
      EXPECT_TRUE(BitEqual(g.num_couriers, w.num_couriers)) << j;
      for (size_t h = 0; h < g.time_distribution.size(); ++h) {
        EXPECT_TRUE(BitEqual(g.time_distribution[h], w.time_distribution[h]))
            << j << " hour " << h;
      }
    }
  }
}

TEST(FeatureOracleTest, ExtractSamplesMatchesHashSetOracle) {
  sim::SimConfig sim_config = sim::SynDowBJConfig();
  sim_config.num_days = 6;
  sim_config.num_communities = 6;
  const sim::World world = sim::GenerateWorld(sim_config);
  const Dataset data = BuildDataset(world, {});
  FeatureConfig lc_addr;
  lc_addr.lc_address_based = true;
  FeatureConfig no_tc;
  no_tc.use_trip_coverage = false;
  const struct {
    const char* name;
    FeatureConfig config;
  } rows[] = {{"default", {}}, {"lc_address_based", lc_addr},
              {"use_trip_coverage=false", no_tc}};
  for (const auto& row : rows) {
    SCOPED_TRACE(row.name);
    const SampleSet got = ExtractSamples(data, row.config);
    ASSERT_GT(got.train.size(), 20u);
    ExpectSamplesBitEqual(
        got.train, OracleExtractAll(world, *data.gen, row.config,
                                    data.train_ids));
    ExpectSamplesBitEqual(
        got.val, OracleExtractAll(world, *data.gen, row.config, data.val_ids));
    ExpectSamplesBitEqual(got.test, OracleExtractAll(world, *data.gen,
                                                     row.config, data.test_ids));
  }
}

// Train -> infer -> serve with every GPS-level fault armed (dropouts,
// duplicates, out-of-order points, NaN coordinates, clock skew, whole
// trajectories dropped): inference stays finite and the healthy service
// answers every query undegraded.
TEST(DirtyGpsPipelineTest, TrainInferServeStayFiniteUnderGpsFaults) {
  constexpr const char* kPoints[] = {"traj.gps.dropout",
                                     "traj.gps.duplicate",
                                     "traj.gps.out_of_order",
                                     "traj.gps.nan",
                                     "traj.gps.clock_skew",
                                     "sim.trip.drop_trajectory"};
  fault::FaultPlan plan;
  plan.FailWithProbability("traj.gps.dropout", 0.05)
      .FailWithProbability("traj.gps.duplicate", 0.02)
      .FailWithProbability("traj.gps.out_of_order", 0.02)
      .FailWithProbability("traj.gps.nan", 0.01)
      .Inject({.point = "traj.gps.clock_skew",
               .probability = 0.005,
               .param = 600})
      .FailWithProbability("sim.trip.drop_trajectory", 0.05);
  fault::ScopedFaultPlan armed(plan, /*seed=*/20240807);

  sim::SimConfig config = sim::SynDowBJConfig();
  config.num_days = 3;
  config.num_communities = 6;
  const sim::World world = sim::GenerateWorld(config);
  const Dataset data = BuildDataset(world, {});
  const SampleSet samples = ExtractSamples(data, {});
  TrainConfig train_config;
  train_config.max_epochs = 2;
  train_config.early_stop_patience = 2;
  DlInfMaMethod method("DLInfMA", LocMatcherConfig{}, train_config);
  method.Fit(data, samples);

  const std::vector<Point> inferred = method.InferAll(data, samples.test);
  ASSERT_EQ(inferred.size(), samples.test.size());
  for (const Point& p : inferred) {
    ASSERT_TRUE(std::isfinite(p.x) && std::isfinite(p.y));
  }
  for (const char* point : kPoints) {
    EXPECT_GT(fault::HitCount(point), 0) << point;
  }
  EXPECT_GT(fault::TotalFires(), 0);

  std::vector<AddressSample> all = samples.train;
  all.insert(all.end(), samples.test.begin(), samples.test.end());
  ASSERT_FALSE(all.empty());
  const apps::DeliveryLocationService service =
      apps::DeliveryLocationService::BuildFromInferrer(world, data, all,
                                                       &method);
  for (size_t i = 0; i < std::min<size_t>(50, all.size()); ++i) {
    const apps::DeliveryLocationService::Answer answer =
        service.Query(all[i].address_id);
    EXPECT_TRUE(std::isfinite(answer.location.x) &&
                std::isfinite(answer.location.y))
        << "address " << all[i].address_id;
    EXPECT_FALSE(answer.degraded) << "address " << all[i].address_id;
  }
}

TEST(MetricsTest, ComputesMaeP95Beta) {
  // Errors: 10, 30, 100 meters.
  const std::vector<Point> predicted = {{10, 0}, {0, 30}, {100, 0}};
  const std::vector<Point> truth = {{0, 0}, {0, 0}, {0, 0}};
  const EvalMetrics m = ComputeMetrics(predicted, truth, 50.0);
  EXPECT_NEAR(m.mae_m, (10 + 30 + 100) / 3.0, 1e-9);
  EXPECT_NEAR(m.beta50_pct, 200.0 / 3.0, 1e-9);
  EXPECT_NEAR(m.p95_m, 93.0, 1e-9);  // Interpolated 95th percentile.
  EXPECT_EQ(m.num_samples, 3);
  EXPECT_FALSE(m.ToString().empty());
}

}  // namespace
}  // namespace dlinfma
}  // namespace dlinf
