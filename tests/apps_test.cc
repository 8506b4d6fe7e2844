#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include "apps/availability.h"
#include "apps/location_service.h"
#include "apps/route_planner.h"
#include "common/random.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "sim/generator.h"

namespace dlinf {
namespace apps {
namespace {

TEST(RoutePlannerTest, NearestNeighborVisitsAll) {
  const std::vector<Point> stops = {{10, 0}, {5, 0}, {20, 0}};
  const std::vector<int> order = NearestNeighborRoute({0, 0}, stops);
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

TEST(RoutePlannerTest, RouteLengthComputesOpenTour) {
  const std::vector<Point> stops = {{3, 4}, {3, 0}};
  EXPECT_DOUBLE_EQ(RouteLength({0, 0}, stops, {1, 0}), 3.0 + 4.0);
}

TEST(RoutePlannerTest, TwoOptFixesCrossing) {
  // Square corners visited in a crossing order; 2-opt must untangle.
  const std::vector<Point> stops = {{0, 10}, {10, 0}, {10, 10}, {0, 20}};
  std::vector<int> bad = {1, 0, 2, 3};  // Forces zig-zag.
  const std::vector<int> improved = TwoOptImprove({0, 0}, stops, bad);
  EXPECT_LE(RouteLength({0, 0}, stops, improved),
            RouteLength({0, 0}, stops, bad));
}

TEST(RoutePlannerTest, PlanRouteBeatsOrRivalsRandomOrders) {
  Rng rng(3);
  std::vector<Point> stops;
  for (int i = 0; i < 15; ++i) {
    stops.push_back({rng.Uniform(0, 500), rng.Uniform(0, 500)});
  }
  const std::vector<int> planned = PlanRoute({0, 0}, stops);
  const double planned_len = RouteLength({0, 0}, stops, planned);
  std::vector<int> random_order = planned;
  for (int trial = 0; trial < 10; ++trial) {
    rng.Shuffle(&random_order);
    EXPECT_LE(planned_len, RouteLength({0, 0}, stops, random_order) + 1e-9);
  }
}

TEST(RoutePlannerTest, BetterLocationsGiveShorterActualRoutes) {
  // True stops on a line; believed stops = true + noise. More noise ->
  // a worse visiting order -> a longer walk over the true stops.
  Rng rng(4);
  std::vector<Point> true_stops;
  for (int i = 0; i < 12; ++i) {
    true_stops.push_back({i * 100.0, (i % 2) * 50.0});
  }
  double cost_exact = 0.0, cost_noisy = 0.0;
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<Point> noisy;
    for (const Point& p : true_stops) {
      noisy.push_back({p.x + rng.Normal(0, 250), p.y + rng.Normal(0, 250)});
    }
    cost_exact += ActualRouteCost({0, 0}, true_stops, true_stops);
    cost_noisy += ActualRouteCost({0, 0}, noisy, true_stops);
  }
  EXPECT_LT(cost_exact, cost_noisy);
}

TEST(LocationServiceTest, ThreeTierLookup) {
  sim::SimConfig config = sim::SynDowBJConfig();
  config.num_days = 3;
  config.num_communities = 6;
  const sim::World world = sim::GenerateWorld(config);

  // Infer locations for the first half of addresses only.
  std::unordered_map<int64_t, Point> inferred;
  for (size_t i = 0; i < world.addresses.size() / 2; ++i) {
    inferred[world.addresses[i].id] =
        world.addresses[i].true_delivery_location;
  }
  const DeliveryLocationService service =
      DeliveryLocationService::Build(world, inferred);
  EXPECT_EQ(service.address_entries(), inferred.size());
  EXPECT_GT(service.building_entries(), 0u);

  // Tier 1: a known address answers from the address KV.
  const auto known = service.Query(0);
  EXPECT_EQ(known.source, DeliveryLocationService::Source::kAddress);
  EXPECT_EQ(known.location, world.addresses[0].true_delivery_location);

  // Tier 2: an unknown address in a known building answers from the
  // building KV.
  bool checked_building = false;
  for (size_t i = world.addresses.size() / 2; i < world.addresses.size();
       ++i) {
    const sim::Address& addr = world.addresses[i];
    bool building_known = false;
    for (const auto& [id, p] : inferred) {
      if (world.address(id).building_id == addr.building_id) {
        building_known = true;
      }
    }
    if (building_known) {
      const auto answer = service.Query(addr.id);
      EXPECT_EQ(answer.source, DeliveryLocationService::Source::kBuilding);
      checked_building = true;
      break;
    }
  }
  EXPECT_TRUE(checked_building);

  // Tier 3: unknown building falls back to the geocode.
  const auto fallback = service.QueryByBuilding(999999, Point{1, 2});
  EXPECT_EQ(fallback.source, DeliveryLocationService::Source::kGeocode);
  EXPECT_EQ(fallback.location, (Point{1, 2}));
}

TEST(LocationServiceTest, BuildingTierUsesModalLocation) {
  sim::World world;
  sim::Community c;
  c.id = 0;
  world.communities.push_back(c);
  sim::Building b;
  b.id = 0;
  b.community_id = 0;
  world.buildings.push_back(b);
  for (int i = 0; i < 3; ++i) {
    sim::Address a;
    a.id = i;
    a.building_id = 0;
    a.community_id = 0;
    world.addresses.push_back(a);
  }
  // Two addresses share a location, one differs: the shared one is modal.
  std::unordered_map<int64_t, Point> inferred = {
      {0, {0, 0}}, {1, {1, 1}}, {2, {100, 100}}};
  const auto service = DeliveryLocationService::Build(world, inferred);
  const auto answer = service.QueryByBuilding(0, Point{});
  EXPECT_EQ(answer.source, DeliveryLocationService::Source::kBuilding);
  EXPECT_LT(Distance(answer.location, Point{0.5, 0.5}), 2.0);
}

// A minimal world: `addresses_per_building[b]` addresses in building b,
// sequential ids, all in community 0.
sim::World TinyWorld(const std::vector<int>& addresses_per_building) {
  sim::World world;
  sim::Community community;
  community.id = 0;
  world.communities.push_back(community);
  int64_t next_address = 0;
  for (size_t b = 0; b < addresses_per_building.size(); ++b) {
    sim::Building building;
    building.id = static_cast<int64_t>(b);
    building.community_id = 0;
    world.buildings.push_back(building);
    for (int i = 0; i < addresses_per_building[b]; ++i) {
      sim::Address address;
      address.id = next_address++;
      address.building_id = static_cast<int64_t>(b);
      address.community_id = 0;
      address.geocoded_location = Point{1000.0 + 10.0 * address.id, 500.0};
      world.addresses.push_back(address);
    }
  }
  return world;
}

TEST(LocationServiceTest, AnswerSourceCoversAllThreeTiers) {
  // Building 0: address 0 inferred, address 1 not. Building 1: address 2,
  // nothing inferred anywhere in the building.
  const sim::World world = TinyWorld({2, 1});
  const std::unordered_map<int64_t, Point> inferred = {{0, {7, 7}}};
  const auto service = DeliveryLocationService::Build(world, inferred);

  // Tier 1: the address itself was inferred.
  const auto tier1 = service.Query(0);
  EXPECT_EQ(tier1.source, DeliveryLocationService::Source::kAddress);
  EXPECT_EQ(tier1.location, (Point{7, 7}));

  // Tier 2: new address, but a sibling in the same building was inferred.
  const auto tier2 = service.Query(1);
  EXPECT_EQ(tier2.source, DeliveryLocationService::Source::kBuilding);
  EXPECT_EQ(tier2.location, (Point{7, 7}));

  // Tier 3: no history for the address or its building -> geocode.
  const auto tier3 = service.Query(2);
  EXPECT_EQ(tier3.source, DeliveryLocationService::Source::kGeocode);
  EXPECT_EQ(tier3.location, world.address(2).geocoded_location);
}

TEST(LocationServiceTest, BuildingTierTenMeterToleranceEdge) {
  // Two locations exactly 10 m apart count as the same modal location
  // (<= 10 m tolerance), so the pair beats the lone outlier.
  const sim::World world = TinyWorld({3});
  const std::unordered_map<int64_t, Point> inferred = {
      {0, {0, 0}}, {1, {10, 0}}, {2, {50, 50}}};
  const auto service = DeliveryLocationService::Build(world, inferred);
  const auto answer = service.QueryByBuilding(0, Point{});
  EXPECT_EQ(answer.source, DeliveryLocationService::Source::kBuilding);
  // Either member of the 10 m pair is an acceptable mode; the outlier is not.
  EXPECT_TRUE(answer.location == (Point{0, 0}) ||
              answer.location == (Point{10, 0}));
}

TEST(LocationServiceTest, BuildingTierBeyondToleranceSplitsTheMode) {
  // Just over 10 m apart: the two near points no longer pool, so the
  // duplicated far location (two identical votes) wins.
  const sim::World world = TinyWorld({4});
  const std::unordered_map<int64_t, Point> inferred = {
      {0, {0, 0}}, {1, {10.5, 0}}, {2, {50, 50}}, {3, {50, 50}}};
  const auto service = DeliveryLocationService::Build(world, inferred);
  const auto answer = service.QueryByBuilding(0, Point{});
  EXPECT_EQ(answer.source, DeliveryLocationService::Source::kBuilding);
  EXPECT_EQ(answer.location, (Point{50, 50}));
}

TEST(LocationServiceTest, QueryBatchMatchesSequentialQueries) {
  // Batched answers must be exactly N sequential Query() calls, for empty,
  // single, and large batches.
  const sim::World world = TinyWorld({2, 1, 3});
  const std::unordered_map<int64_t, Point> inferred = {{0, {7, 7}},
                                                       {3, {21, 4}}};
  const auto service = DeliveryLocationService::Build(world, inferred);

  for (const size_t batch_size : {size_t{0}, size_t{1}, size_t{1000}}) {
    std::vector<int64_t> ids;
    for (size_t i = 0; i < batch_size; ++i) {
      ids.push_back(static_cast<int64_t>(i % world.addresses.size()));
    }
    const std::vector<DeliveryLocationService::Answer> batched =
        service.QueryBatch(ids);
    ASSERT_EQ(batched.size(), ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      const auto sequential = service.Query(ids[i]);
      EXPECT_EQ(batched[i].source, sequential.source) << "i=" << i;
      EXPECT_EQ(batched[i].location, sequential.location) << "i=" << i;
    }
  }
}

TEST(LocationServiceTest, QueryBatchCountsTierHitsOncePerQuery) {
  const sim::World world = TinyWorld({2, 1});
  const std::unordered_map<int64_t, Point> inferred = {{0, {7, 7}}};
  const auto service = DeliveryLocationService::Build(world, inferred);

  obs::Counter* address_hits =
      obs::MetricsRegistry::Global().GetCounter("service.query.hits.address");
  obs::Counter* building_hits =
      obs::MetricsRegistry::Global().GetCounter("service.query.hits.building");
  obs::Counter* geocode_hits =
      obs::MetricsRegistry::Global().GetCounter("service.query.hits.geocode");
  const int64_t address_before = address_hits->value();
  const int64_t building_before = building_hits->value();
  const int64_t geocode_before = geocode_hits->value();

  // Address 0 -> tier 1, address 1 -> tier 2 (sibling), address 2 -> tier 3.
  service.QueryBatch({0, 0, 1, 2, 2, 2});
  EXPECT_EQ(address_hits->value() - address_before, 2);
  EXPECT_EQ(building_hits->value() - building_before, 1);
  EXPECT_EQ(geocode_hits->value() - geocode_before, 3);
}

// The counters every degradation row checks, in `DegradeCase::deltas` order.
constexpr std::array<const char*, 5> kDegradeCounters = {
    "service.tier.failures.address", "service.tier.failures.building",
    "service.tier.retries", "service.query.fallbacks",
    "service.query.degraded"};

/// One row of the degradation contract (DESIGN.md §8): `plan` is armed
/// while the first `queries` addresses are looked up under `policy`.
/// Queries [0, degraded_first) must answer degraded from `degraded_source`,
/// the rest healthy from the address tier.
struct DegradeCase {
  const char* name;
  fault::FaultPlan plan;
  DeliveryLocationService::DegradePolicy policy;
  int64_t queries;
  int64_t degraded_first;
  DeliveryLocationService::Source degraded_source;
  std::vector<std::pair<const char*, int64_t>> fires;  ///< FireCount per point.
  std::array<int64_t, kDegradeCounters.size()> deltas;
};

TEST(LocationServiceTest, DegradationTableMatchesInjectedFaultsExactly) {
  using Source = DeliveryLocationService::Source;
  sim::SimConfig config = sim::SynDowBJConfig();
  config.num_days = 3;
  config.num_communities = 6;
  const sim::World world = sim::GenerateWorld(config);
  std::unordered_map<int64_t, Point> inferred;
  for (const sim::Address& address : world.addresses) {
    inferred[address.id] = address.true_delivery_location;
  }

  const std::vector<DegradeCase> cases = {
      {"address tier fails 25 times, no retries",
       fault::FaultPlan().FailFirst("service.tier.address.fail", 25),
       {.tier_deadline_ms = 1000.0, .max_retries = 0},
       100, 25, Source::kBuilding,
       {{"service.tier.address.fail", 25}},
       {25, 0, 0, 25, 25}},
      {"both KV tiers down: geocode answers everything",
       fault::FaultPlan()
           .FailAlways("service.tier.address.fail")
           .FailAlways("service.tier.building.fail"),
       {.tier_deadline_ms = 1000.0, .max_retries = 0},
       20, 20, Source::kGeocode,
       {{"service.tier.address.fail", 20},
        {"service.tier.building.fail", 20}},
       {20, 20, 0, 40, 20}},
      {"slow address tier blows its deadline on attempt and retry",
       fault::FaultPlan().AddLatencyMs("service.tier.address.latency", 50.0),
       {.tier_deadline_ms = 5.0, .max_retries = 1, .backoff_ms = 0.5},
       6, 6, Source::kBuilding,
       {{"service.tier.address.latency", 12}},
       {12, 0, 6, 6, 6}},
      {"one retry absorbs a transient failure",
       fault::FaultPlan().FailFirst("service.tier.address.fail", 1),
       {.tier_deadline_ms = 1000.0, .max_retries = 1, .backoff_ms = 0.1},
       5, 0, Source::kAddress,
       {{"service.tier.address.fail", 1}},
       {1, 0, 1, 0, 0}},
  };

  for (const DegradeCase& row : cases) {
    SCOPED_TRACE(row.name);
    ASSERT_LE(row.queries, static_cast<int64_t>(world.addresses.size()));
    DeliveryLocationService service =
        DeliveryLocationService::Build(world, inferred);
    service.set_degrade_policy(row.policy);
    // Expected locations come from the healthy chain, read before arming.
    std::vector<Point> degraded_location;
    for (int64_t i = 0; i < row.degraded_first; ++i) {
      const sim::Address& address = world.addresses[i];
      degraded_location.push_back(
          row.degraded_source == Source::kGeocode
              ? address.geocoded_location
              : service.QueryByBuilding(address.building_id,
                                        address.geocoded_location)
                    .location);
    }
    std::array<int64_t, kDegradeCounters.size()> before;
    for (size_t c = 0; c < kDegradeCounters.size(); ++c) {
      before[c] = obs::MetricsRegistry::Global()
                      .GetCounter(kDegradeCounters[c])
                      ->value();
    }

    {
      fault::ScopedFaultPlan armed(row.plan, /*seed=*/20240807);
      for (int64_t i = 0; i < row.queries; ++i) {
        const int64_t id = world.addresses[i].id;
        const DeliveryLocationService::Answer answer = service.Query(id);
        if (i < row.degraded_first) {
          EXPECT_TRUE(answer.degraded) << "query " << i;
          EXPECT_EQ(answer.source, row.degraded_source) << "query " << i;
          EXPECT_EQ(answer.location, degraded_location[i]) << "query " << i;
        } else {
          EXPECT_FALSE(answer.degraded) << "query " << i;
          EXPECT_EQ(answer.source, Source::kAddress) << "query " << i;
          EXPECT_EQ(answer.location, inferred.at(id)) << "query " << i;
        }
      }
    }

    for (const auto& [point, fires] : row.fires) {
      EXPECT_EQ(fault::FireCount(point), fires) << point;
    }
    for (size_t c = 0; c < kDegradeCounters.size(); ++c) {
      EXPECT_EQ(obs::MetricsRegistry::Global()
                        .GetCounter(kDegradeCounters[c])
                        ->value() -
                    before[c],
                row.deltas[c])
          << kDegradeCounters[c];
    }
  }
}

TEST(AvailabilityTest, ProfileHistogramNormalizes) {
  // Two deliveries Monday 9am (day 0), one Tuesday 14pm (day 1).
  const std::vector<double> times = {9 * 3600.0, 9.5 * 3600.0,
                                     86400.0 + 14 * 3600.0};
  const AvailabilityProfile profile = BuildAvailabilityProfile(times);
  EXPECT_EQ(profile.num_observations, 3);
  EXPECT_NEAR(profile.ProbabilityAt(0, 9), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(profile.ProbabilityAt(1, 14), 1.0 / 3.0, 1e-9);
  double sum = 0;
  for (int d = 0; d < 7; ++d) {
    for (int h = 0; h < 24; ++h) sum += profile.ProbabilityAt(d, h);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(AvailabilityTest, WindowsAboveThreshold) {
  AvailabilityProfile profile;
  profile.histogram[2][9] = 0.3;
  profile.histogram[2][10] = 0.4;
  profile.histogram[2][15] = 0.3;
  const auto windows = profile.WindowsAbove(0.25, 2);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0], (std::pair<int, int>{9, 11}));
  EXPECT_EQ(windows[1], (std::pair<int, int>{15, 16}));
  EXPECT_TRUE(profile.WindowsAbove(0.9, 2).empty());
}

TEST(AvailabilityTest, EstimatedTimesCorrectDelayedConfirmations) {
  // On a delayed dataset, stay-point-based actual-time estimates should be
  // closer to ground truth than the recorded times are.
  sim::SimConfig config = sim::SynDowBJConfig();
  config.num_days = 5;
  config.num_communities = 6;
  config.p_delay = 0.8;
  const sim::World world = sim::GenerateWorld(config);
  const auto gen = dlinfma::CandidateGeneration::Build(world, {});

  double err_estimated = 0.0, err_recorded = 0.0;
  int count = 0;
  for (const sim::DeliveryTrip& trip : world.trips) {
    for (const sim::Waybill& w : trip.waybills) {
      const sim::Address& addr = world.address(w.address_id);
      // Use the true location (upper bound on what inference provides).
      const std::vector<double> estimates = EstimateActualDeliveryTimes(
          gen, w.address_id, addr.true_delivery_location);
      // Match this waybill's trip by picking the estimate for that trip.
      const auto& records = gen.address_trips(w.address_id);
      for (size_t r = 0; r < records.size(); ++r) {
        if (records[r].trip_id == trip.id &&
            std::fabs(records[r].recorded_delivery_time -
                      w.recorded_delivery_time) < 1e-6) {
          err_estimated += std::fabs(estimates[r] - w.actual_delivery_time);
          err_recorded +=
              std::fabs(w.recorded_delivery_time - w.actual_delivery_time);
          ++count;
        }
      }
    }
  }
  ASSERT_GT(count, 100);
  EXPECT_LT(err_estimated, err_recorded * 0.5);
}

TEST(AvailabilityTest, ProfileDistanceZeroForIdentical) {
  const std::vector<double> times = {9 * 3600.0, 86400.0 * 3 + 12 * 3600.0};
  const AvailabilityProfile a = BuildAvailabilityProfile(times);
  const AvailabilityProfile b = BuildAvailabilityProfile(times);
  EXPECT_DOUBLE_EQ(ProfileDistance(a, b), 0.0);
  const AvailabilityProfile c = BuildAvailabilityProfile({15 * 3600.0});
  EXPECT_GT(ProfileDistance(a, c), 0.0);
}

}  // namespace
}  // namespace apps
}  // namespace dlinf
