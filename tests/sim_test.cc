#include <set>
#include <unordered_set>

#include "gtest/gtest.h"
#include "sim/generator.h"

namespace dlinf {
namespace sim {
namespace {

SimConfig SmallConfig() {
  SimConfig config = SynDowBJConfig();
  config.num_days = 6;
  config.num_communities = 8;
  config.num_couriers = 2;
  return config;
}

class SimWorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = new World(GenerateWorld(SmallConfig())); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static World* world_;
};

World* SimWorldTest::world_ = nullptr;

TEST_F(SimWorldTest, EntitiesAreConsistentlyLinked) {
  ASSERT_FALSE(world_->addresses.empty());
  ASSERT_FALSE(world_->buildings.empty());
  for (const Address& addr : world_->addresses) {
    ASSERT_GE(addr.building_id, 0);
    const Building& b = world_->building(addr.building_id);
    EXPECT_EQ(b.community_id, addr.community_id);
    EXPECT_GE(addr.poi_category, 0);
    EXPECT_LT(addr.poi_category, 21);
  }
  for (const Building& b : world_->buildings) {
    EXPECT_GE(b.community_id, 0);
    EXPECT_LT(b.community_id,
              static_cast<int64_t>(world_->communities.size()));
  }
}

TEST_F(SimWorldTest, TrajectoriesChronologicalAndSampledAtConfiguredRate) {
  for (const DeliveryTrip& trip : world_->trips) {
    EXPECT_TRUE(trip.trajectory.IsChronological());
    ASSERT_GT(trip.trajectory.size(), 10u);
    // Median sampling interval close to 13.5 s.
    std::vector<double> gaps;
    for (size_t i = 1; i < trip.trajectory.size(); ++i) {
      gaps.push_back(trip.trajectory.points[i].t -
                     trip.trajectory.points[i - 1].t);
    }
    double sum = 0.0;
    for (double g : gaps) sum += g;
    EXPECT_NEAR(sum / gaps.size(), 13.5, 1.5);
  }
}

TEST_F(SimWorldTest, DeliveryModesMatchLocations) {
  for (const Address& addr : world_->addresses) {
    const Building& b = world_->building(addr.building_id);
    const Community& c = world_->community(addr.community_id);
    switch (addr.mode) {
      case DeliveryMode::kLocker:
        EXPECT_EQ(addr.true_delivery_location, c.locker);
        break;
      case DeliveryMode::kReception:
        EXPECT_EQ(addr.true_delivery_location, b.reception);
        break;
      case DeliveryMode::kDoorstep:
        EXPECT_LE(Distance(addr.true_delivery_location, b.position), 20.0);
        break;
    }
  }
}

TEST_F(SimWorldTest, SameBuildingCanHaveDifferentDeliveryLocations) {
  // The paper's Fig. 9(a) motivation: >1 delivery location per building.
  int buildings_with_multiple = 0;
  for (const Building& b : world_->buildings) {
    std::set<std::pair<double, double>> locations;
    for (const Address& addr : world_->addresses) {
      if (addr.building_id == b.id) {
        locations.insert(
            {addr.true_delivery_location.x, addr.true_delivery_location.y});
      }
    }
    if (locations.size() > 1) ++buildings_with_multiple;
  }
  EXPECT_GT(buildings_with_multiple,
            static_cast<int>(world_->buildings.size()) / 10);
}

TEST_F(SimWorldTest, WaybillsDeliveredWithinTripWindow) {
  for (const DeliveryTrip& trip : world_->trips) {
    EXPECT_FALSE(trip.waybills.empty());
    for (const Waybill& w : trip.waybills) {
      EXPECT_GE(w.actual_delivery_time, trip.start_time);
      EXPECT_LE(w.actual_delivery_time, trip.end_time);
      EXPECT_LT(w.receive_time, trip.start_time);
      // Recorded time never precedes the actual drop-off.
      EXPECT_GE(w.recorded_delivery_time, w.actual_delivery_time);
    }
  }
}

TEST_F(SimWorldTest, ActualDeliveryHappensDuringAStayAtTheTrueLocation) {
  for (const DeliveryTrip& trip : world_->trips) {
    for (const Waybill& w : trip.waybills) {
      bool found = false;
      for (const PlannedStay& stay : trip.planned_stays) {
        for (int64_t id : stay.delivered_address_ids) {
          if (id == w.address_id && w.actual_delivery_time >= stay.start_time &&
              w.actual_delivery_time <= stay.end_time) {
            EXPECT_EQ(stay.location,
                      world_->address(id).true_delivery_location);
            found = true;
          }
        }
      }
      EXPECT_TRUE(found) << "waybill " << w.id;
    }
  }
}

TEST_F(SimWorldTest, TrajectoryStaysNearTrueLocationAtDeliveryTime) {
  // The courier's GPS position at the actual delivery moment is close to the
  // true delivery location (bounded by GPS noise + outliers).
  int close = 0, total = 0;
  for (const DeliveryTrip& trip : world_->trips) {
    for (const Waybill& w : trip.waybills) {
      const Point p = trip.trajectory.PositionAt(w.actual_delivery_time);
      const Point truth =
          world_->address(w.address_id).true_delivery_location;
      if (Distance(p, truth) < 30.0) ++close;
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(close) / total, 0.9);
}

TEST_F(SimWorldTest, SplitsAreSpatiallyDisjointByCommunity) {
  std::set<Split> seen;
  for (const Community& c : world_->communities) seen.insert(c.split);
  EXPECT_EQ(seen.size(), 3u);
  for (const Address& addr : world_->addresses) {
    EXPECT_EQ(addr.split, world_->community(addr.community_id).split);
  }
}

TEST_F(SimWorldTest, AccessorsAndCounters) {
  EXPECT_GT(world_->TotalWaybills(), 0);
  EXPECT_GT(world_->TotalTrajectoryPoints(), 0);
  const std::vector<int64_t> delivered = world_->DeliveredAddressIds();
  std::unordered_set<int64_t> unique(delivered.begin(), delivered.end());
  EXPECT_EQ(unique.size(), delivered.size());
}

TEST_F(SimWorldTest, ValidatorAcceptsGeneratedWorldAndNamesEachDanglingId) {
  std::string error;
  EXPECT_TRUE(ValidateWorld(*world_, &error)) << error;
  EXPECT_EQ(FindWaybillOutsideCity(*world_, world_->trips.front().waybills),
            nullptr);
  ASSERT_FALSE(world_->trips.front().planned_stays.empty());
  ASSERT_FALSE(world_->couriers.empty());
  // One broken reference per row, each found with a reason naming it.
  const struct {
    const char* name;
    void (*breaks)(World*);
    const char* reason;
  } rows[] = {
      {"community id", [](World* w) { w->communities[1].id = 7; },
       "community 1 has id 7"},
      {"building id", [](World* w) { w->buildings[2].id = 3; },
       "building 2 has id 3"},
      {"building community", [](World* w) { w->buildings[0].community_id = -1; },
       "building 0 names community -1"},
      {"address id", [](World* w) { w->addresses[4].id = 5; },
       "address 4 has id 5"},
      {"address building", [](World* w) { w->addresses[0].building_id = 99999; },
       "names building 99999"},
      {"address community",
       [](World* w) { w->addresses[0].community_id = 99999; },
       "community 99999"},
      {"courier zone",
       [](World* w) { w->couriers[0].zone_community_ids.push_back(99999); },
       "zone names community 99999"},
      {"trip id", [](World* w) { w->trips[1].id = 0; }, "trip 1 has id 0"},
      {"waybill address",
       [](World* w) { w->trips[0].waybills.back().address_id = 99999; },
       "names address 99999"},
      {"planned stay address",
       [](World* w) {
         w->trips[0].planned_stays[0].delivered_address_ids.push_back(-5);
       },
       "a planned stay names address -5"},
  };
  for (const auto& row : rows) {
    World broken = *world_;
    row.breaks(&broken);
    error.clear();
    EXPECT_FALSE(ValidateWorld(broken, &error)) << row.name;
    EXPECT_NE(error.find(row.reason), std::string::npos)
        << row.name << ": " << error;
  }
  World broken = *world_;
  broken.trips[0].waybills.back().address_id =
      static_cast<int64_t>(broken.addresses.size());
  EXPECT_EQ(FindWaybillOutsideCity(broken, broken.trips[0].waybills),
            &broken.trips[0].waybills.back());
}

TEST(SimDeterminismTest, SameSeedSameWorld) {
  const World a = GenerateWorld(SmallConfig());
  const World b = GenerateWorld(SmallConfig());
  ASSERT_EQ(a.addresses.size(), b.addresses.size());
  ASSERT_EQ(a.trips.size(), b.trips.size());
  EXPECT_EQ(a.TotalWaybills(), b.TotalWaybills());
  EXPECT_EQ(a.TotalTrajectoryPoints(), b.TotalTrajectoryPoints());
  for (size_t i = 0; i < a.addresses.size(); ++i) {
    EXPECT_EQ(a.addresses[i].true_delivery_location,
              b.addresses[i].true_delivery_location);
  }
}

TEST(SimDeterminismTest, DifferentSeedDifferentWorld) {
  SimConfig config = SmallConfig();
  const World a = GenerateWorld(config);
  config.seed = 999;
  const World b = GenerateWorld(config);
  EXPECT_NE(a.TotalTrajectoryPoints(), b.TotalTrajectoryPoints());
}

TEST(DelayInjectionTest, ZeroProbabilityMeansPromptConfirmation) {
  SimConfig config = SmallConfig();
  config.p_delay = 0.0;
  const World world = GenerateWorld(config);
  for (const DeliveryTrip& trip : world.trips) {
    for (const Waybill& w : trip.waybills) {
      EXPECT_LE(w.recorded_delivery_time - w.actual_delivery_time,
                config.confirm_jitter_max_s + 1e-9);
    }
  }
}

TEST(DelayInjectionTest, FullProbabilityDelaysToBatchTimes) {
  SimConfig config = SmallConfig();
  config.p_delay = 1.0;
  config.confirm_batches = 2;
  const World world = GenerateWorld(config);
  int64_t delayed = 0, total = 0;
  for (const DeliveryTrip& trip : world.trips) {
    // With p_d = 1 and 2 batches, there are at most ~2 distinct recorded
    // times per trip (plus stragglers after the last batch moment).
    std::set<double> distinct;
    for (const Waybill& w : trip.waybills) {
      distinct.insert(w.recorded_delivery_time);
      if (w.recorded_delivery_time - w.actual_delivery_time > 60.0) ++delayed;
      ++total;
    }
    EXPECT_LE(distinct.size(), trip.waybills.size());
  }
  // A large share of waybills get significantly delayed confirmations.
  EXPECT_GT(static_cast<double>(delayed) / static_cast<double>(total), 0.5);
}

TEST(DelayInjectionTest, ReinjectOverwritesRecordedTimesOnly) {
  SimConfig config = SmallConfig();
  World world = GenerateWorld(config);
  std::vector<double> actual_before;
  for (const DeliveryTrip& t : world.trips) {
    for (const Waybill& w : t.waybills) {
      actual_before.push_back(w.actual_delivery_time);
    }
  }
  ReinjectDelays(&world, 2, 1.0, /*seed=*/5);
  size_t k = 0;
  double total_delay_after = 0.0;
  for (const DeliveryTrip& t : world.trips) {
    for (const Waybill& w : t.waybills) {
      EXPECT_EQ(w.actual_delivery_time, actual_before[k++]);
      total_delay_after += w.recorded_delivery_time - w.actual_delivery_time;
    }
  }
  World fresh = GenerateWorld(config);
  double total_delay_before = 0.0;
  for (const DeliveryTrip& t : fresh.trips) {
    for (const Waybill& w : t.waybills) {
      total_delay_before += w.recorded_delivery_time - w.actual_delivery_time;
    }
  }
  EXPECT_GT(total_delay_after, total_delay_before);
}

TEST(SimStatsTest, StayCountsPerTripInPaperRange) {
  // Fig. 9(c): the paper reports ~24 (DowBJ) / ~27 (SubBJ) stays per trip.
  const World world = GenerateWorld(SynDowBJConfig());
  double stays = 0;
  for (const DeliveryTrip& t : world.trips) {
    stays += static_cast<double>(t.planned_stays.size());
  }
  const double avg = stays / static_cast<double>(world.trips.size());
  EXPECT_GT(avg, 12.0);
  EXPECT_LT(avg, 40.0);
}

TEST(SimConfigTest, PresetsDiffer) {
  const SimConfig dow = SynDowBJConfig();
  const SimConfig sub = SynSubBJConfig();
  EXPECT_NE(dow.name, sub.name);
  EXPECT_GT(dow.p_geocode_fine, sub.p_geocode_fine);
  EXPECT_LT(dow.p_locker, sub.p_locker);
}

}  // namespace
}  // namespace sim
}  // namespace dlinf
