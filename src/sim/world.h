#ifndef DLINF_SIM_WORLD_H_
#define DLINF_SIM_WORLD_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "geo/point.h"
#include "traj/trajectory.h"

namespace dlinf {
namespace sim {

/// How a customer prefers to receive parcels; determines the true delivery
/// location of an address (Figure 1 of the paper: doorstep / express locker /
/// reception).
enum class DeliveryMode { kDoorstep = 0, kLocker = 1, kReception = 2 };

/// Dataset split tag. Splits are assigned by *community* so that train /
/// validation / test regions are spatially disjoint, as in Section V-A.
enum class Split { kTrain = 0, kVal = 1, kTest = 2 };

/// A residential community: a cluster of buildings with a shared gate and
/// (optionally used) express locker.
struct Community {
  int64_t id = -1;
  Point center;
  Point gate;    ///< Entrance; couriers often pause here (a common location).
  Point locker;  ///< Shared express locker position.
  Split split = Split::kTrain;
};

/// A building inside a community.
struct Building {
  int64_t id = -1;
  int64_t community_id = -1;
  Point position;
  Point reception;  ///< Building reception desk position.
};

/// A deliverable address (the paper's inference granularity).
struct Address {
  int64_t id = -1;
  int64_t building_id = -1;
  int64_t community_id = -1;
  std::string text;  ///< Synthetic plaintext, e.g. "Community 3 Building 12 Unit 4".

  /// Ground truth (used for labels and evaluation only).
  Point true_delivery_location;
  DeliveryMode mode = DeliveryMode::kDoorstep;

  /// Simulated Geocoder output (visible to all methods).
  Point geocoded_location;
  int poi_category = 0;  ///< 0..20, as returned by Geocoding.

  double order_rate = 1.0;  ///< Relative ordering activity of the customer.
  Split split = Split::kTrain;
};

/// One parcel delivery task (Definition 1).
struct Waybill {
  int64_t id = -1;
  int64_t address_id = -1;
  double receive_time = 0.0;           ///< t_re: courier received the parcel.
  double recorded_delivery_time = 0.0; ///< t_d: possibly delayed confirmation.

  /// Ground truth (never exposed to inference methods).
  double actual_delivery_time = 0.0;
};

/// Generator-side record of one planned stop in a trip. Ground truth only:
/// inference methods must work from the trajectory + waybills.
struct PlannedStay {
  Point location;
  double start_time = 0.0;
  double end_time = 0.0;
  std::vector<int64_t> delivered_address_ids;  ///< Empty for incidental stops.
};

/// A courier's delivery trip (Definition 5).
struct DeliveryTrip {
  int64_t id = -1;
  int64_t courier_id = -1;
  double start_time = 0.0;
  double end_time = 0.0;
  Trajectory trajectory;
  std::vector<Waybill> waybills;

  /// Ground-truth stop schedule (evaluation / delay injection only).
  std::vector<PlannedStay> planned_stays;
};

/// A courier and the communities they primarily serve.
struct Courier {
  int64_t id = -1;
  std::vector<int64_t> zone_community_ids;
};

/// A complete simulated station dataset: static city + operational history.
struct World {
  std::string name;
  Point station;  ///< Depot where every trip starts and ends.
  std::vector<Community> communities;
  std::vector<Building> buildings;
  std::vector<Address> addresses;
  std::vector<Courier> couriers;
  std::vector<DeliveryTrip> trips;

  const Community& community(int64_t id) const;
  const Building& building(int64_t id) const;
  const Address& address(int64_t id) const;

  /// Ids of addresses in the given split.
  std::vector<int64_t> AddressIdsInSplit(Split split) const;

  /// Ids of addresses that appear in at least one trip's waybills.
  std::vector<int64_t> DeliveredAddressIds() const;

  /// Number of waybills across all trips.
  int64_t TotalWaybills() const;

  /// Total GPS points across all trips.
  int64_t TotalTrajectoryPoints() const;
};

/// The first of `waybills` naming no address of `city`, or nullptr. The
/// apply path indexes the city by these ids, so a record or a file that
/// names one must be refused before it is applied.
const Waybill* FindWaybillOutsideCity(const World& city,
                                      const std::vector<Waybill>& waybills);

/// Checks every id World's accessors and the pipeline index by:
/// communities, buildings, addresses and trips are numbered by index, and
/// addresses, buildings, courier zones, waybills and planned stays name
/// only entities of the world. Returns false with the first dangling
/// reference in `error`. Decoders run it, so a file that passes its CRC
/// still cannot reach a CHECK.
bool ValidateWorld(const World& world, std::string* error);

}  // namespace sim
}  // namespace dlinf

#endif  // DLINF_SIM_WORLD_H_
