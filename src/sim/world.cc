#include "sim/world.h"

#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"

namespace dlinf {
namespace sim {

const Community& World::community(int64_t id) const {
  CHECK(id >= 0 && id < static_cast<int64_t>(communities.size()));
  return communities[id];
}

const Building& World::building(int64_t id) const {
  CHECK(id >= 0 && id < static_cast<int64_t>(buildings.size()));
  return buildings[id];
}

const Address& World::address(int64_t id) const {
  CHECK(id >= 0 && id < static_cast<int64_t>(addresses.size()));
  return addresses[id];
}

std::vector<int64_t> World::AddressIdsInSplit(Split split) const {
  std::vector<int64_t> ids;
  for (const Address& addr : addresses) {
    if (addr.split == split) ids.push_back(addr.id);
  }
  return ids;
}

std::vector<int64_t> World::DeliveredAddressIds() const {
  std::unordered_set<int64_t> seen;
  std::vector<int64_t> ids;
  for (const DeliveryTrip& trip : trips) {
    for (const Waybill& waybill : trip.waybills) {
      if (seen.insert(waybill.address_id).second) {
        ids.push_back(waybill.address_id);
      }
    }
  }
  return ids;
}

int64_t World::TotalWaybills() const {
  int64_t total = 0;
  for (const DeliveryTrip& trip : trips) {
    total += static_cast<int64_t>(trip.waybills.size());
  }
  return total;
}

int64_t World::TotalTrajectoryPoints() const {
  int64_t total = 0;
  for (const DeliveryTrip& trip : trips) {
    total += static_cast<int64_t>(trip.trajectory.points.size());
  }
  return total;
}

namespace {

bool InRange(int64_t id, size_t size) {
  return id >= 0 && id < static_cast<int64_t>(size);
}

/// False, with the first offender in `why`, unless every item's id is its
/// index (the accessors and the pipeline index by id).
template <typename T>
bool DenseIds(const std::vector<T>& items, const char* kind,
              std::string* why) {
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].id != static_cast<int64_t>(i)) {
      *why = StrPrintf("%s %zu has id %lld", kind, i,
                       static_cast<long long>(items[i].id));
      return false;
    }
  }
  return true;
}

}  // namespace

const Waybill* FindWaybillOutsideCity(const World& city,
                                      const std::vector<Waybill>& waybills) {
  for (const Waybill& waybill : waybills) {
    if (!InRange(waybill.address_id, city.addresses.size())) return &waybill;
  }
  return nullptr;
}

bool ValidateWorld(const World& world, std::string* error) {
  const auto fail = [error](std::string reason) {
    if (error != nullptr) *error = std::move(reason);
    return false;
  };
  const auto ll = [](int64_t v) { return static_cast<long long>(v); };
  std::string why;
  if (!DenseIds(world.communities, "community", &why) ||
      !DenseIds(world.buildings, "building", &why) ||
      !DenseIds(world.addresses, "address", &why) ||
      !DenseIds(world.trips, "trip", &why)) {
    return fail(why);
  }
  const size_t num_communities = world.communities.size();
  const size_t num_addresses = world.addresses.size();
  for (const Building& b : world.buildings) {
    if (!InRange(b.community_id, num_communities)) {
      return fail(StrPrintf("building %lld names community %lld of %zu",
                            ll(b.id), ll(b.community_id), num_communities));
    }
  }
  for (const Address& a : world.addresses) {
    if (!InRange(a.building_id, world.buildings.size()) ||
        !InRange(a.community_id, num_communities)) {
      return fail(StrPrintf("address %lld names building %lld, community %lld",
                            ll(a.id), ll(a.building_id), ll(a.community_id)));
    }
  }
  for (const Courier& courier : world.couriers) {
    for (int64_t community_id : courier.zone_community_ids) {
      if (!InRange(community_id, num_communities)) {
        return fail(StrPrintf("courier %lld's zone names community %lld of %zu",
                              ll(courier.id), ll(community_id),
                              num_communities));
      }
    }
  }
  for (const DeliveryTrip& trip : world.trips) {
    if (const Waybill* w = FindWaybillOutsideCity(world, trip.waybills)) {
      return fail(StrPrintf("trip %lld: waybill %lld names address %lld of %zu",
                            ll(trip.id), ll(w->id), ll(w->address_id),
                            num_addresses));
    }
    for (const PlannedStay& stay : trip.planned_stays) {
      for (int64_t id : stay.delivered_address_ids) {
        if (!InRange(id, num_addresses)) {
          return fail(
              StrPrintf("trip %lld: a planned stay names address %lld of %zu",
                        ll(trip.id), ll(id), num_addresses));
        }
      }
    }
  }
  return true;
}

}  // namespace sim
}  // namespace dlinf
