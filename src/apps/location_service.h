#ifndef DLINF_APPS_LOCATION_SERVICE_H_
#define DLINF_APPS_LOCATION_SERVICE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dlinfma/inferrer.h"
#include "geo/point.h"
#include "sim/world.h"

namespace dlinf {
namespace apps {

/// The deployed delivery-location query service (Section VI-A).
///
/// Inference results are stored in an address-level key-value map; a
/// building-level map holds each building's most-used delivery location
/// (covering addresses that never appeared in history); Geocoding is the
/// final fallback. Queries walk that 3-tier chain, exactly as the paper's
/// online API does.
///
/// Every query feeds the global metrics `service.query.hits.{address,
/// building,geocode}` (one hit on the answering tier per query) and the
/// `service.query.latency_seconds` histogram (see DESIGN.md §5).
///
/// **Degradation contract** (DESIGN.md §8): a tier *attempt* fails when the
/// fault point `service.tier.<tier>.fail` fires or the attempt (including
/// any `service.tier.<tier>.latency` injection) exceeds the per-tier
/// deadline. A failed attempt is retried up to `DegradePolicy::max_retries`
/// times with doubling backoff; when a tier is exhausted the query falls
/// back to the next tier and the final answer carries `degraded = true`.
/// The geocode tier is terminal and infallible, so **every query is always
/// answered**. Tier failures, retries, fallbacks, and degraded answers feed
/// the counters `service.tier.failures.{address,building}`,
/// `service.tier.retries`, `service.query.fallbacks`, and
/// `service.query.degraded`. With no fault plan armed the whole machinery
/// is bypassed (one atomic load) and answers are identical to the
/// pre-degradation fast path.
class DeliveryLocationService {
 public:
  /// Where a query answer came from (the tier that matched).
  enum class Source { kAddress, kBuilding, kGeocode };

  struct Answer {
    Point location;
    Source source = Source::kGeocode;
    /// True when a tier failure forced this answer onto a lower tier than
    /// the one that would have answered on the healthy path.
    bool degraded = false;
  };

  /// Bounds on the per-tier retry/fallback behaviour above.
  struct DegradePolicy {
    double tier_deadline_ms = 50.0;  ///< Per-attempt deadline.
    int max_retries = 1;             ///< Retries after the first failure.
    double backoff_ms = 1.0;         ///< First retry backoff; doubles.
  };

  /// Builds the two KV tiers from per-address inference results.
  /// `inferred` maps address id -> inferred delivery location; the building
  /// tier aggregates these by building (modal location, 10 m tolerance).
  static DeliveryLocationService Build(
      const sim::World& world,
      const std::unordered_map<int64_t, Point>& inferred);

  /// Warm-start path: builds the service directly from a preloaded (trained
  /// or artifact-restored) inference method by scoring `samples` — the
  /// delivered-address inventory — and feeding the results through Build.
  /// This is what `dlinf_cli serve` runs after loading a bundle; no
  /// retraining or re-mining happens here.
  static DeliveryLocationService BuildFromInferrer(
      const sim::World& world, const dlinfma::Dataset& data,
      const std::vector<dlinfma::AddressSample>& samples,
      dlinfma::Inferrer* method);

  /// Answers a query for a known address id.
  Answer Query(int64_t address_id) const;

  /// Answers N waybill queries in one call — the online API's batched
  /// entry point. Answers are positionally aligned with `address_ids` and
  /// exactly equal to N sequential Query calls. Each batch records one
  /// observation in `service.query.batch_latency_seconds` and
  /// `service.query.batch_size` and counts every per-answer tier hit
  /// (DESIGN.md §5).
  std::vector<Answer> QueryBatch(
      const std::vector<int64_t>& address_ids) const;

  /// The full 3-tier chain, uncounted and untraced: Query and QueryBatch
  /// share it (so their answers are identical by construction) and reload
  /// validation probes with it. Dispatches to the degradation-aware path
  /// only while a fault plan is armed.
  Answer Lookup(int64_t address_id) const;

  /// Answers a query for a *new* address known only by building (the
  /// real-time case of Section VI-A where the address never appeared).
  Answer QueryByBuilding(int64_t building_id, const Point& geocode) const;

  size_t address_entries() const { return address_kv_.size(); }
  size_t building_entries() const { return building_kv_.size(); }

  const DegradePolicy& degrade_policy() const { return degrade_policy_; }
  void set_degrade_policy(const DegradePolicy& policy) {
    degrade_policy_ = policy;
  }

 private:
  explicit DeliveryLocationService(const sim::World* world) : world_(world) {}

  /// Tiers 2-3 without metric counting (shared by both public queries, each
  /// of which counts exactly one tier hit). `already_degraded` carries a
  /// tier-1 failure into the final answer.
  Answer LookupBuilding(int64_t building_id, const Point& geocode,
                        bool already_degraded = false) const;

  /// Lookup/LookupBuilding under an armed fault plan: per-tier deadline,
  /// bounded retry with backoff, fallback on exhaustion.
  Answer DegradableLookup(int64_t address_id) const;
  Answer DegradableLookupBuilding(int64_t building_id, const Point& geocode,
                                  bool already_degraded) const;

  const sim::World* world_;
  std::unordered_map<int64_t, Point> address_kv_;
  std::unordered_map<int64_t, Point> building_kv_;
  DegradePolicy degrade_policy_;
};

}  // namespace apps
}  // namespace dlinf

#endif  // DLINF_APPS_LOCATION_SERVICE_H_
