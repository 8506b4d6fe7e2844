#include "apps/location_service.h"

#include <vector>

#include "common/stopwatch.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/structured_log.h"
#include "obs/trace_log.h"

namespace dlinf {
namespace apps {

namespace {

/// Per-tier hit counters + query latency (DESIGN.md §5), plus the
/// degradation counters of DESIGN.md §8. Pointers are stable for the
/// process lifetime, so cache them once.
struct ServiceMetrics {
  obs::Counter* address_hits;
  obs::Counter* building_hits;
  obs::Counter* geocode_hits;
  obs::Histogram* query_seconds;
  obs::Histogram* batch_seconds;
  obs::Histogram* batch_size;
  obs::Counter* address_failures;
  obs::Counter* building_failures;
  obs::Counter* retries;
  obs::Counter* fallbacks;
  obs::Counter* degraded;

  static const ServiceMetrics& Get() {
    static const ServiceMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return ServiceMetrics{
          registry.GetCounter("service.query.hits.address"),
          registry.GetCounter("service.query.hits.building"),
          registry.GetCounter("service.query.hits.geocode"),
          registry.GetHistogram("service.query.latency_seconds"),
          registry.GetHistogram("service.query.batch_latency_seconds"),
          registry.GetHistogram("service.query.batch_size"),
          registry.GetCounter("service.tier.failures.address"),
          registry.GetCounter("service.tier.failures.building"),
          registry.GetCounter("service.tier.retries"),
          registry.GetCounter("service.query.fallbacks"),
          registry.GetCounter("service.query.degraded")};
    }();
    return metrics;
  }
};

/// Static identity of one KV tier: its fault points and failure counter.
/// The geocode tier is a pure computation on the query itself, so it has no
/// failure mode and never appears here.
struct TierFaults {
  const char* fail_point;
  const char* latency_point;
  obs::Counter* ServiceMetrics::* failures;
};

constexpr TierFaults kAddressTier = {"service.tier.address.fail",
                                     "service.tier.address.latency",
                                     &ServiceMetrics::address_failures};
constexpr TierFaults kBuildingTier = {"service.tier.building.fail",
                                      "service.tier.building.latency",
                                      &ServiceMetrics::building_failures};

/// One tier's availability decision under the armed fault plan: deadline +
/// bounded retry with doubling backoff (the degradation contract in the
/// class comment). Returns true when the tier may be consulted, false when
/// it is exhausted and the query must fall back.
bool AttemptTier(const TierFaults& tier,
                 const DeliveryLocationService::DegradePolicy& policy) {
  const ServiceMetrics& metrics = ServiceMetrics::Get();
  double backoff_ms = policy.backoff_ms;
  for (int attempt = 0; attempt <= policy.max_retries; ++attempt) {
    if (attempt > 0) {
      metrics.retries->Add(1);
      obs::TraceInstant("tier.retry");
      fault::SleepForMs(backoff_ms);
      backoff_ms *= 2.0;
    }
    Stopwatch watch;
    if (const auto fire = fault::Hit(tier.latency_point)) {
      fault::SleepForMs(fire->latency_ms);
    }
    const bool failed = fault::Hit(tier.fail_point).has_value();
    const bool deadline_exceeded =
        watch.ElapsedSeconds() * 1e3 > policy.tier_deadline_ms;
    if (!failed && !deadline_exceeded) return true;
    (metrics.*(tier.failures))->Add(1);
  }
  return false;
}

void CountTierHit(DeliveryLocationService::Source source) {
  const ServiceMetrics& metrics = ServiceMetrics::Get();
  switch (source) {
    case DeliveryLocationService::Source::kAddress:
      metrics.address_hits->Add(1);
      break;
    case DeliveryLocationService::Source::kBuilding:
      metrics.building_hits->Add(1);
      break;
    case DeliveryLocationService::Source::kGeocode:
      metrics.geocode_hits->Add(1);
      break;
  }
}

}  // namespace

DeliveryLocationService DeliveryLocationService::Build(
    const sim::World& world,
    const std::unordered_map<int64_t, Point>& inferred) {
  DeliveryLocationService service(&world);
  service.address_kv_ = inferred;

  // Building tier: the most frequently inferred location among the
  // building's addresses, merging locations within 10 m.
  std::unordered_map<int64_t, std::vector<Point>> by_building;
  for (const auto& [address_id, location] : inferred) {
    by_building[world.address(address_id).building_id].push_back(location);
  }
  for (const auto& [building_id, locations] : by_building) {
    int best_count = 0;
    Point best = locations.front();
    for (const Point& candidate : locations) {
      int count = 0;
      for (const Point& other : locations) {
        if (Distance(candidate, other) <= 10.0) ++count;
      }
      if (count > best_count) {
        best_count = count;
        best = candidate;
      }
    }
    service.building_kv_[building_id] = best;
  }
  return service;
}

DeliveryLocationService::Answer DeliveryLocationService::Query(
    int64_t address_id) const {
  // Every query is its own trace: the scope draws the sampling decision and
  // correlates nested spans / instants / log lines under one trace id.
  obs::TraceScope trace;
  obs::TraceSpan span("service.query");
  const bool timed = obs::MetricsEnabled();
  Stopwatch watch;
  const Answer answer = Lookup(address_id);
  CountTierHit(answer.source);
  if (timed) ServiceMetrics::Get().query_seconds->Observe(
      watch.ElapsedSeconds());
  return answer;
}

std::vector<DeliveryLocationService::Answer>
DeliveryLocationService::QueryBatch(
    const std::vector<int64_t>& address_ids) const {
  // One trace per batch (per-item scopes would swamp the ring at large
  // batch sizes).
  obs::TraceScope trace;
  obs::TraceSpan span("service.query_batch");
  const bool timed = obs::MetricsEnabled();
  Stopwatch watch;
  std::vector<Answer> answers;
  answers.reserve(address_ids.size());
  for (const int64_t address_id : address_ids) {
    answers.push_back(Lookup(address_id));
  }

  // One counter update per tier per batch (not per query) keeps the hot
  // path free of shared-cacheline traffic at large batch sizes.
  int64_t hits[3] = {0, 0, 0};
  for (const Answer& answer : answers) {
    ++hits[static_cast<int>(answer.source)];
  }
  const ServiceMetrics& metrics = ServiceMetrics::Get();
  if (hits[0] > 0) metrics.address_hits->Add(hits[0]);
  if (hits[1] > 0) metrics.building_hits->Add(hits[1]);
  if (hits[2] > 0) metrics.geocode_hits->Add(hits[2]);
  if (timed) {
    metrics.batch_seconds->Observe(watch.ElapsedSeconds());
    metrics.batch_size->Observe(static_cast<double>(address_ids.size()));
  }
  return answers;
}

DeliveryLocationService::Answer DeliveryLocationService::Lookup(
    int64_t address_id) const {
  if (fault::Armed()) return DegradableLookup(address_id);
  auto it = address_kv_.find(address_id);
  if (it != address_kv_.end()) {
    return Answer{it->second, Source::kAddress};
  }
  const sim::Address& addr = world_->address(address_id);
  return LookupBuilding(addr.building_id, addr.geocoded_location);
}

DeliveryLocationService::Answer DeliveryLocationService::QueryByBuilding(
    int64_t building_id, const Point& geocode) const {
  obs::TraceScope trace;
  obs::TraceSpan span("service.query_by_building");
  const bool timed = obs::MetricsEnabled();
  Stopwatch watch;
  const Answer answer = LookupBuilding(building_id, geocode);
  CountTierHit(answer.source);
  if (timed) ServiceMetrics::Get().query_seconds->Observe(
      watch.ElapsedSeconds());
  return answer;
}

DeliveryLocationService::Answer DeliveryLocationService::LookupBuilding(
    int64_t building_id, const Point& geocode, bool already_degraded) const {
  if (fault::Armed()) {
    return DegradableLookupBuilding(building_id, geocode, already_degraded);
  }
  auto it = building_kv_.find(building_id);
  if (it != building_kv_.end()) {
    return Answer{it->second, Source::kBuilding};
  }
  return Answer{geocode, Source::kGeocode};
}

DeliveryLocationService::Answer DeliveryLocationService::DegradableLookup(
    int64_t address_id) const {
  const ServiceMetrics& metrics = ServiceMetrics::Get();
  bool degraded = false;
  if (AttemptTier(kAddressTier, degrade_policy_)) {
    auto it = address_kv_.find(address_id);
    if (it != address_kv_.end()) {
      return Answer{it->second, Source::kAddress, /*degraded=*/false};
    }
    // A healthy tier without an entry is a normal miss, not degradation.
  } else {
    metrics.fallbacks->Add(1);
    obs::TraceInstant("tier.fallback.address");
    obs::LogLine(obs::LogSeverity::kWarn, "query.fallback")
        .Str("tier", "address")
        .Int("address_id", address_id);
    degraded = true;
  }
  const sim::Address& addr = world_->address(address_id);
  return DegradableLookupBuilding(addr.building_id, addr.geocoded_location,
                                  degraded);
}

DeliveryLocationService::Answer
DeliveryLocationService::DegradableLookupBuilding(int64_t building_id,
                                                  const Point& geocode,
                                                  bool already_degraded) const {
  const ServiceMetrics& metrics = ServiceMetrics::Get();
  bool degraded = already_degraded;
  if (AttemptTier(kBuildingTier, degrade_policy_)) {
    auto it = building_kv_.find(building_id);
    if (it != building_kv_.end()) {
      // Answered by the intended tier: an earlier tier's failure still
      // marks the answer degraded (the address entry may have existed).
      if (degraded) metrics.degraded->Add(1);
      return Answer{it->second, Source::kBuilding, degraded};
    }
  } else {
    metrics.fallbacks->Add(1);
    obs::TraceInstant("tier.fallback.building");
    obs::LogLine(obs::LogSeverity::kWarn, "query.fallback")
        .Str("tier", "building")
        .Int("building_id", building_id);
    degraded = true;
  }
  // Terminal tier: geocode is computed from the query itself and cannot
  // fail, so every query is answered.
  if (degraded) metrics.degraded->Add(1);
  return Answer{geocode, Source::kGeocode, degraded};
}

}  // namespace apps
}  // namespace dlinf
