#include "apps/bundle_manager.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/structured_log.h"
#include "obs/trace.h"
#include "obs/trace_log.h"

namespace dlinf {
namespace apps {
namespace {

obs::Counter* ReloadCounter(const char* which) {
  return obs::MetricsRegistry::Global().GetCounter(
      std::string("service.reload.") + which);
}

obs::Gauge* DegradedGauge() {
  return obs::MetricsRegistry::Global().GetGauge("service.reload.degraded");
}

void SetError(std::string* error, std::string reason) {
  if (error != nullptr) *error = std::move(reason);
}

/// Axis-aligned bounding box of every fixed location in the world (building
/// positions and receptions, address geocodes, community gates/lockers),
/// padded by `margin`. A sane delivery-location answer must land inside it.
struct Bounds {
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();

  void Cover(const Point& p) {
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }

  bool Contains(const Point& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }
};

Bounds WorldBounds(const sim::World& world, double margin) {
  Bounds bounds;
  bounds.Cover(world.station);
  for (const sim::Community& c : world.communities) {
    bounds.Cover(c.gate);
    bounds.Cover(c.locker);
  }
  for (const sim::Building& b : world.buildings) {
    bounds.Cover(b.position);
    bounds.Cover(b.reception);
  }
  for (const sim::Address& a : world.addresses) {
    bounds.Cover(a.geocoded_location);
  }
  bounds.min_x -= margin;
  bounds.min_y -= margin;
  bounds.max_x += margin;
  bounds.max_y += margin;
  return bounds;
}

}  // namespace

std::shared_ptr<const BundleManager::ServingState> BundleManager::Stage(
    const std::string& dir, uint64_t generation, std::string* error) {
  obs::Span span("bundle_stage");
  // Injected torn/corrupt push: the load fails exactly as a CRC or decode
  // error would, without needing a real bad file on disk.
  if (fault::Hit("service.reload.corrupt")) {
    SetError(error, "injected bundle corruption in " + dir);
    return nullptr;
  }
  std::optional<io::PublishedAnswers> answers = io::LoadAnswers(dir, error);
  if (!answers) return nullptr;

  auto state = std::make_shared<ServingState>();
  state->city = std::make_unique<sim::World>(std::move(answers->city));
  state->delivered = std::move(answers->delivered);
  // Inserted in the stored order into a map reserved for every entry, the
  // same sequence the scoring pass produced: the building tier's picks
  // come out the same.
  std::unordered_map<int64_t, Point> inferred;
  inferred.reserve(answers->addresses.size());
  for (const auto& [address_id, location] : answers->addresses) {
    inferred[address_id] = location;
  }
  state->service = std::make_unique<DeliveryLocationService>(
      DeliveryLocationService::Build(*state->city, inferred));
  state->generation = generation;
  return state;
}

std::unique_ptr<BundleManager> BundleManager::Create(const Config& config,
                                                     std::string* error) {
  std::shared_ptr<const ServingState> boot =
      Stage(config.dir, /*generation=*/0, error);
  if (boot == nullptr) return nullptr;
  // The private constructor keeps make_unique out; new is fine here.
  std::unique_ptr<BundleManager> manager(new BundleManager(config));
  std::atomic_store_explicit(&manager->live_, std::move(boot),
                             std::memory_order_release);
  manager->RecordWatchStamp();
  return manager;
}

void BundleManager::RecordWatchStamp() {
  const std::filesystem::path answers =
      std::filesystem::path(config_.dir) / io::kAnswersFile;
  std::error_code ec;
  last_mtime_ = std::filesystem::last_write_time(answers, ec);
  if (ec) last_mtime_ = std::filesystem::file_time_type{};
  last_size_ = std::filesystem::file_size(answers, ec);
  if (ec) last_size_ = 0;
}

BundleManager::ReloadOutcome BundleManager::Poll(std::string* error) {
  const std::filesystem::path answers =
      std::filesystem::path(config_.dir) / io::kAnswersFile;
  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(answers, ec);
  if (ec) {
    // Mid-push (answers.art is the last file written) or a broken deploy;
    // either way nothing loadable changed yet. Keep serving.
    return ReloadOutcome::kUnchanged;
  }
  const uintmax_t size = std::filesystem::file_size(answers, ec);
  if (ec) return ReloadOutcome::kUnchanged;
  if (mtime == last_mtime_ && size == last_size_) {
    return ReloadOutcome::kUnchanged;
  }
  return ReloadNow(error);
}

BundleManager::ReloadOutcome BundleManager::ReloadNow(std::string* error) {
  // Each reload attempt is one trace: stage/validate spans and the
  // swap/rollback outcome correlate under a single trace id.
  obs::TraceScope trace;
  obs::Span span("bundle_reload");
  ReloadCounter("attempts")->Add(1);
  // Stamp first: a push that rolls back is not retried every Poll — only a
  // *new* push (fresh answers.art stamp) triggers the next attempt.
  RecordWatchStamp();

  const std::shared_ptr<const ServingState> live =
      std::atomic_load_explicit(&live_, std::memory_order_acquire);
  auto rollback = [&](const std::string& reason) {
    ReloadCounter("rollbacks")->Add(1);
    degraded_.store(true, std::memory_order_release);
    DegradedGauge()->Set(1.0);
    obs::TraceInstant("reload.rollback");
    obs::LogLine(obs::LogSeverity::kError, "reload.rollback")
        .Str("reason", reason)
        .Int("serving_generation",
             static_cast<int64_t>(live->generation));
    SetError(error, reason + " (still serving generation " +
                        std::to_string(live->generation) + ")");
    return ReloadOutcome::kRolledBack;
  };

  std::string reason;
  std::shared_ptr<const ServingState> candidate =
      Stage(config_.dir, live->generation + 1, &reason);
  if (candidate == nullptr) {
    return rollback("bundle stage failed: " + reason);
  }
  if (!Validate(*live, *candidate, &reason)) {
    return rollback("bundle validation failed: " + reason);
  }

  // RCU-style publish: new queries load the candidate; in-flight queries
  // keep their shared_ptr to the old generation until they drain.
  const uint64_t new_generation = candidate->generation;
  std::atomic_store_explicit(&live_, std::move(candidate),
                             std::memory_order_release);
  ReloadCounter("success")->Add(1);
  degraded_.store(false, std::memory_order_release);
  DegradedGauge()->Set(0.0);
  obs::TraceInstant("reload.swap");
  obs::LogLine(obs::LogSeverity::kInfo, "reload.swap")
      .Int("generation", static_cast<int64_t>(new_generation));
  return ReloadOutcome::kSwapped;
}

std::vector<int64_t> BundleManager::ProbeIds(
    const std::vector<int64_t>& delivered, int64_t live_address_count,
    int probe_count) {
  // Probe ids must resolve in both worlds (ids are dense indexes): compare
  // only the overlap, sampled evenly across the candidate inventory.
  const size_t want = static_cast<size_t>(std::max(1, probe_count));
  const size_t stride = std::max<size_t>(1, delivered.size() / want);
  std::vector<int64_t> probes;
  probes.reserve(want);
  for (size_t i = 0; i < delivered.size() && probes.size() < want;
       i += stride) {
    if (delivered[i] < live_address_count) probes.push_back(delivered[i]);
  }
  return probes;
}

bool BundleManager::Validate(const ServingState& live,
                             const ServingState& candidate,
                             std::string* error) const {
  obs::Span span("bundle_validate");
  if (candidate.delivered.empty()) {
    SetError(error, "candidate bundle serves no delivered addresses");
    return false;
  }
  const std::vector<int64_t> probes =
      ProbeIds(candidate.delivered,
               static_cast<int64_t>(live.city->addresses.size()),
               config_.probe_count);
  if (probes.empty()) {
    SetError(error, "candidate bundle shares no addresses with the live one");
    return false;
  }

  const Bounds bounds = WorldBounds(*candidate.city, config_.bounds_margin_m);
  size_t agreeing = 0;
  for (const int64_t id : probes) {
    const DeliveryLocationService::Answer fresh =
        candidate.service->Lookup(id);
    if (!std::isfinite(fresh.location.x) || !std::isfinite(fresh.location.y)) {
      SetError(error, "probe address " + std::to_string(id) +
                          " answered a non-finite location");
      return false;
    }
    if (!bounds.Contains(fresh.location)) {
      SetError(error, "probe address " + std::to_string(id) +
                          " answered outside the world bounds");
      return false;
    }
    const DeliveryLocationService::Answer current = live.service->Lookup(id);
    if (Distance(fresh.location, current.location) <=
        config_.agree_tolerance_m) {
      ++agreeing;
    }
  }

  const double agree_fraction =
      static_cast<double>(agreeing) / static_cast<double>(probes.size());
  // Injected validation veto: a candidate that decodes fine but would
  // answer garbage (the "model push gone bad" drill).
  if (fault::Hit("service.reload.validation_fail")) {
    SetError(error, "injected validation failure");
    return false;
  }
  if (agree_fraction < config_.min_agree_fraction) {
    SetError(error,
             "only " + std::to_string(agreeing) + "/" +
                 std::to_string(probes.size()) +
                 " probes agree with the live bundle");
    return false;
  }
  return true;
}

HealthProvider BundleManagerHealth(std::string name,
                                   const BundleManager* manager) {
  return [name = std::move(name), manager] {
    HealthCheck check;
    check.name = name;
    check.generation = manager->generation();
    check.ok = !manager->reload_degraded();
    check.detail = check.ok ? "serving generation "
                            : "last bundle push rolled back; serving "
                              "generation ";
    check.detail += std::to_string(*check.generation);
    return check;
  };
}

}  // namespace apps
}  // namespace dlinf
