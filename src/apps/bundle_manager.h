#ifndef DLINF_APPS_BUNDLE_MANAGER_H_
#define DLINF_APPS_BUNDLE_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "apps/admin_routes.h"
#include "apps/location_service.h"
#include "io/bundle.h"

namespace dlinf {
namespace apps {

/// Zero-downtime bundle hot-reload with validated rollback (DESIGN.md §9).
///
/// The serving process periodically retrains offline and pushes a fresh
/// artifact bundle; BundleManager is the online side of that handshake. It
/// reads one file of the bundle, answers.art (io/bundle.h), which a push
/// writes last: it watches that file (mtime/size poll), and on a change runs
/// the reload state machine:
///
///   watch ── change ──▶ stage (decode answers.art into a private slot:
///            detected      envelope, CRC and id checks, then the KV tiers)
///                        │ decode / CRC / id error
///                        ├────────────────────────────────▶ rollback
///                        ▼
///                      validate (shadow probe set: finite answers, inside
///                        the world's bounding box, agreement with the live
///                        bundle above a threshold)
///                        │ probe contract violated
///                        ├────────────────────────────────▶ rollback
///                        ▼
///                      swap (RCU-style shared_ptr exchange; in-flight
///                        queries drain on the old bundle, new queries see
///                        the new one; nothing ever blocks)
///
/// A rollback keeps the live bundle serving, increments
/// `service.reload.rollbacks`, and raises the degraded-health flag (gauge
/// `service.reload.degraded`) until a later push swaps cleanly. Every
/// attempt/outcome feeds `service.reload.{attempts,success,rollbacks}`.
///
/// Fault points (DESIGN.md §8): `service.reload.corrupt` makes staging fail
/// exactly as a torn/corrupt push would; `service.reload.validation_fail`
/// vetoes an otherwise healthy candidate in the validate step. Both drive
/// the real rollback path deterministically.
///
/// Threading: `state()` is wait-free-ish (atomic shared_ptr load) and safe
/// from any number of query threads; Poll/ReloadNow must be called from one
/// control thread at a time (the serve loop). Old states stay alive until
/// the last in-flight query releases its shared_ptr.
class BundleManager {
 public:
  struct Config {
    std::string dir;  ///< Bundle directory (io/bundle.h layout).

    /// Shadow-validation probe set: up to this many delivered addresses,
    /// sampled evenly across the candidate bundle's inventory.
    int probe_count = 64;
    /// A probe "agrees" when the candidate's answer lies within this many
    /// meters of the live bundle's answer for the same address.
    double agree_tolerance_m = 25.0;
    /// Minimum fraction of probes that must agree for the swap to proceed.
    double min_agree_fraction = 0.9;
    /// Padding around the candidate world's bounding box when checking that
    /// probe answers are geographically sane.
    double bounds_margin_m = 500.0;
  };

  /// Everything one bundle generation serves from: its answers.art, with no
  /// model, feature tensor or trip. Immutable after construction; published
  /// to query threads as shared_ptr<const>.
  struct ServingState {
    std::unique_ptr<const sim::World> city;  ///< Ids index its addresses.
    /// Every delivered address id, in DeliveredAddressIds() order: the
    /// serving inventory and the shadow-validation probe pool.
    std::vector<int64_t> delivered;
    std::unique_ptr<DeliveryLocationService> service;
    uint64_t generation = 0;  ///< 0 for the boot bundle, +1 per swap.
  };

  enum class ReloadOutcome { kUnchanged, kSwapped, kRolledBack };

  /// Boot: loads and validates the bundle at `config.dir` and stands up the
  /// service. There is no live bundle to fall back to yet, so a boot
  /// failure returns nullptr with the reason in `error`.
  static std::unique_ptr<BundleManager> Create(const Config& config,
                                               std::string* error = nullptr);

  /// The live serving state. Hold the returned shared_ptr for the duration
  /// of a query (or a batch); a concurrent swap cannot invalidate it.
  /// Uses the free-function shared_ptr atomics (not
  /// std::atomic<shared_ptr>): libstdc++'s _Sp_atomic spinlock is invisible
  /// to TSan and false-positives on every swap/load pair, while the free
  /// functions synchronize through instrumented mutexes.
  std::shared_ptr<const ServingState> state() const {
    return std::atomic_load_explicit(&live_, std::memory_order_acquire);
  }

  /// Watch step: stat the bundle's answers.art and run the reload state
  /// machine if it changed since the last Poll/ReloadNow. kUnchanged when
  /// the file is untouched or absent (mid-push).
  ReloadOutcome Poll(std::string* error = nullptr);

  /// Stage→validate→swap/rollback unconditionally (a push is known to have
  /// happened, e.g. via an operator signal or in tests where mtime
  /// granularity is too coarse to trust).
  ReloadOutcome ReloadNow(std::string* error = nullptr);

  /// True after a rollback until the next successful swap: the service is
  /// healthy but running on an older generation than the last push.
  bool reload_degraded() const {
    return degraded_.load(std::memory_order_acquire);
  }

  /// Generation of the live bundle (number of successful swaps since boot).
  uint64_t generation() const {
    return state()->generation;
  }

  /// The shadow-validation probe set: up to `probe_count` ids of
  /// `delivered` (a candidate's inventory), sampled evenly, that also name
  /// an address of a live city with `live_address_count` addresses.
  static std::vector<int64_t> ProbeIds(const std::vector<int64_t>& delivered,
                                       int64_t live_address_count,
                                       int probe_count);

 private:
  explicit BundleManager(const Config& config) : config_(config) {}

  /// Loads `dir`'s answers.art and builds a full ServingState (no swap).
  /// Returns nullptr with a reason on any decode/validation failure.
  static std::shared_ptr<const ServingState> Stage(const std::string& dir,
                                                   uint64_t generation,
                                                   std::string* error);

  /// Shadow validation: compares the candidate's answer table with the live
  /// one on ProbeIds (uncounted `Lookup`s, not served queries). Answers from
  /// `candidate` must be finite, inside the candidate city's (padded)
  /// bounding box, and agree with `live` on at least `min_agree_fraction` of
  /// probes.
  bool Validate(const ServingState& live, const ServingState& candidate,
                std::string* error) const;

  /// Remembers the answers.art stamp so Poll only fires on a fresh push.
  void RecordWatchStamp();

  Config config_;
  std::shared_ptr<const ServingState> live_;  ///< Via std::atomic_* frees.
  std::atomic<bool> degraded_{false};

  /// Watch state (control thread only).
  std::filesystem::file_time_type last_mtime_{};
  uintmax_t last_size_ = 0;
};

/// /healthz check named `name` over `manager`: reports the live generation,
/// and is not-ok while `reload_degraded()` (a push was rolled back and the
/// service runs on the previous generation). `manager` must outlive the
/// server that mounts the check.
HealthProvider BundleManagerHealth(std::string name,
                                   const BundleManager* manager);

}  // namespace apps
}  // namespace dlinf

#endif  // DLINF_APPS_BUNDLE_MANAGER_H_
