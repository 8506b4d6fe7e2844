#ifndef DLINF_FAULT_FAULT_H_
#define DLINF_FAULT_FAULT_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

/// \file
/// Deterministic, seedable fault injection (DESIGN.md §8).
///
/// Library code declares *named injection points* — stable dot-separated
/// identifiers like `io.artifact.bit_flip` or `service.tier.address.fail` —
/// by calling `fault::Hit("point.name")` at the spot where the fault would
/// originate in production (a short read from disk, a slow or failing
/// backend tier, a corrupt GPS sample). A test then *arms* a `FaultPlan`
/// that maps point names to firing rules; every hit on an armed point
/// consults its rule and either passes (returns nullopt) or fires (returns
/// the fault's parameters). Nothing outside tests arms a plan.
///
/// Guarantees:
///  - **Zero-cost when disarmed.** `Hit()` is a single relaxed atomic load
///    and a predictable branch when no plan is armed; injection points are
///    compiled into release binaries and stay free (the bench regression
///    gate enforces this).
///  - **Deterministic.** Whether the n-th hit of a point fires is a pure
///    function of (plan seed, point name, n): probabilistic rules hash these
///    three values, so a scenario replays identically for a given seed and
///    hit order. Thread interleavings can permute which *call site* observes
///    the n-th hit, but never the total number of fires.
///  - **Thread-safe.** Arming/disarming synchronizes with concurrent hits;
///    per-point state is lock-free atomics, so hot paths never contend on a
///    mutex even while armed.
///  - **Observable.** Every fire increments the global obs counters
///    `fault.fires` and `fault.fires.<point>` so fault-injection tests can
///    cross-check injected fault counts against the metrics dump.
///
/// Naming convention: `<layer>.<component>.<event>`, lowercase, with the
/// layer matching the source directory (`io.*`, `traj.*`, `sim.*`,
/// `service.*`). Points that model latency rather than outright failure end
/// in `.latency`; points that model hard failure end in `.fail` where the
/// distinction matters. The full list of points wired into the stack is
/// documented in DESIGN.md §8.

namespace dlinf {
namespace fault {

/// One injection rule: which point, how often, and with what parameters.
struct FaultSpec {
  std::string point;         ///< Injection-point name (exact match).
  double probability = 1.0;  ///< Chance that an eligible hit fires.
  int64_t skip_first = 0;    ///< Hits that always pass before firing starts.
  int64_t max_fires = -1;    ///< Stop firing after this many (-1: unlimited).
  double latency_ms = 0.0;   ///< Artificial delay for latency points.
  uint64_t param = 0;        ///< Point-specific payload (offset, count, ...).
};

/// What an armed point hands back when it fires.
struct Fire {
  double latency_ms = 0.0;
  uint64_t param = 0;
};

/// An ordered set of injection rules. Build one with the fluent helpers,
/// then `Arm()` it (or use `ScopedFaultPlan` in tests). Plans are plain
/// values: copy, store, and reuse them freely.
class FaultPlan {
 public:
  FaultPlan& Inject(FaultSpec spec) {
    specs_.push_back(std::move(spec));
    return *this;
  }

  /// Fires on every hit of `point`.
  FaultPlan& FailAlways(std::string point) {
    return Inject({.point = std::move(point)});
  }

  /// Fires each hit independently with probability `p`.
  FaultPlan& FailWithProbability(std::string point, double p) {
    return Inject({.point = std::move(point), .probability = p});
  }

  /// Fires on the first `n` hits, then passes forever (e.g. "the first
  /// attempt fails, the retry succeeds").
  FaultPlan& FailFirst(std::string point, int64_t n) {
    return Inject({.point = std::move(point), .max_fires = n});
  }

  /// Adds `ms` of artificial latency on every hit of `point`.
  FaultPlan& AddLatencyMs(std::string point, double ms) {
    return Inject({.point = std::move(point), .latency_ms = ms});
  }

  bool empty() const { return specs_.empty(); }
  const std::vector<FaultSpec>& specs() const { return specs_; }

 private:
  std::vector<FaultSpec> specs_;
};

namespace internal {

extern std::atomic<bool> g_armed;

std::optional<Fire> HitSlow(std::string_view point);

}  // namespace internal

/// True while a plan is armed. Cheap enough for per-point guards, but
/// callers normally just use `Hit()`.
inline bool Armed() {
  return internal::g_armed.load(std::memory_order_acquire);
}

/// The injection point: returns the fault parameters if `point` fires on
/// this hit, nullopt otherwise (including always when disarmed). The
/// disarmed path is one relaxed load + branch.
inline std::optional<Fire> Hit(std::string_view point) {
  if (!Armed()) return std::nullopt;
  return internal::HitSlow(point);
}

/// Arms `plan` process-wide with the given seed. Replaces any armed plan;
/// hit/fire counts restart from zero. Arming an empty plan is allowed (every
/// hit passes, still through the armed slow path).
void Arm(const FaultPlan& plan, uint64_t seed);

/// Disarms the active plan. Counts remain readable (FireCount/HitCount keep
/// reporting the last armed run) until the next Arm.
void Disarm();

/// Fires of `point` since the last Arm (0 for unknown points).
int64_t FireCount(std::string_view point);

/// Hits of `point` since the last Arm, fired or not.
int64_t HitCount(std::string_view point);

/// Total fires across all points since the last Arm.
int64_t TotalFires();

/// RAII arm/disarm for tests and scenario runners.
class ScopedFaultPlan {
 public:
  ScopedFaultPlan(const FaultPlan& plan, uint64_t seed) { Arm(plan, seed); }
  ~ScopedFaultPlan() { Disarm(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

/// Sleeps for `ms` milliseconds — the canonical way latency fires are
/// honoured (kept here so injection sites don't each pull in <thread>).
void SleepForMs(double ms);

}  // namespace fault
}  // namespace dlinf

#endif  // DLINF_FAULT_FAULT_H_
