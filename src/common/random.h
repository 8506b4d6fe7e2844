#ifndef DLINF_COMMON_RANDOM_H_
#define DLINF_COMMON_RANDOM_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "common/check.h"
#include "common/mt19937_64.h"

namespace dlinf {

/// Deterministic random number generator used everywhere in the project.
///
/// Wraps a 64-bit Mersenne Twister (Mt19937_64, bit-identical to
/// std::mt19937_64) behind a small, explicit API so that experiments are
/// reproducible from a single seed and so call sites read as intent
/// ("rng.Bernoulli(p_delay)") rather than distribution plumbing. The
/// standard distributions below see the same engine outputs they would see
/// from std::mt19937_64, so every seeded sequence is unchanged.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    DCHECK(lo <= hi);
    return Canonical() * (hi - lo) + lo;
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    DCHECK(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Gaussian with the given mean and standard deviation.
  double Normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Log-normal: exp(N(log_mean, log_stddev)).
  double LogNormal(double log_mean, double log_stddev) {
    return std::lognormal_distribution<double>(log_mean, log_stddev)(engine_);
  }

  /// Exponential with the given rate (lambda).
  double Exponential(double rate) {
    DCHECK(rate > 0);
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// True with probability p.
  bool Bernoulli(double p) {
    DCHECK(p >= 0.0 && p <= 1.0);
    return Canonical() < p;
  }

  /// The uniform double in [0, 1) that Uniform() and Bernoulli() derive
  /// from one raw engine draw (see Canonical()). Monotone in `draw`.
  static double CanonicalOf(uint64_t draw) {
    double c = static_cast<double>(draw) * 0x1p-64;
    if (c >= 1.0) c = std::nextafter(1.0, 0.0);
    return c;
  }

  /// The engine-draw threshold of Bernoulli(p) for p in [0, 1): the T with
  /// `(engine()() < T) == Bernoulli(p)` for every draw. Both consume one
  /// engine value, so a hot loop can compare raw draws against T and leave
  /// the engine, and every outcome, exactly as Bernoulli(p) would.
  static uint64_t BernoulliThreshold(double p) {
    CHECK(p >= 0.0 && p < 1.0);
    // CanonicalOf is monotone in the draw and reaches 1 - 2^-53 >= p at the
    // top, so the draws it maps below p are a prefix [0, T); find its end.
    uint64_t lo = 0;
    uint64_t hi = UINT64_MAX;
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (CanonicalOf(mid) < p) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Poisson with the given mean.
  int Poisson(double mean) {
    DCHECK(mean > 0);
    return std::poisson_distribution<int>(mean)(engine_);
  }

  /// Samples an index in [0, weights.size()) proportionally to weights.
  size_t WeightedIndex(const std::vector<double>& weights) {
    DCHECK(!weights.empty());
    return std::discrete_distribution<size_t>(weights.begin(), weights.end())(
        engine_);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    std::shuffle(items->begin(), items->end(), engine_);
  }

  /// Picks one element uniformly at random. `items` must be non-empty.
  template <typename T>
  const T& Choice(const std::vector<T>& items) {
    CHECK(!items.empty());
    return items[static_cast<size_t>(UniformInt(0, items.size() - 1))];
  }

  /// Derives an independent child generator; useful for giving each worker
  /// thread or each simulated entity its own deterministic stream.
  Rng Fork() { return Rng(engine_()); }

  Mt19937_64& engine() { return engine_; }

 private:
  /// Bit-for-bit what libstdc++'s std::generate_canonical<double, 53> does
  /// for mt19937_64 — one 64-bit draw, double(x)/2^64, clamped below 1.0 —
  /// without the two std::log calls the library version performs on every
  /// invocation (they dominated training profiles: dropout masks draw this
  /// tens of millions of times per run). Uniform() and Bernoulli() built on
  /// it therefore consume the engine identically to their previous
  /// std::uniform_real_distribution / std::bernoulli_distribution forms, so
  /// seeded sequences (and pinned golden metrics) are unchanged.
  double Canonical() { return CanonicalOf(engine_()); }

  Mt19937_64 engine_;
};

}  // namespace dlinf

#endif  // DLINF_COMMON_RANDOM_H_
