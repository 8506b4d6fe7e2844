#ifndef DLINF_OBS_METRICS_H_
#define DLINF_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>

/// \file
/// Lock-cheap process metrics: counters, gauges, log-bucketed histograms and
/// a process-wide registry with text/JSON snapshot export.
///
/// Design rules (see DESIGN.md §5 "Observability"):
///  - Hot-path updates are single relaxed atomics; the registry mutex is only
///    taken on metric *registration* and on snapshot export.
///  - Metric objects are never destroyed once registered, so call sites may
///    cache the returned pointer (typically in a function-local static).
///  - Collection is globally switchable at runtime (`SetMetricsEnabled`);
///    when disabled every update is a load+branch, so instrumentation can
///    stay compiled in on release binaries.
///  - Names are dot-separated `subsystem.metric` (e.g. `service.query.hits`),
///    lowercase, with units suffixed where ambiguous (`_seconds`, `_bytes`).

namespace dlinf {
namespace obs {

/// Returns whether metric collection is currently on (default: on).
bool MetricsEnabled();

/// Turns metric collection on/off process-wide. Off makes every update a
/// near-no-op (used to measure instrumentation overhead and by benches that
/// want a quiet baseline).
void SetMetricsEnabled(bool enabled);

/// Monotonic event counter.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  int64_t value() const { return value_.load(std::memory_order_relaxed); }

  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depths, pool sizes).
class Gauge {
 public:
  void Set(double value) {
    if (!MetricsEnabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }

  /// Lock-free increment via a CAS loop: `std::atomic<double>::fetch_add`
  /// only gained portable semantics in C++20 and is still not lock-free on
  /// every toolchain we build with, so concurrent adds go through
  /// compare_exchange — lossless under contention (see the concurrent-adds
  /// test in obs_test.cc).
  void Add(double delta) {
    if (!MetricsEnabled()) return;
    double expected = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(expected, expected + delta,
                                         std::memory_order_relaxed)) {
    }
  }

  double value() const { return value_.load(std::memory_order_relaxed); }

  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed log-scale-bucket histogram for positive measurements (latencies in
/// seconds, sizes). Buckets are geometric: bucket 0 is (-inf, kMinBound];
/// bucket i covers (bound(i-1), bound(i)]; the last bucket is open-ended.
/// With 64 buckets and ~1.56x growth the range 1e-6..1e6 is covered with
/// <= ~28% relative quantile error. All updates are relaxed atomics.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;
  static constexpr double kMinBound = 1e-6;
  static constexpr double kGrowth = 1.5625;  ///< 2^(log2(1e12)/62) ~= 1.561.

  /// Upper bound of bucket `i` (the last bucket reports +inf).
  static double BucketUpperBound(int i);

  void Observe(double value);

  /// Observations recorded in bucket `i` (for cumulative exposition; see
  /// MetricsRegistry::SnapshotPrometheus).
  int64_t BucketCount(int i) const {
    return buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;  ///< 0 when empty.
  double max() const;  ///< 0 when empty.

  /// Quantile estimate for q in [0, 1]: the upper bound of the bucket that
  /// contains the q-th ranked observation (0 when empty). Deterministic and
  /// monotone in q.
  double Quantile(double q) const;

  void Reset();

 private:
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // +-inf sentinels make concurrent first observations race-free; the
  // accessors report 0 while empty.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Aggregated statistics of one span path in the trace tree (see trace.h).
struct SpanStats {
  int64_t count = 0;
  double total_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
};

/// Process-wide metric registry. `Global()` is the instance all library
/// instrumentation uses; independent instances exist only for tests.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  /// Returns the metric registered under `name`, creating it on first use.
  /// The returned pointer is stable for the registry's lifetime; hot paths
  /// should cache it. Registering the same name with two different metric
  /// kinds is a programmer error (CHECK).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Records one completed trace span under its slash-separated path
  /// ("build_dataset/candidate_generation"). Called by obs::Span.
  void RecordSpan(const std::string& path, double seconds);

  /// JSON snapshot: {"counters": {...}, "gauges": {...}, "histograms":
  /// {name: {count,sum,min,max,p50,p95,p99}}, "spans": {path:
  /// {count,total_seconds,min_seconds,max_seconds}}}.
  std::string SnapshotJson() const;

  /// Prometheus text exposition (format 0.0.4), served by the admin
  /// routes' /metrics endpoint (DESIGN.md §10). Metric names are the
  /// registry names with every non-[a-zA-Z0-9_] character mapped to `_`;
  /// histograms expose cumulative `_bucket{le="..."}` series (ending in
  /// le="+Inf") plus `_sum` and `_count`; span statistics are exported as
  /// `dlinf_span_count{path="..."}` and
  /// `dlinf_span_seconds_total{path="..."}`.
  ///
  /// Label convention: a counter or gauge registered as `base#k=v` (e.g.
  /// `service.shard.hits#shard=0`) is exported as the labeled series
  /// `base{k="v"}`, sharing one `# TYPE` line with the plain `base` series.
  /// Multiple labels chain with further `#k=v` suffixes. Histogram names do
  /// not use the convention (their `le` label is reserved).
  std::string SnapshotPrometheus() const;

  /// Writes SnapshotJson() to `path`; false on I/O failure.
  bool DumpJson(const std::string& path) const;

  /// Zeroes every registered metric and clears span stats without
  /// invalidating pointers handed out by the getters (tests only).
  void ResetForTest();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, SpanStats> spans_;
};

}  // namespace obs
}  // namespace dlinf

#endif  // DLINF_OBS_METRICS_H_
