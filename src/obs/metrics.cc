#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

#include "common/check.h"
#include "obs/json_escape.h"

namespace dlinf {
namespace obs {

namespace {

std::atomic<bool> g_metrics_enabled{true};

/// Lock-free add for pre-C++20-fetch_add-on-double portability.
void AtomicAdd(std::atomic<double>* target, double delta) {
  double expected = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(expected, expected + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* target, double value) {
  double expected = target->load(std::memory_order_relaxed);
  while (value < expected &&
         !target->compare_exchange_weak(expected, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  double expected = target->load(std::memory_order_relaxed);
  while (value > expected &&
         !target->compare_exchange_weak(expected, value,
                                        std::memory_order_relaxed)) {
  }
}

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

/// Prometheus metric names allow only [a-zA-Z0-9_:]; we keep `:` reserved
/// for recording rules and fold everything else to `_`.
std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, 1, '_');
  return out;
}

/// Expands the registry's label convention into an exposition series name:
/// `base#k1=v1#k2=v2` becomes `base{k1="v1",k2="v2"}` (with `base` folded
/// through PrometheusName). `*base_out` receives the folded base so callers
/// can dedupe `# TYPE` lines across the base series and its labeled
/// variants. A plain name passes through unchanged.
std::string PrometheusLabelEscape(const std::string& s);
std::string PrometheusSeries(const std::string& name, std::string* base_out) {
  const size_t hash = name.find('#');
  if (hash == std::string::npos) {
    *base_out = PrometheusName(name);
    return *base_out;
  }
  *base_out = PrometheusName(name.substr(0, hash));
  std::string labels;
  size_t pos = hash;
  while (pos != std::string::npos) {
    const size_t next = name.find('#', pos + 1);
    const std::string pair =
        name.substr(pos + 1, next == std::string::npos
                                 ? std::string::npos
                                 : next - pos - 1);
    const size_t eq = pair.find('=');
    const std::string key = eq == std::string::npos ? pair : pair.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : pair.substr(eq + 1);
    if (!labels.empty()) labels += ",";
    labels += PrometheusName(key) + "=\"" + PrometheusLabelEscape(value) +
              "\"";
    pos = next;
  }
  return *base_out + "{" + labels + "}";
}

/// Label values escape `\`, `"` and newline per the exposition format.
std::string PrometheusLabelEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

double Histogram::BucketUpperBound(int i) {
  CHECK(i >= 0 && i < kNumBuckets);
  if (i == kNumBuckets - 1) return std::numeric_limits<double>::infinity();
  return kMinBound * std::pow(kGrowth, i);
}

void Histogram::Observe(double value) {
  if (!MetricsEnabled()) return;
  int bucket = 0;
  if (value > kMinBound) {
    bucket = 1 + static_cast<int>(std::log(value / kMinBound) /
                                  std::log(kGrowth));
    if (bucket >= kNumBuckets) bucket = kNumBuckets - 1;
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, value);
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::Quantile(double q) const {
  const int64_t total = count();
  if (total == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the target observation (1-based ceil, so q=1 -> total).
  const int64_t rank =
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * total)));
  int64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= rank) {
      // Clamp the open-ended bounds to observed extrema for usable numbers.
      if (i == kNumBuckets - 1) return max();
      return std::min(BucketUpperBound(i), max());
    }
  }
  return max();
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  CHECK(gauges_.count(name) == 0 && histograms_.count(name) == 0)
      << "metric" << name << "already registered with a different kind";
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  CHECK(counters_.count(name) == 0 && histograms_.count(name) == 0)
      << "metric" << name << "already registered with a different kind";
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  CHECK(counters_.count(name) == 0 && gauges_.count(name) == 0)
      << "metric" << name << "already registered with a different kind";
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::RecordSpan(const std::string& path, double seconds) {
  if (!MetricsEnabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  SpanStats& stats = spans_[path];
  if (stats.count == 0) {
    stats.min_seconds = seconds;
    stats.max_seconds = seconds;
  } else {
    stats.min_seconds = std::min(stats.min_seconds, seconds);
    stats.max_seconds = std::max(stats.max_seconds, seconds);
  }
  ++stats.count;
  stats.total_seconds += seconds;
}

std::string MetricsRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) +
           "\": " + std::to_string(counter->value());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": " + FormatDouble(gauge->value());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": {\"count\": " +
           std::to_string(hist->count()) +
           ", \"sum\": " + FormatDouble(hist->sum()) +
           ", \"min\": " + FormatDouble(hist->min()) +
           ", \"max\": " + FormatDouble(hist->max()) +
           ", \"p50\": " + FormatDouble(hist->Quantile(0.50)) +
           ", \"p95\": " + FormatDouble(hist->Quantile(0.95)) +
           ", \"p99\": " + FormatDouble(hist->Quantile(0.99)) + "}";
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"spans\": {";
  first = true;
  for (const auto& [path, stats] : spans_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(path) + "\": {\"count\": " +
           std::to_string(stats.count) +
           ", \"total_seconds\": " + FormatDouble(stats.total_seconds) +
           ", \"min_seconds\": " + FormatDouble(stats.min_seconds) +
           ", \"max_seconds\": " + FormatDouble(stats.max_seconds) + "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string MetricsRegistry::SnapshotPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  // One # TYPE line per exposition family: a labeled series
  // (`base#shard=0`) shares its family with the plain `base` series, so the
  // TYPE line is emitted only on the family's first appearance.
  std::set<std::string> typed;
  for (const auto& [name, counter] : counters_) {
    std::string base;
    const std::string series = PrometheusSeries(name, &base);
    if (typed.insert(base).second) out += "# TYPE " + base + " counter\n";
    out += series + " " + std::to_string(counter->value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    std::string base;
    const std::string series = PrometheusSeries(name, &base);
    if (typed.insert(base).second) out += "# TYPE " + base + " gauge\n";
    out += series + " " + FormatDouble(gauge->value()) + "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " histogram\n";
    // Cumulative bucket counts; per-bucket relaxed loads may lag each other
    // under concurrent observation, which Prometheus tolerates (counts are
    // monotone per scrape).
    int64_t cumulative = 0;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      cumulative += hist->BucketCount(i);
      const std::string le =
          i == Histogram::kNumBuckets - 1
              ? "+Inf"
              : FormatDouble(Histogram::BucketUpperBound(i));
      out += prom + "_bucket{le=\"" + le + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += prom + "_sum " + FormatDouble(hist->sum()) + "\n";
    out += prom + "_count " + std::to_string(hist->count()) + "\n";
  }
  if (!spans_.empty()) {
    out += "# TYPE dlinf_span_count counter\n";
    for (const auto& [path, stats] : spans_) {
      out += "dlinf_span_count{path=\"" + PrometheusLabelEscape(path) +
             "\"} " + std::to_string(stats.count) + "\n";
    }
    out += "# TYPE dlinf_span_seconds_total counter\n";
    for (const auto& [path, stats] : spans_) {
      out += "dlinf_span_seconds_total{path=\"" + PrometheusLabelEscape(path) +
             "\"} " + FormatDouble(stats.total_seconds) + "\n";
    }
  }
  return out;
}

bool MetricsRegistry::DumpJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::string json = SnapshotJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), file) ==
                  json.size();
  return std::fclose(file) == 0 && ok;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
  spans_.clear();
}

}  // namespace obs
}  // namespace dlinf
