#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "obs/json_escape.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dlinf {
namespace obs {
namespace {

TEST(CounterTest, AddAndReset) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(3.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.5);
  gauge.Add(-1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.0);
  gauge.Set(0.25);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.25);
}

TEST(GaugeTest, ConcurrentAddsAreLossless) {
  // Gauge::Add is a CAS loop, not a racy load/store pair: N threads x M
  // unit adds must land exactly, the same contract the counter test checks.
  constexpr int kThreads = 8;
  constexpr int kAdds = 25000;
  Gauge gauge;
  {
    ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.Submit([&gauge] {
        for (int i = 0; i < kAdds; ++i) gauge.Add(1.0);
      });
    }
    pool.Wait();
  }
  EXPECT_DOUBLE_EQ(gauge.value(),
                   static_cast<double>(kThreads) * kAdds);
}

TEST(MetricsEnabledTest, DisabledUpdatesAreDropped) {
  Counter counter;
  Gauge gauge;
  Histogram histogram;
  SetMetricsEnabled(false);
  counter.Add(5);
  gauge.Set(9.0);
  histogram.Observe(1.0);
  SetMetricsEnabled(true);
  EXPECT_EQ(counter.value(), 0);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.count(), 0);
  counter.Add(5);
  EXPECT_EQ(counter.value(), 5);
}

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram histogram;
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0);
}

TEST(HistogramTest, CountSumMinMaxAreExact) {
  Histogram histogram;
  const std::vector<double> values = {0.001, 0.25, 0.5, 2.0, 10.0};
  double sum = 0.0;
  for (double v : values) {
    histogram.Observe(v);
    sum += v;
  }
  EXPECT_EQ(histogram.count(), static_cast<int64_t>(values.size()));
  EXPECT_DOUBLE_EQ(histogram.sum(), sum);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.001);
  EXPECT_DOUBLE_EQ(histogram.max(), 10.0);
}

TEST(HistogramTest, QuantilesWithinBucketResolution) {
  Histogram histogram;
  // 1..1000 milliseconds, uniformly.
  for (int i = 1; i <= 1000; ++i) histogram.Observe(i * 1e-3);
  // Bucket growth is ~1.56x, so estimates are within that factor above the
  // true quantile (the estimate is the containing bucket's upper bound).
  const double p50 = histogram.Quantile(0.50);
  const double p95 = histogram.Quantile(0.95);
  const double p99 = histogram.Quantile(0.99);
  EXPECT_GE(p50, 0.500);
  EXPECT_LE(p50, 0.500 * Histogram::kGrowth);
  EXPECT_GE(p95, 0.950);
  EXPECT_LE(p95, 0.950 * Histogram::kGrowth);
  EXPECT_GE(p99, 0.990);
  EXPECT_LE(p99, 0.990 * Histogram::kGrowth);
  // Monotone in q, and q=1 hits the exact max.
  EXPECT_LE(histogram.Quantile(0.0), p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 1.0);
}

TEST(HistogramTest, SingleObservationQuantiles) {
  Histogram histogram;
  histogram.Observe(0.125);
  // Every quantile clamps to the one observed value (bucket bound clamped
  // to the observed max).
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.0), 0.125);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.125);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 0.125);
}

TEST(HistogramTest, OutOfRangeValuesLandInEdgeBuckets) {
  Histogram histogram;
  histogram.Observe(0.0);    // Below kMinBound: bucket 0.
  histogram.Observe(1e9);    // Beyond the last bound: last bucket.
  EXPECT_EQ(histogram.count(), 2);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 1e9);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 1e9);
}

TEST(HistogramTest, QuantileClampsOutOfRangeQ) {
  Histogram histogram;
  histogram.Observe(0.25);
  histogram.Observe(0.75);
  EXPECT_DOUBLE_EQ(histogram.Quantile(-1.0), histogram.Quantile(0.0));
  EXPECT_DOUBLE_EQ(histogram.Quantile(2.0), histogram.Quantile(1.0));
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 0.75);
}

TEST(HistogramTest, BelowMinBoundObservationsQuantizeToObservedMax) {
  // Everything at or below kMinBound shares bucket 0; the quantile clamps
  // the bucket's upper bound (kMinBound) to the observed max, so a
  // histogram full of sub-microsecond values does not report 1 us.
  Histogram histogram;
  for (int i = 0; i < 10; ++i) histogram.Observe(1e-9);
  EXPECT_EQ(histogram.BucketCount(0), 10);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 1e-9);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 1e-9);
}

TEST(HistogramTest, OpenEndedTopBucketQuantilesReportObservedMax) {
  // The last bucket's bound is +inf; quantiles that land there must report
  // the observed max, not infinity.
  Histogram histogram;
  histogram.Observe(1e9);
  histogram.Observe(2e9);
  EXPECT_EQ(histogram.BucketCount(Histogram::kNumBuckets - 1), 2);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 2e9);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 2e9);
  EXPECT_TRUE(std::isfinite(histogram.Quantile(0.99)));
}

TEST(HistogramTest, BucketCountsCoverEveryObservation) {
  Histogram histogram;
  const std::vector<double> values = {0.0, 1e-7, 1e-3, 0.5, 2.0, 1e9};
  for (double v : values) histogram.Observe(v);
  int64_t total = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    total += histogram.BucketCount(i);
  }
  EXPECT_EQ(total, static_cast<int64_t>(values.size()));
  EXPECT_EQ(histogram.BucketCount(0), 2);  // 0.0 and 1e-7 <= kMinBound.
}

TEST(RegistryTest, GetterReturnsStablePointersPerName) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.counter");
  EXPECT_EQ(registry.GetCounter("test.counter"), counter);
  EXPECT_NE(registry.GetCounter("test.other"), counter);
  Histogram* histogram = registry.GetHistogram("test.hist");
  EXPECT_EQ(registry.GetHistogram("test.hist"), histogram);
}

/// The body of one top-level section of a SnapshotJson() document: from
/// the `"name"` key up to the next section's key (or the end).
std::string Section(const std::string& json, const std::string& name,
                    const std::string& next) {
  const size_t begin = json.find("\"" + name + "\"");
  const size_t end =
      next.empty() ? json.size() : json.find("\"" + next + "\"");
  if (begin == std::string::npos || end == std::string::npos) return "";
  return json.substr(begin, end - begin);
}

TEST(RegistryTest, SnapshotJsonRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("rt.queries")->Add(17);
  registry.GetCounter("rt.errors")->Add(2);
  registry.GetGauge("rt.depth")->Set(4);
  registry.GetHistogram("rt.latency")->Observe(0.5);
  registry.RecordSpan("rt_stage", 1.5);

  // Every registered entry appears exactly once, in its own section.
  const std::string json = registry.SnapshotJson();
  size_t entries = 0;
  for (size_t at = json.find("\"rt"); at != std::string::npos;
       at = json.find("\"rt", at + 1)) {
    ++entries;
  }
  EXPECT_EQ(entries, 5u) << json;
  const std::string counters = Section(json, "counters", "gauges");
  EXPECT_NE(counters.find("\"rt.queries\": 17"), std::string::npos);
  EXPECT_NE(counters.find("\"rt.errors\": 2"), std::string::npos);
  EXPECT_NE(Section(json, "gauges", "histograms").find("\"rt.depth\": 4"),
            std::string::npos);
  EXPECT_NE(Section(json, "histograms", "spans")
                .find("\"rt.latency\": {\"count\": 1, \"sum\": 0.5,"),
            std::string::npos);
  EXPECT_NE(Section(json, "spans", "")
                .find("\"rt_stage\": {\"count\": 1, \"total_seconds\": 1.5"),
            std::string::npos);
}

TEST(JsonEscapeTest, ControlCharactersAreEscapedNeverLost) {
  // The short escapes, then \u00XX for every other control character;
  // printable ASCII and UTF-8 bytes pass through unchanged.
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("\n\r\t"), "\\n\\r\\t");
  EXPECT_EQ(JsonEscape(std::string("\x00\x01\x1f", 3)),
            "\\u0000\\u0001\\u001f");
  EXPECT_EQ(JsonEscape("caf\xc3\xa9 \x7f"), "caf\xc3\xa9 \x7f");
  for (int c = 0; c < 0x20; ++c) {
    const std::string escaped =
        JsonEscape(std::string(1, static_cast<char>(c)));
    EXPECT_EQ(escaped[0], '\\') << "control 0x" << std::hex << c;
    EXPECT_EQ(escaped.find('?'), std::string::npos);
  }

  // The registry's snapshot goes through the same escaper.
  MetricsRegistry registry;
  registry.GetCounter("ctl\x01name\t")->Add(1);
  EXPECT_NE(registry.SnapshotJson().find("\"ctl\\u0001name\\t\": 1"),
            std::string::npos);
}

TEST(RegistryTest, SnapshotJsonCarriesAllSectionsAndValues) {
  MetricsRegistry registry;
  registry.GetCounter("js.count")->Add(7);
  registry.GetGauge("js.gauge")->Set(2.5);
  Histogram* histogram = registry.GetHistogram("js.hist");
  for (int i = 0; i < 10; ++i) histogram->Observe(0.01);
  registry.RecordSpan("stage_a", 0.25);
  registry.RecordSpan("stage_a/inner", 0.125);

  const std::string json = registry.SnapshotJson();
  EXPECT_NE(json.find("\"js.count\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"js.gauge\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"js.hist\": {\"count\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"stage_a\": {\"count\": 1, \"total_seconds\": 0.25"),
            std::string::npos);
  EXPECT_NE(json.find("\"stage_a/inner\""), std::string::npos);

  // Snapshotting is read-only and deterministic.
  EXPECT_EQ(registry.SnapshotJson(), json);
}

TEST(RegistryTest, SnapshotPrometheusSanitizesNamesAndTypesMetrics) {
  MetricsRegistry registry;
  registry.GetCounter("service.query.hits")->Add(7);
  registry.GetGauge("9weird-name")->Set(1.5);
  const std::string prom = registry.SnapshotPrometheus();
  // Dots fold to underscores; a leading digit gets prefixed so the series
  // name stays a valid Prometheus identifier.
  EXPECT_NE(prom.find("# TYPE service_query_hits counter\n"),
            std::string::npos);
  EXPECT_NE(prom.find("service_query_hits 7\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE _9weird_name gauge\n"), std::string::npos);
  EXPECT_EQ(prom.find("service.query.hits"), std::string::npos);
}

TEST(RegistryTest, SnapshotPrometheusHistogramBucketsAreCumulative) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("service.query.latency");
  histogram->Observe(1e-9);  // Bucket 0.
  histogram->Observe(0.5);
  histogram->Observe(1e9);  // Open-ended top bucket.
  const std::string prom = registry.SnapshotPrometheus();
  EXPECT_NE(prom.find("# TYPE service_query_latency histogram\n"),
            std::string::npos);
  // The +Inf bucket carries the full count, and the cumulative counts never
  // decrease from one bucket line to the next.
  EXPECT_NE(prom.find("service_query_latency_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("service_query_latency_count 3\n"), std::string::npos);
  EXPECT_NE(prom.find("service_query_latency_sum "), std::string::npos);
  std::istringstream lines(prom);
  std::string line;
  int64_t previous = 0;
  int bucket_lines = 0;
  while (std::getline(lines, line)) {
    const std::string prefix = "service_query_latency_bucket{le=";
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos);
    const int64_t cumulative = std::stoll(line.substr(space + 1));
    EXPECT_GE(cumulative, previous) << line;
    previous = cumulative;
    ++bucket_lines;
  }
  EXPECT_EQ(bucket_lines, Histogram::kNumBuckets);
  EXPECT_EQ(previous, 3);
}

TEST(RegistryTest, SnapshotPrometheusExportsSpansAsLabeledSeries) {
  MetricsRegistry registry;
  registry.RecordSpan("bundle_reload", 0.25);
  registry.RecordSpan("bundle_reload/bundle_validate", 0.125);
  const std::string prom = registry.SnapshotPrometheus();
  EXPECT_NE(prom.find("# TYPE dlinf_span_count counter\n"),
            std::string::npos);
  EXPECT_NE(prom.find("dlinf_span_count{path=\"bundle_reload\"} 1\n"),
            std::string::npos);
  EXPECT_NE(
      prom.find(
          "dlinf_span_seconds_total{path=\"bundle_reload/bundle_validate\"}"),
      std::string::npos);
}

TEST(RegistryTest, ResetForTestZeroesWithoutInvalidatingPointers) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("reset.counter");
  Histogram* histogram = registry.GetHistogram("reset.hist");
  counter->Add(9);
  histogram->Observe(1.0);
  registry.ResetForTest();
  EXPECT_EQ(counter->value(), 0);
  EXPECT_EQ(histogram->count(), 0);
  EXPECT_EQ(registry.GetCounter("reset.counter"), counter);
  counter->Add(1);
  EXPECT_EQ(counter->value(), 1);
}

TEST(RegistryTest, ConcurrentCounterIncrementsAreLossless) {
  // N threads x M increments driven through ThreadPool == N*M.
  constexpr int kThreads = 8;
  constexpr int kIncrements = 25000;
  Counter* counter =
      MetricsRegistry::Global().GetCounter("test.concurrent_counter");
  counter->Reset();
  {
    ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.Submit([counter] {
        for (int i = 0; i < kIncrements; ++i) counter->Add(1);
      });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter->value(), static_cast<int64_t>(kThreads) * kIncrements);
}

TEST(RegistryTest, ConcurrentHistogramObservationsAreLossless) {
  constexpr int kThreads = 4;
  constexpr int kObservations = 5000;
  Histogram* histogram =
      MetricsRegistry::Global().GetHistogram("test.concurrent_hist");
  histogram->Reset();
  {
    ThreadPool pool(kThreads);
    pool.ParallelFor(kThreads * kObservations,
                     [histogram](int64_t i) {
                       histogram->Observe(1e-3 * static_cast<double>(i % 100));
                     });
  }
  EXPECT_EQ(histogram->count(),
            static_cast<int64_t>(kThreads) * kObservations);
}

TEST(ScopedTimerTest, RecordsOneObservation) {
  Histogram histogram;
  { ScopedTimer timer(&histogram); }
  EXPECT_EQ(histogram.count(), 1);
  EXPECT_GE(histogram.sum(), 0.0);
}

TEST(ScopedTimerTest, NullHistogramIsNoop) {
  ScopedTimer timer(nullptr);  // Must not crash on destruction.
}

TEST(SpanTest, NestedSpansBuildSlashPaths) {
  MetricsRegistry::Global().ResetForTest();
  EXPECT_EQ(Span::CurrentPath(), "");
  {
    Span outer("outer_stage");
    EXPECT_EQ(Span::CurrentPath(), "outer_stage");
    {
      Span inner("inner_stage");
      EXPECT_EQ(Span::CurrentPath(), "outer_stage/inner_stage");
    }
    EXPECT_EQ(Span::CurrentPath(), "outer_stage");
  }
  EXPECT_EQ(Span::CurrentPath(), "");
  const std::string spans =
      Section(MetricsRegistry::Global().SnapshotJson(), "spans", "");
  EXPECT_NE(spans.find("\"outer_stage\": {\"count\": 1,"), std::string::npos);
  EXPECT_NE(spans.find("\"outer_stage/inner_stage\": {\"count\": 1,"),
            std::string::npos);
}

TEST(SpanTest, RepeatedSpansAggregate) {
  MetricsRegistry::Global().ResetForTest();
  for (int i = 0; i < 3; ++i) {
    Span span("repeated_stage");
  }
  const std::string spans =
      Section(MetricsRegistry::Global().SnapshotJson(), "spans", "");
  EXPECT_NE(spans.find("\"repeated_stage\": {\"count\": 3,"),
            std::string::npos);
}

TEST(SpanTest, DisabledMetricsSkipSpans) {
  MetricsRegistry::Global().ResetForTest();
  SetMetricsEnabled(false);
  {
    Span span("disabled_stage");
    EXPECT_EQ(Span::CurrentPath(), "");
  }
  SetMetricsEnabled(true);
  EXPECT_EQ(MetricsRegistry::Global().SnapshotJson().find("disabled_stage"),
            std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace dlinf
