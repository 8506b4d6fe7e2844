#ifndef DLINF_E2EBENCH_HARNESS_H_
#define DLINF_E2EBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

/// \file
/// Shared plumbing of the end-to-end benchmark: clocks, order statistics,
/// the in-memory span tracer of the traced mode, the result report that
/// becomes the final JSON line, and small helpers for the servers' text
/// endpoints (/metrics in Prometheus form, /ingest/stats in JSON).

namespace e2e {

/// Monotonic seconds (steady_clock).
double Now();

/// Median of `values` (0 when empty). Takes a copy so callers keep order.
double Median(std::vector<double> values);

/// Arguments every workload receives.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;           ///< Smoke-test sizing.
  std::string work_dir;        ///< Per-run directory for bundles and WALs.
};

/// One span of the traced mode: a call into one layer's public function,
/// timed from the benchmark's own files.
struct SpanRecord {
  std::string name;   ///< The public call, e.g. "CandidateGeneration::Build".
  std::string layer;  ///< Module name: traj, cluster, dlinfma, nn, io, ...
  double start = 0.0;
  double end = 0.0;
  int64_t id = 0;
  int64_t parent = 0;  ///< 0 for a root span.
  int tid = 0;
};

/// In-memory span recorder, safe to call from several threads. Disabled
/// (every call a no-op) unless the run is traced. Spans nest per thread; a
/// span's parent is the innermost span open on the same thread when it
/// started.
class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  int64_t Begin(const std::string& name, const std::string& layer);
  void End(int64_t id);

  /// Records an already finished span (e.g. one request, from its
  /// scheduled send to its response) under the innermost open span.
  void AddComplete(const char* name, const char* layer, double start,
                   double end);

  /// Self time (duration minus time covered by child spans) summed per
  /// layer, over spans that start at or after `since`.
  std::map<std::string, double> SelfTimeByLayer(double since = 0.0) const;

  /// Writes every span as one Chrome trace-event JSON document.
  bool WriteChromeTrace(const std::string& path) const;

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  ///< Guarded by mu_; id == index + 1.
};

/// RAII span; records only while the tracer is enabled.
class ScopedSpan {
 public:
  ScopedSpan(const std::string& name, const std::string& layer);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_ = 0;
};

/// The run's result: named metrics with units, the correctness verdict and
/// the operation counts. Printed as the final stdout line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;

  /// Records `count` operations; `failed` of them failed.
  void Count(int64_t count, int64_t failed);

  /// A correctness-gate violation: counted as a failed operation, printed
  /// to stderr, and the run's `correct` becomes false.
  void Mismatch(const std::string& what);

  bool correct() const { return correct_; }

  /// The final JSON line, restricted to the metrics named in `keep` (in
  /// that order). A name in `keep` the run did not measure is a harness
  /// bug: it is reported as a mismatch.
  std::string FinalJson(const std::vector<std::string>& keep);

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

/// Prints one informational line ("label: text") to stdout.
void Note(const std::string& label, const std::string& text);

/// printf into a std::string.
std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// GET `path` from 127.0.0.1:`port`; empty string on failure.
std::string HttpGetBody(int port, const std::string& path);

/// Value of the Prometheus series `series` (exact text before the value,
/// e.g. `service_shard_hits{shard="0"}`) in an exposition body; -1 when
/// absent.
double PromValue(const std::string& body, const std::string& series);

/// A Prometheus histogram: (upper bound, cumulative count) per bucket.
using PromHistogram = std::vector<std::pair<double, double>>;

/// Buckets of histogram `name` (base name, no suffix); empty when absent.
PromHistogram ParsePromHistogram(const std::string& body,
                                 const std::string& name);

/// Bucket-wise `after - before` (the observations between two scrapes).
PromHistogram SubtractHistogram(const PromHistogram& after,
                                const PromHistogram& before);

/// Quantile q, interpolated linearly inside the bucket holding the rank;
/// -1 when the histogram is empty.
double HistogramQuantile(const PromHistogram& histogram, double q);

/// Integer field `key` of a flat JSON object body; -1 when absent.
int64_t JsonInt(const std::string& body, const std::string& key);

/// CPU seconds run so far by this process's threads whose OS name starts
/// with `prefix` (e.g. "qe." for the query engine's loop and shard
/// threads), from /proc/self/task/*/schedstat.
double ThreadCpuSeconds(const std::string& prefix);

/// Total size in bytes of the regular files under `dir`.
int64_t DirBytes(const std::string& dir);

}  // namespace e2e

#endif  // DLINF_E2EBENCH_HARNESS_H_
