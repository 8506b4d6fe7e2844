#include "harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <system_error>

#include "apps/http_conn.h"

namespace e2e {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

namespace {

/// Open span ids of the calling thread, innermost last.
thread_local std::vector<int64_t> t_open_spans;

/// Small per-thread index for the trace's tid field.
int ThreadIndex() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

int64_t Tracer::Begin(const std::string& name, const std::string& layer) {
  if (!enabled()) return 0;
  SpanRecord span;
  span.name = name;
  span.layer = layer;
  span.parent = t_open_spans.empty() ? 0 : t_open_spans.back();
  span.tid = ThreadIndex();
  span.start = Now();
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int64_t>(spans_.size()) + 1;
  spans_.push_back(std::move(span));
  t_open_spans.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(int64_t id) {
  if (!enabled() || id <= 0) return;
  const double now = Now();
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id - 1)].end = now;
}

void Tracer::AddComplete(const char* name, const char* layer, double start,
                         double end) {
  if (!enabled()) return;
  SpanRecord span;
  span.name = name;
  span.layer = layer;
  span.parent = t_open_spans.empty() ? 0 : t_open_spans.back();
  span.tid = ThreadIndex();
  span.start = start;
  span.end = end;
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int64_t>(spans_.size()) + 1;
  spans_.push_back(std::move(span));
}

std::map<std::string, double> Tracer::SelfTimeByLayer(double since) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_time(spans_.size() + 1, 0.0);
  for (const SpanRecord& span : spans_) {
    if (span.parent > 0) {
      child_time[static_cast<size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, double> self;
  for (const SpanRecord& span : spans_) {
    if (span.start < since) continue;
    self[span.layer] += (span.end - span.start) -
                        child_time[static_cast<size_t>(span.id)];
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(file, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", span.name.c_str(), span.layer.c_str(),
                 span.tid, (span.start - origin) * 1e6,
                 (span.end - span.start) * 1e6,
                 static_cast<long long>(span.id),
                 static_cast<long long>(span.parent));
  }
  std::fprintf(file, "],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(file) == 0;
}

ScopedSpan::ScopedSpan(const std::string& name, const std::string& layer)
    : id_(Tracer::Get().Begin(name, layer)) {}

ScopedSpan::~ScopedSpan() { Tracer::Get().End(id_); }

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

double Report::Get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? std::numeric_limits<double>::quiet_NaN()
                              : it->second.first;
}

void Report::Count(int64_t count, int64_t failed) {
  attempted_ += count;
  failed_ += failed;
}

void Report::Mismatch(const std::string& what) {
  std::fprintf(stderr, "correctness: %s\n", what.c_str());
  ++attempted_;
  ++failed_;
  correct_ = false;
}

std::string Report::FinalJson(const std::vector<std::string>& keep) {
  std::string metrics;
  for (const std::string& name : keep) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      Mismatch("metric " + name + " was not measured");
      continue;
    }
    double value = it->second.first;
    if (!std::isfinite(value)) {
      Mismatch("metric " + name + " is not finite");
      value = -1.0;
    }
    if (!metrics.empty()) metrics += ",";
    metrics += Fmt("\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", name.c_str(),
                   value, it->second.second.c_str());
  }
  return Fmt("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
             "\"metrics\":{%s}}",
             correct_ ? "true" : "false",
             static_cast<long long>(std::max<int64_t>(attempted_, 1)),
             static_cast<long long>(failed_), metrics.c_str());
}

void Note(const std::string& label, const std::string& text) {
  std::printf("%s: %s\n", label.c_str(), text.c_str());
  std::fflush(stdout);
}

std::string Fmt(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list copy;
  va_copy(copy, args);
  const int size = std::vsnprintf(nullptr, 0, format, copy);
  va_end(copy);
  std::string out(size > 0 ? static_cast<size_t>(size) : 0, '\0');
  if (size > 0) std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

std::string HttpGetBody(int port, const std::string& path) {
  int status = 0;
  std::string body;
  if (!dlinf::apps::HttpGetOnce(port, path, &status, &body) ||
      status != 200) {
    return "";
  }
  return body;
}

double PromValue(const std::string& body, const std::string& series) {
  size_t pos = 0;
  while ((pos = body.find(series, pos)) != std::string::npos) {
    const bool line_start = pos == 0 || body[pos - 1] == '\n';
    const size_t after = pos + series.size();
    if (line_start && after < body.size() && body[after] == ' ') {
      return std::strtod(body.c_str() + after + 1, nullptr);
    }
    pos = after;
  }
  return -1.0;
}

PromHistogram ParsePromHistogram(const std::string& body,
                                 const std::string& name) {
  PromHistogram buckets;
  const std::string prefix = name + "_bucket{le=\"";
  size_t pos = 0;
  while ((pos = body.find(prefix, pos)) != std::string::npos) {
    const size_t le_begin = pos + prefix.size();
    const size_t le_end = body.find('"', le_begin);
    if (le_end == std::string::npos) break;
    const std::string le = body.substr(le_begin, le_end - le_begin);
    const size_t value_at = body.find(' ', le_end);
    if (value_at == std::string::npos) break;
    const double bound = le == "+Inf" ? std::numeric_limits<double>::infinity()
                                      : std::strtod(le.c_str(), nullptr);
    buckets.emplace_back(bound, std::strtod(body.c_str() + value_at + 1,
                                            nullptr));
    pos = value_at;
  }
  return buckets;
}

PromHistogram SubtractHistogram(const PromHistogram& after,
                                const PromHistogram& before) {
  PromHistogram out = after;
  for (size_t i = 0; i < out.size() && i < before.size(); ++i) {
    out[i].second -= before[i].second;
  }
  return out;
}

double HistogramQuantile(const PromHistogram& buckets, double q) {
  if (buckets.empty() || buckets.back().second <= 0.0) return -1.0;
  const double rank = q * buckets.back().second;
  double lower = 0.0;
  double below = 0.0;
  for (const auto& [bound, cumulative] : buckets) {
    if (cumulative >= rank && cumulative > below) {
      if (!std::isfinite(bound)) return lower;
      return lower + (bound - lower) * (rank - below) / (cumulative - below);
    }
    if (std::isfinite(bound)) lower = bound;
    below = cumulative;
  }
  return lower;
}

int64_t JsonInt(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = body.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(body.c_str() + pos + needle.size(), nullptr, 10);
}

double ThreadCpuSeconds(const std::string& prefix) {
  double total = 0.0;
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    std::getline(comm, name);
    if (name.rfind(prefix, 0) != 0) continue;
    std::ifstream schedstat(task.path() / "schedstat");
    double run_ns = 0.0;
    if (schedstat >> run_ns) total += run_ns * 1e-9;
  }
  return total;
}

int64_t DirBytes(const std::string& dir) {
  std::error_code ec;
  int64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return total;
}

}  // namespace e2e
