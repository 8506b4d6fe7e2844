#include "obs/structured_log.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>

#include "obs/json_escape.h"
#include "obs/metrics.h"
#include "obs/trace_log.h"

namespace dlinf {
namespace obs {

namespace {

const char* SeverityName(LogSeverity severity) {
  switch (severity) {
    case LogSeverity::kDebug: return "debug";
    case LogSeverity::kInfo: return "info";
    case LogSeverity::kWarn: return "warn";
    case LogSeverity::kError: return "error";
  }
  return "info";
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RateBucket {
  double window_start = 0.0;
  int lines = 0;
};

/// Everything mutable behind the emit mutex.
struct SinkState {
  std::mutex mu;
  std::FILE* file = nullptr;  ///< Owned unless `is_stderr`.
  bool is_stderr = false;
  LogSeverity min_severity = LogSeverity::kInfo;
  int max_lines_per_window = 200;
  double window_seconds = 1.0;
  std::map<std::string, RateBucket, std::less<>> buckets;
  int64_t emitted = 0;
  int64_t suppressed = 0;
};

SinkState& Sink() {
  static SinkState* state = new SinkState();
  return *state;
}

void CloseLocked(SinkState& state) {
  if (state.file != nullptr && !state.is_stderr) std::fclose(state.file);
  state.file = nullptr;
  state.is_stderr = false;
}

}  // namespace

namespace internal {

std::atomic<bool> g_structured_log_enabled{false};

void EmitLine(LogSeverity severity, std::string_view event,
              const std::string& fields_json) {
  // Snapshot the trace correlation outside the lock (thread-local).
  const uint64_t trace_id = TraceScope::CurrentTraceId();
  const double wall = WallSeconds();

  SinkState& state = Sink();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.file == nullptr) return;  // Closed since the enabled check.
  if (severity < state.min_severity) return;

  if (state.max_lines_per_window > 0) {
    const auto it = state.buckets.find(event);
    RateBucket& bucket =
        it != state.buckets.end()
            ? it->second
            : state.buckets.emplace(std::string(event), RateBucket{})
                  .first->second;
    const double now = SteadySeconds();
    if (now - bucket.window_start >= state.window_seconds) {
      bucket.window_start = now;
      bucket.lines = 0;
    }
    if (bucket.lines >= state.max_lines_per_window) {
      ++state.suppressed;
      MetricsRegistry::Global().GetCounter("obs.log.suppressed")->Add(1);
      return;
    }
    ++bucket.lines;
  }

  std::fprintf(state.file, "{\"ts\":%.6f,\"level\":\"%s\",\"event\":\"%s\"",
               wall, SeverityName(severity),
               JsonEscape(event).c_str());
  if (trace_id != 0) {
    std::fprintf(state.file, ",\"trace_id\":%llu",
                 static_cast<unsigned long long>(trace_id));
  }
  std::fwrite(fields_json.data(), 1, fields_json.size(), state.file);
  std::fputs("}\n", state.file);
  std::fflush(state.file);
  ++state.emitted;
  MetricsRegistry::Global().GetCounter("obs.log.lines")->Add(1);
}

}  // namespace internal

StructuredLog& StructuredLog::Global() {
  static StructuredLog* log = new StructuredLog();
  return *log;
}

bool StructuredLog::OpenFile(const std::string& path) {
  SinkState& state = Sink();
  std::lock_guard<std::mutex> lock(state.mu);
  CloseLocked(state);
  state.file = std::fopen(path.c_str(), "w");
  if (state.file == nullptr) {
    internal::g_structured_log_enabled.store(false,
                                             std::memory_order_release);
    return false;
  }
  state.buckets.clear();
  internal::g_structured_log_enabled.store(true, std::memory_order_release);
  return true;
}

void StructuredLog::UseStderr() {
  SinkState& state = Sink();
  std::lock_guard<std::mutex> lock(state.mu);
  CloseLocked(state);
  state.file = stderr;
  state.is_stderr = true;
  state.buckets.clear();
  internal::g_structured_log_enabled.store(true, std::memory_order_release);
}

void StructuredLog::Close() {
  SinkState& state = Sink();
  internal::g_structured_log_enabled.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(state.mu);
  CloseLocked(state);
}

void StructuredLog::SetMinSeverity(LogSeverity severity) {
  SinkState& state = Sink();
  std::lock_guard<std::mutex> lock(state.mu);
  state.min_severity = severity;
}

LogSeverity StructuredLog::min_severity() const {
  SinkState& state = Sink();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.min_severity;
}

void StructuredLog::SetRateLimit(int max_lines, double window_seconds) {
  SinkState& state = Sink();
  std::lock_guard<std::mutex> lock(state.mu);
  state.max_lines_per_window = max_lines;
  state.window_seconds = window_seconds > 0.0 ? window_seconds : 1.0;
  state.buckets.clear();
}

int64_t StructuredLog::emitted_lines() const {
  SinkState& state = Sink();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.emitted;
}

int64_t StructuredLog::suppressed_lines() const {
  SinkState& state = Sink();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.suppressed;
}

LogLine::LogLine(LogSeverity severity, std::string_view event)
    : active_(StructuredLogEnabled()), severity_(severity) {
  if (active_) event_ = std::string(event);
}

LogLine::~LogLine() {
  if (active_) internal::EmitLine(severity_, event_, fields_);
}

LogLine& LogLine::Str(std::string_view key, std::string_view value) {
  if (active_) {
    fields_ += ",\"";
    fields_ += key;
    fields_ += "\":\"";
    fields_ += JsonEscape(value);
    fields_ += "\"";
  }
  return *this;
}

LogLine& LogLine::Num(std::string_view key, double value) {
  if (active_) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    fields_ += ",\"";
    fields_ += key;
    fields_ += "\":";
    fields_ += buffer;
  }
  return *this;
}

LogLine& LogLine::Int(std::string_view key, int64_t value) {
  if (active_) {
    fields_ += ",\"";
    fields_ += key;
    fields_ += "\":";
    fields_ += std::to_string(value);
  }
  return *this;
}

LogLine& LogLine::Bool(std::string_view key, bool value) {
  if (active_) {
    fields_ += ",\"";
    fields_ += key;
    fields_ += "\":";
    fields_ += value ? "true" : "false";
  }
  return *this;
}

}  // namespace obs
}  // namespace dlinf
