#include "obs/trace_log.h"

#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <vector>

#include "obs/json_escape.h"

namespace dlinf {
namespace obs {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded event. Fixed-size name copy keeps slots POD and recording
/// free of allocation; longer names truncate (kMaxNameLength).
struct TraceEvent {
  double ts_us = 0.0;
  uint64_t trace_id = 0;
  char phase = 'B';
  char name[TraceLog::kMaxNameLength + 1] = {0};
};

/// One thread's ring. The mutex is effectively private to the owning thread
/// (exporters are the only other lockers), so recording stays lock-light.
struct ThreadRing {
  std::mutex mu;
  uint32_t tid = 0;
  uint64_t generation = 0;  ///< Recording generation the ring belongs to.
  uint64_t next = 0;        ///< Events written this generation.
  char name[64] = {0};      ///< SetCurrentThreadName; "" until named.
  std::vector<TraceEvent> slots;
};

struct TraceContext {
  uint64_t trace_id = 0;
  bool sampled = false;
  bool has_scope = false;
};

std::atomic<uint64_t> g_next_trace_id{1};
std::atomic<uint64_t> g_generation{1};
std::atomic<double> g_sample_rate{1.0};
std::atomic<double> g_origin_seconds{0.0};
std::atomic<int64_t> g_dropped{0};

std::mutex& RegistryMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

/// Rings are registered once per thread and never freed: a thread may exit
/// while its events are still exportable, and thread_local pointers into
/// the registry must stay valid for the process lifetime.
std::vector<ThreadRing*>& Rings() {
  static std::vector<ThreadRing*>* rings = new std::vector<ThreadRing*>();
  return *rings;
}

TraceContext& ThreadTraceContext() {
  thread_local TraceContext context;
  return context;
}

ThreadRing* ThisThreadRing() {
  thread_local ThreadRing* ring = [] {
    auto* fresh = new ThreadRing();
    std::lock_guard<std::mutex> lock(RegistryMutex());
    fresh->tid = static_cast<uint32_t>(Rings().size());
    Rings().push_back(fresh);
    return fresh;
  }();
  return ring;
}

/// Deterministic per-trace sampling: a splitmix64 hash of the trace id
/// against the rate threshold, so the same id draws the same decision on
/// every thread and every run.
bool SampleTrace(uint64_t trace_id, double rate) {
  if (rate >= 1.0) return true;
  if (rate <= 0.0) return false;
  uint64_t x = trace_id + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<double>(x) <
         rate * 18446744073709551616.0;  // 2^64.
}

}  // namespace

namespace internal {

std::atomic<bool> g_tracing_armed{false};

bool CurrentTraceSampled() {
  const TraceContext& context = ThreadTraceContext();
  return context.has_scope ? context.sampled : true;
}

void RecordEvent(char phase, std::string_view name) {
  if (!CurrentTraceSampled()) return;
  ThreadRing* ring = ThisThreadRing();
  const double ts_us =
      (NowSeconds() - g_origin_seconds.load(std::memory_order_relaxed)) * 1e6;
  const uint64_t trace_id = ThreadTraceContext().trace_id;

  std::lock_guard<std::mutex> lock(ring->mu);
  const uint64_t generation = g_generation.load(std::memory_order_acquire);
  if (ring->generation != generation) {
    // Lazily join the current recording: stale events from the previous
    // Start() are dropped wholesale (the exporter skips stale rings).
    ring->generation = generation;
    ring->next = 0;
    ring->slots.clear();
  }
  if (ring->slots.size() <
      static_cast<size_t>(TraceLog::kRingCapacity)) {
    ring->slots.emplace_back();
  } else if (ring->next >= static_cast<uint64_t>(TraceLog::kRingCapacity)) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  TraceEvent& slot =
      ring->slots[ring->next % static_cast<uint64_t>(TraceLog::kRingCapacity)];
  slot.ts_us = ts_us;
  slot.trace_id = trace_id;
  slot.phase = phase;
  const size_t length = std::min(name.size(),
                                 static_cast<size_t>(TraceLog::kMaxNameLength));
  std::memcpy(slot.name, name.data(), length);
  slot.name[length] = '\0';
  ++ring->next;
}

}  // namespace internal

uint64_t NextTraceId() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

void SetCurrentThreadName(std::string_view name) {
  // The kernel limit is 15 chars + NUL; keep the full name for exports.
  char kernel_name[16];
  const size_t kernel_length = std::min(name.size(), sizeof(kernel_name) - 1);
  std::memcpy(kernel_name, name.data(), kernel_length);
  kernel_name[kernel_length] = '\0';
  pthread_setname_np(pthread_self(), kernel_name);

  ThreadRing* ring = ThisThreadRing();
  std::lock_guard<std::mutex> lock(ring->mu);
  const size_t length = std::min(name.size(), sizeof(ring->name) - 1);
  std::memcpy(ring->name, name.data(), length);
  ring->name[length] = '\0';
}

TraceScope::TraceScope() : TraceScope(0) {}

TraceScope::TraceScope(uint64_t trace_id) {
  if (!TracingArmed()) return;
  active_ = true;
  trace_id_ = trace_id != 0 ? trace_id : NextTraceId();
  sampled_ = SampleTrace(trace_id_,
                         g_sample_rate.load(std::memory_order_relaxed));
  TraceContext& context = ThreadTraceContext();
  parent_id_ = context.trace_id;
  parent_sampled_ = context.sampled;
  context.trace_id = trace_id_;
  context.sampled = sampled_;
  context.has_scope = true;
}

TraceScope::~TraceScope() {
  if (!active_) return;
  TraceContext& context = ThreadTraceContext();
  context.trace_id = parent_id_;
  context.sampled = parent_sampled_;
  context.has_scope = parent_id_ != 0;
}

uint64_t TraceScope::CurrentTraceId() {
  return ThreadTraceContext().trace_id;
}

TraceLog& TraceLog::Global() {
  static TraceLog* log = new TraceLog();
  return *log;
}

void TraceLog::Start(double sample_rate) {
  g_sample_rate.store(sample_rate, std::memory_order_relaxed);
  g_origin_seconds.store(NowSeconds(), std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  // Bumping the generation invalidates every ring's prior contents without
  // touching them here: each thread resets its own ring on its next record,
  // and the exporter skips rings still on an old generation.
  g_generation.fetch_add(1, std::memory_order_acq_rel);
  internal::g_tracing_armed.store(true, std::memory_order_release);
}

void TraceLog::Stop() {
  internal::g_tracing_armed.store(false, std::memory_order_release);
}

void TraceLog::SetSampleRate(double sample_rate) {
  g_sample_rate.store(sample_rate, std::memory_order_relaxed);
}

double TraceLog::sample_rate() const {
  return g_sample_rate.load(std::memory_order_relaxed);
}

void TraceLog::AppendChromeEvents(std::string* out, bool* first) const {
  std::vector<ThreadRing*> rings;
  {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    rings = Rings();
  }
  const uint64_t generation = g_generation.load(std::memory_order_acquire);

  // Metadata first: named tracks render labeled in Perfetto. Unnamed-only
  // processes emit no metadata at all, keeping legacy exports byte-stable.
  bool any_named = false;
  for (ThreadRing* ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    if (ring->name[0] != '\0') any_named = true;
  }
  if (any_named) {
    if (!*first) *out += ",\n";
    *first = false;
    *out +=
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"dlinf\"}}";
    for (ThreadRing* ring : rings) {
      std::lock_guard<std::mutex> lock(ring->mu);
      if (ring->name[0] == '\0') continue;
      *out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
              std::to_string(ring->tid) + ",\"args\":{\"name\":\"" +
              JsonEscape(ring->name) + "\"}}";
    }
  }

  char buffer[192];
  for (ThreadRing* ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    if (ring->generation != generation) continue;  // Pre-Start leftovers.
    const uint64_t capacity = static_cast<uint64_t>(kRingCapacity);
    const uint64_t count = std::min(ring->next, capacity);
    const uint64_t begin = ring->next - count;
    for (uint64_t i = 0; i < count; ++i) {
      const TraceEvent& event = ring->slots[(begin + i) % capacity];
      if (!*first) *out += ",\n";
      *first = false;
      *out += "{\"name\":\"" + JsonEscape(event.name) + "\",\"ph\":\"";
      out->push_back(event.phase);
      *out += "\",";
      if (event.phase == 'i') *out += "\"s\":\"t\",";
      std::snprintf(buffer, sizeof(buffer),
                    "\"ts\":%.3f,\"pid\":1,\"tid\":%u,"
                    "\"args\":{\"trace_id\":%llu}}",
                    event.ts_us, ring->tid,
                    static_cast<unsigned long long>(event.trace_id));
      *out += buffer;
    }
  }
}

double TraceLog::origin_seconds() const {
  return g_origin_seconds.load(std::memory_order_relaxed);
}

std::string TraceLog::ExportChromeJson() const {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  AppendChromeEvents(&out, &first);
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool TraceLog::ExportChromeJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::string json = ExportChromeJson();
  const bool ok =
      std::fwrite(json.data(), 1, json.size(), file) == json.size();
  return std::fclose(file) == 0 && ok;
}

int64_t TraceLog::recorded_events() const {
  std::vector<ThreadRing*> rings;
  {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    rings = Rings();
  }
  const uint64_t generation = g_generation.load(std::memory_order_acquire);
  int64_t total = 0;
  for (ThreadRing* ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    if (ring->generation != generation) continue;
    total += static_cast<int64_t>(
        std::min(ring->next, static_cast<uint64_t>(kRingCapacity)));
  }
  return total;
}

int64_t TraceLog::dropped_events() const {
  return g_dropped.load(std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace dlinf
