// Trace recorder tests (DESIGN.md §10): Chrome trace-event JSON shape,
// nested span pairing, trace-id propagation, deterministic sampling, ring
// wrap accounting, and the disarmed no-op contract. The export writes one
// event object per line, so these tests parse it line-by-line with plain
// string scanning — no JSON library needed.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/trace_log.h"
#include "scratch_dir.h"

namespace dlinf {
namespace obs {
namespace {

using ::testing::TempDir;

struct ParsedEvent {
  std::string name;
  char phase = '?';
  double ts_us = -1.0;
  int tid = -1;
  uint64_t trace_id = 0;
  bool has_scope_hint = false;  ///< `"s":"t"` (instant-event scope field).
};

/// Extracts the value after `"key":` up to the next `,` or `}`.
std::string RawField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return "";
  const size_t start = pos + needle.size();
  size_t end = start;
  int depth = 0;
  while (end < line.size()) {
    const char c = line[end];
    if (c == '{') ++depth;
    if (c == '}' && depth-- == 0) break;
    if (c == ',' && depth == 0) break;
    ++end;
  }
  return line.substr(start, end - start);
}

std::string Unquote(const std::string& raw) {
  if (raw.size() >= 2 && raw.front() == '"' && raw.back() == '"') {
    return raw.substr(1, raw.size() - 2);
  }
  return raw;
}

/// Splits the export into its event lines and parses each. Fails the test
/// (ADD_FAILURE) on malformed lines rather than crashing.
std::vector<ParsedEvent> ParseExport(const std::string& json) {
  std::vector<ParsedEvent> events;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.compare(0, 9, "{\"name\":\"") != 0) continue;
    ParsedEvent event;
    event.name = Unquote(RawField(line, "name"));
    const std::string phase = Unquote(RawField(line, "ph"));
    if (phase.size() == 1) event.phase = phase[0];
    const std::string ts = RawField(line, "ts");
    if (!ts.empty()) event.ts_us = std::stod(ts);
    const std::string tid = RawField(line, "tid");
    if (!tid.empty()) event.tid = std::stoi(tid);
    event.has_scope_hint = Unquote(RawField(line, "s")) == "t";
    const std::string trace_id = RawField(line, "trace_id");
    if (!trace_id.empty()) {
      event.trace_id = static_cast<uint64_t>(std::stoull(trace_id));
    }
    events.push_back(event);
  }
  return events;
}

TEST(TraceLogTest, DisarmedRecordsNothing) {
  TraceLog::Global().Start(1.0);
  TraceLog::Global().Stop();
  EXPECT_FALSE(TracingArmed());
  {
    TraceScope scope;
    TraceSpan span("disarmed.span");
    TraceInstant("disarmed.instant");
    EXPECT_EQ(scope.trace_id(), 0u);
    EXPECT_EQ(TraceScope::CurrentTraceId(), 0u);
  }
  EXPECT_EQ(TraceLog::Global().recorded_events(), 0);
}

TEST(TraceLogTest, ExportIsWellFormedChromeTraceJson) {
  TraceLog::Global().Start(1.0);
  uint64_t scope_id = 0;
  {
    TraceScope scope;
    scope_id = scope.trace_id();
    ASSERT_NE(scope_id, 0u);
    EXPECT_TRUE(scope.sampled());
    EXPECT_EQ(TraceScope::CurrentTraceId(), scope_id);
    TraceSpan outer("outer_stage");
    {
      TraceSpan inner("inner_stage");
      TraceInstant("tier.retry");
    }
  }
  const std::string json = TraceLog::Global().ExportChromeJson();
  TraceLog::Global().Stop();

  EXPECT_EQ(json.compare(0, 16, "{\"traceEvents\":["), 0);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\"}"), std::string::npos);

  const std::vector<ParsedEvent> events = ParseExport(json);
  ASSERT_EQ(events.size(), 5u);  // B outer, B inner, i, E inner, E outer.
  for (const ParsedEvent& event : events) {
    EXPECT_TRUE(event.phase == 'B' || event.phase == 'E' ||
                event.phase == 'i')
        << event.name;
    EXPECT_GE(event.ts_us, 0.0);
    EXPECT_GE(event.tid, 0);
    EXPECT_EQ(event.trace_id, scope_id) << event.name;
  }
  // All on one thread, recorded in order.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].tid, events[0].tid);
    EXPECT_GE(events[i].ts_us, events[i - 1].ts_us);
  }
  // Begin/end events nest like a call stack.
  std::vector<std::string> stack;
  for (const ParsedEvent& event : events) {
    if (event.phase == 'B') {
      stack.push_back(event.name);
    } else if (event.phase == 'E') {
      ASSERT_FALSE(stack.empty()) << "unmatched E " << event.name;
      EXPECT_EQ(stack.back(), event.name);
      stack.pop_back();
    } else {
      EXPECT_TRUE(event.has_scope_hint) << "instant without s:t";
      EXPECT_EQ(event.name, "tier.retry");
    }
  }
  EXPECT_TRUE(stack.empty());
}

TEST(TraceLogTest, DistinctScopesGetDistinctStableTraceIds) {
  TraceLog::Global().Start(1.0);
  uint64_t first = 0;
  uint64_t second = 0;
  {
    TraceScope scope;
    first = scope.trace_id();
    TraceInstant("first.mark");
  }
  {
    TraceScope scope;
    second = scope.trace_id();
    TraceInstant("second.mark");
  }
  EXPECT_NE(first, 0u);
  EXPECT_NE(second, 0u);
  EXPECT_NE(first, second);

  const std::vector<ParsedEvent> events =
      ParseExport(TraceLog::Global().ExportChromeJson());
  TraceLog::Global().Stop();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].trace_id, first);
  EXPECT_EQ(events[1].trace_id, second);
}

TEST(TraceLogTest, NestedScopeWinsUntilItCloses) {
  TraceLog::Global().Start(1.0);
  {
    TraceScope outer;
    const uint64_t outer_id = outer.trace_id();
    {
      TraceScope inner;
      EXPECT_NE(inner.trace_id(), outer_id);
      EXPECT_EQ(TraceScope::CurrentTraceId(), inner.trace_id());
    }
    EXPECT_EQ(TraceScope::CurrentTraceId(), outer_id);
  }
  EXPECT_EQ(TraceScope::CurrentTraceId(), 0u);
  TraceLog::Global().Stop();
}

TEST(TraceLogTest, SamplingIsDeterministicPerTraceId) {
  TraceLog::Global().Start(0.0);
  {
    TraceScope scope;
    EXPECT_FALSE(scope.sampled());
    TraceSpan span("unsampled.span");
    TraceInstant("unsampled.instant");
  }
  EXPECT_EQ(TraceLog::Global().recorded_events(), 0);

  TraceLog::Global().SetSampleRate(1.0);
  {
    TraceScope scope;
    EXPECT_TRUE(scope.sampled());
    TraceInstant("sampled.instant");
  }
  EXPECT_EQ(TraceLog::Global().recorded_events(), 1);

  // The decision is a pure function of the trace id: adopting the same id
  // twice at a mid rate yields the same verdict both times.
  TraceLog::Global().SetSampleRate(0.5);
  for (uint64_t id = 1; id <= 32; ++id) {
    bool first;
    bool second;
    {
      TraceScope scope(id);
      first = scope.sampled();
    }
    {
      TraceScope scope(id);
      second = scope.sampled();
    }
    EXPECT_EQ(first, second) << "trace id " << id;
  }
  TraceLog::Global().Stop();
}

TEST(TraceLogTest, RingWrapKeepsNewestAndCountsDrops) {
  TraceLog::Global().Start(1.0);
  constexpr int kOverflow = 100;
  for (int i = 0; i < TraceLog::kRingCapacity + kOverflow; ++i) {
    TraceInstant(i < kOverflow ? "old.event" : "new.event");
  }
  EXPECT_EQ(TraceLog::Global().recorded_events(), TraceLog::kRingCapacity);
  EXPECT_EQ(TraceLog::Global().dropped_events(), kOverflow);
  const std::string json = TraceLog::Global().ExportChromeJson();
  TraceLog::Global().Stop();
  EXPECT_EQ(json.find("old.event"), std::string::npos);
  EXPECT_NE(json.find("new.event"), std::string::npos);
}

TEST(TraceLogTest, RestartClearsPreviousRecording) {
  TraceLog::Global().Start(1.0);
  TraceInstant("stale.event");
  EXPECT_EQ(TraceLog::Global().recorded_events(), 1);
  TraceLog::Global().Start(1.0);
  EXPECT_EQ(TraceLog::Global().recorded_events(), 0);
  TraceInstant("fresh.event");
  const std::string json = TraceLog::Global().ExportChromeJson();
  TraceLog::Global().Stop();
  EXPECT_EQ(json.find("stale.event"), std::string::npos);
  EXPECT_NE(json.find("fresh.event"), std::string::npos);
}

TEST(TraceLogTest, ThreadsGetStableDenseDistinctTids) {
  TraceLog::Global().Start(1.0);
  auto record_pair = [] {
    TraceSpan span("worker.span");
    TraceInstant("worker.mark");
  };
  std::thread a(record_pair);
  a.join();
  std::thread b(record_pair);
  b.join();
  const std::vector<ParsedEvent> events =
      ParseExport(TraceLog::Global().ExportChromeJson());
  TraceLog::Global().Stop();
  ASSERT_EQ(events.size(), 6u);
  std::vector<int> tids;
  for (const ParsedEvent& event : events) tids.push_back(event.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), 2u);  // Two recording threads, two dense ids.
  // Each thread's three events share one tid (events are grouped per ring).
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_EQ(events[1].tid, events[2].tid);
  EXPECT_EQ(events[3].tid, events[4].tid);
  EXPECT_EQ(events[4].tid, events[5].tid);
  EXPECT_NE(events[0].tid, events[3].tid);
}

TEST(TraceLogTest, LongNamesTruncateToMaxNameLength) {
  TraceLog::Global().Start(1.0);
  const std::string long_name(2 * TraceLog::kMaxNameLength, 'x');
  TraceInstant(long_name);
  const std::vector<ParsedEvent> events =
      ParseExport(TraceLog::Global().ExportChromeJson());
  TraceLog::Global().Stop();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name,
            std::string(TraceLog::kMaxNameLength, 'x'));
}

TEST(TraceLogTest, ExportToFileRoundTrips) {
  TraceLog::Global().Start(1.0);
  TraceInstant("file.mark");
  const ScopedTempDir scratch("trace_log_test");
  const std::string path = scratch.Child("roundtrip.json");
  ASSERT_TRUE(TraceLog::Global().ExportChromeJson(path));
  const std::string in_memory = TraceLog::Global().ExportChromeJson();
  TraceLog::Global().Stop();
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream contents;
  contents << file.rdbuf();
  EXPECT_EQ(contents.str(), in_memory);
}

// Kept last in this file: ring names persist for the process lifetime, so
// every export after this point carries 'M' metadata when the binary is run
// directly (under ctest each test is its own process).
TEST(TraceLogTest, NamedThreadsEmitChromeMetadataEvents) {
  TraceLog::Global().Start(1.0);
  SetCurrentThreadName("trace.metadata");
  TraceInstant("named.mark");
  const std::string json = TraceLog::Global().ExportChromeJson();
  TraceLog::Global().Stop();

  // Naming a thread turns on the 'M' preamble: one process_name for the
  // span timeline plus a thread_name per named ring.
  EXPECT_NE(json.find("\"name\":\"process_name\",\"ph\":\"M\""),
            std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("trace.metadata"), std::string::npos);

  const std::vector<ParsedEvent> events = ParseExport(json);
  int metadata = 0;
  int instants = 0;
  for (const ParsedEvent& event : events) {
    if (event.phase == 'M') ++metadata;
    if (event.phase == 'i') ++instants;
  }
  EXPECT_GE(metadata, 2);  // process_name + at least this thread's name.
  EXPECT_EQ(instants, 1);
}

}  // namespace
}  // namespace obs
}  // namespace dlinf
