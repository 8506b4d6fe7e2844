// Structured JSON-lines log tests (DESIGN.md §10): line shape, severity
// filtering, per-event rate limiting with suppression accounting, trace-id
// correlation, and the closed-sink no-op contract. The global sink persists
// across tests, so every test Close()s when done and reads counters as
// deltas.

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/structured_log.h"
#include "obs/trace_log.h"
#include "scratch_dir.h"

namespace dlinf {
namespace obs {
namespace {

using ::testing::TempDir;

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream file(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(file, line)) lines.push_back(line);
  return lines;
}

/// Restores the default log configuration on scope exit so one test cannot
/// skew the next through the shared global sink.
struct LogConfigGuard {
  ~LogConfigGuard() {
    StructuredLog::Global().Close();
    StructuredLog::Global().SetMinSeverity(LogSeverity::kInfo);
    StructuredLog::Global().SetRateLimit(200, 1.0);
  }
};

TEST(StructuredLogTest, ClosedSinkEmitsNothing) {
  LogConfigGuard guard;
  StructuredLog::Global().Close();
  EXPECT_FALSE(StructuredLogEnabled());
  const int64_t emitted_before = StructuredLog::Global().emitted_lines();
  LogLine(LogSeverity::kInfo, "closed.event").Int("n", 1);
  EXPECT_EQ(StructuredLog::Global().emitted_lines(), emitted_before);
}

TEST(StructuredLogTest, FileSinkWritesOneJsonObjectPerLine) {
  LogConfigGuard guard;
  const ScopedTempDir scratch("structured_log_test");
  const std::string path = scratch.Child("lines.jsonl");
  ASSERT_TRUE(StructuredLog::Global().OpenFile(path));
  EXPECT_TRUE(StructuredLogEnabled());
  LogLine(LogSeverity::kInfo, "train.epoch")
      .Int("epoch", 3)
      .Num("val_loss", 0.125)
      .Bool("improved", true)
      .Str("note", "quote\" and \\slash");
  LogLine(LogSeverity::kWarn, "query.fallback").Str("tier", "address");
  StructuredLog::Global().Close();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("{\"ts\":", 0), 0u);  // Starts with {"ts":
  EXPECT_NE(lines[0].find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"event\":\"train.epoch\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"epoch\":3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"val_loss\":0.125"), std::string::npos);
  EXPECT_NE(lines[0].find("\"improved\":true"), std::string::npos);
  EXPECT_NE(lines[0].find("\"note\":\"quote\\\" and \\\\slash\""),
            std::string::npos);
  EXPECT_EQ(lines[0].back(), '}');
  EXPECT_NE(lines[1].find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"tier\":\"address\""), std::string::npos);
}

TEST(StructuredLogTest, LinesBelowMinSeverityAreDropped) {
  LogConfigGuard guard;
  const ScopedTempDir scratch("structured_log_test");
  const std::string path = scratch.Child("severity.jsonl");
  ASSERT_TRUE(StructuredLog::Global().OpenFile(path));
  StructuredLog::Global().SetMinSeverity(LogSeverity::kWarn);
  LogLine(LogSeverity::kDebug, "sev.debug");
  LogLine(LogSeverity::kInfo, "sev.info");
  LogLine(LogSeverity::kWarn, "sev.warn");
  LogLine(LogSeverity::kError, "sev.error");
  StructuredLog::Global().Close();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("sev.warn"), std::string::npos);
  EXPECT_NE(lines[1].find("sev.error"), std::string::npos);
}

TEST(StructuredLogTest, RateLimitSuppressesPerEventAndCounts) {
  LogConfigGuard guard;
  const ScopedTempDir scratch("structured_log_test");
  const std::string path = scratch.Child("rate.jsonl");
  ASSERT_TRUE(StructuredLog::Global().OpenFile(path));
  // A generous window so the whole test stays inside one bucket interval.
  StructuredLog::Global().SetRateLimit(5, 3600.0);
  const int64_t suppressed_before = StructuredLog::Global().suppressed_lines();
  for (int i = 0; i < 12; ++i) {
    LogLine(LogSeverity::kInfo, "hot.loop").Int("i", i);
  }
  // A different event name draws from its own bucket.
  LogLine(LogSeverity::kInfo, "other.event");
  StructuredLog::Global().Close();

  const std::vector<std::string> lines = ReadLines(path);
  EXPECT_EQ(lines.size(), 6u);  // 5 hot.loop + 1 other.event.
  EXPECT_EQ(StructuredLog::Global().suppressed_lines() - suppressed_before,
            7);
  int hot_lines = 0;
  for (const std::string& line : lines) {
    if (line.find("hot.loop") != std::string::npos) ++hot_lines;
  }
  EXPECT_EQ(hot_lines, 5);
}

TEST(StructuredLogTest, ZeroRateLimitDisablesSuppression) {
  LogConfigGuard guard;
  const ScopedTempDir scratch("structured_log_test");
  const std::string path = scratch.Child("nolimit.jsonl");
  ASSERT_TRUE(StructuredLog::Global().OpenFile(path));
  StructuredLog::Global().SetRateLimit(0);
  for (int i = 0; i < 500; ++i) {
    LogLine(LogSeverity::kInfo, "unlimited.loop");
  }
  StructuredLog::Global().Close();
  EXPECT_EQ(ReadLines(path).size(), 500u);
}

TEST(StructuredLogTest, TraceIdCorrelatesWithArmedTraceScope) {
  LogConfigGuard guard;
  const ScopedTempDir scratch("structured_log_test");
  const std::string path = scratch.Child("trace.jsonl");
  ASSERT_TRUE(StructuredLog::Global().OpenFile(path));
  TraceLog::Global().Start(1.0);
  uint64_t trace_id = 0;
  {
    TraceScope scope;
    trace_id = scope.trace_id();
    LogLine(LogSeverity::kInfo, "inside.scope");
  }
  LogLine(LogSeverity::kInfo, "outside.scope");
  TraceLog::Global().Stop();
  StructuredLog::Global().Close();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  ASSERT_NE(trace_id, 0u);
  EXPECT_NE(
      lines[0].find("\"trace_id\":" + std::to_string(trace_id)),
      std::string::npos)
      << lines[0];
  EXPECT_EQ(lines[1].find("\"trace_id\""), std::string::npos) << lines[1];
}

TEST(StructuredLogTest, OpenFileFailureLeavesLoggingDisabled) {
  LogConfigGuard guard;
  EXPECT_FALSE(StructuredLog::Global().OpenFile(
      TempDir() + "no_such_dir/structured_log.jsonl"));
  EXPECT_FALSE(StructuredLogEnabled());
}

}  // namespace
}  // namespace obs
}  // namespace dlinf
