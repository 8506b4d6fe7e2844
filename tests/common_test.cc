#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/flat_json.h"
#include "common/mt19937_64.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "scratch_dir.h"

namespace dlinf {
namespace {

TEST(StatsTest, MeanAndStdDev) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_NEAR(StdDev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0, 1e-9);
}

TEST(StatsTest, PercentileInterpolates) {
  const std::vector<double> v = {4, 1, 3, 2};  // Sorted: 1 2 3 4.
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Median({5.0}), 5.0);
}

TEST(StatsTest, HistogramBucketsAndCdf) {
  Histogram h(0.0, 10.0, 5);
  for (double v : {1.0, 5.0, 15.0, 100.0, -3.0}) h.Add(v);
  EXPECT_EQ(h.count(0), 3);  // 1, 5, and clamped -3.
  EXPECT_EQ(h.count(1), 1);  // 15.
  EXPECT_EQ(h.count(4), 1);  // Clamped 100.
  EXPECT_DOUBLE_EQ(h.Fraction(0), 0.6);
  EXPECT_DOUBLE_EQ(h.CumulativeFraction(1), 0.8);
  EXPECT_DOUBLE_EQ(h.CumulativeFraction(4), 1.0);
  EXPECT_DOUBLE_EQ(h.BucketLow(2), 20.0);
}

TEST(RandomTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RandomTest, ForkedStreamsDiffer) {
  // Forks of identically seeded parents agree with each other...
  Rng a(123), b(123);
  Rng fork_a = a.Fork();
  Rng fork_b = b.Fork();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(fork_a.UniformInt(0, 1 << 30), fork_b.UniformInt(0, 1 << 30));
  }
  // ...but a fork's stream differs from its parent's.
  Rng parent(7);
  Rng child = parent.Fork();
  bool any_diff = false;
  for (int i = 0; i < 20; ++i) {
    if (parent.UniformInt(0, 1 << 30) != child.UniformInt(0, 1 << 30)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(RandomTest, BernoulliFrequency) {
  Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RandomTest, BernoulliThresholdDrawsExactlyAsBernoulli) {
  const double probs[] = {1e-9, static_cast<double>(0.1f), 0.3, 0.5, 0.9,
                          std::nextafter(1.0, 0.0)};
  for (const double p : probs) {
    const uint64_t threshold = Rng::BernoulliThreshold(p);
    // The threshold is the exact edge of Bernoulli's acceptance region.
    ASSERT_GT(threshold, 0u) << p;
    EXPECT_LT(Rng::CanonicalOf(threshold - 1), p) << p;
    EXPECT_GE(Rng::CanonicalOf(threshold), p) << p;
    // Twin engines agree draw for draw and end in the same state.
    Rng by_threshold(42), by_bernoulli(42);
    for (int i = 0; i < 200000; ++i) {
      ASSERT_EQ(by_threshold.engine()() < threshold, by_bernoulli.Bernoulli(p))
          << "p " << p << " draw " << i;
    }
    std::ostringstream a, b;
    a << by_threshold.engine();
    b << by_bernoulli.engine();
    EXPECT_EQ(a.str(), b.str()) << p;
  }
  EXPECT_EQ(Rng::BernoulliThreshold(0.0), 0u);
}

template <typename Engine>
std::string EngineText(const Engine& engine) {
  std::ostringstream out;
  out << engine;
  return out.str();
}

TEST(Mt19937Test, MatchesStdEngineDrawForDrawAndInText) {
  const uint64_t seeds[] = {0, 1, 42, UINT64_MAX};
  const int draws_before[] = {0, 311, 312, 313, 10000};
  for (const uint64_t seed : seeds) {
    for (const int draws : draws_before) {
      Mt19937_64 ours(seed);
      std::mt19937_64 theirs(seed);
      for (int i = 0; i < draws; ++i) {
        ASSERT_EQ(ours(), theirs()) << "seed " << seed << " draw " << i;
      }
      const std::string ours_text = EngineText(ours);
      const std::string theirs_text = EngineText(theirs);
      ASSERT_EQ(ours_text, theirs_text) << "seed " << seed << " @" << draws;

      // Each engine loads the other's text and continues identically.
      Mt19937_64 ours_loaded(7);
      std::mt19937_64 theirs_loaded(7);
      std::istringstream ours_in(theirs_text);
      std::istringstream theirs_in(ours_text);
      ours_in >> ours_loaded;
      theirs_in >> theirs_loaded;
      ASSERT_FALSE(ours_in.fail());
      ASSERT_FALSE(theirs_in.fail());
      EXPECT_TRUE(ours_loaded == ours);
      for (int i = 0; i < 700; ++i) {
        const uint64_t want = theirs();
        ASSERT_EQ(ours_loaded(), want) << "seed " << seed << " @" << draws;
        ASSERT_EQ(theirs_loaded(), want) << "seed " << seed << " @" << draws;
      }
    }
  }
}

TEST(Mt19937Test, TextParseRejectsMalformedStates) {
  const std::string good = EngineText(Mt19937_64(3));
  const std::string words = good.substr(0, good.rfind(' '));
  auto parses = [](const std::string& text) {
    Mt19937_64 engine(9);
    const Mt19937_64 before = engine;
    std::istringstream in(text);
    in >> engine;
    // A failed parse leaves the engine untouched.
    if (in.fail()) {
      EXPECT_TRUE(engine == before) << text.substr(0, 40);
    }
    return !in.fail();
  };
  EXPECT_TRUE(parses(good));
  EXPECT_TRUE(parses(words + " 0"));
  EXPECT_TRUE(parses(words + " 312"));
  EXPECT_FALSE(parses(words + " 313"));  // std accepts this; we must not.
  EXPECT_FALSE(parses(words + " 99999"));
  EXPECT_FALSE(parses(words));  // 312 words, no position.
  EXPECT_FALSE(parses(words.substr(0, words.rfind(' ')) + " 312"));  // 311.
  EXPECT_FALSE(parses("1 2 3 not-an-engine"));
  EXPECT_FALSE(parses(""));
}

TEST(RandomTest, DistributionsMatchTheStdEngine) {
  // Rng's distributions see the same engine outputs as over
  // std::mt19937_64, so every seeded sequence is unchanged.
  Rng rng(2024);
  std::mt19937_64 std_engine(2024);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(rng.Normal(1.5, 2.0),
              std::normal_distribution<double>(1.5, 2.0)(std_engine));
    ASSERT_EQ(rng.Poisson(3.7),
              std::poisson_distribution<int>(3.7)(std_engine));
    ASSERT_EQ(rng.Poisson(60.0),
              std::poisson_distribution<int>(60.0)(std_engine));
    const std::vector<double> weights = {0.5, 2.0, 0.0, 1.25};
    ASSERT_EQ(rng.WeightedIndex(weights),
              std::discrete_distribution<size_t>(weights.begin(),
                                                 weights.end())(std_engine));
    ASSERT_EQ(rng.UniformInt(-5, 1 << 20),
              std::uniform_int_distribution<int64_t>(-5, 1 << 20)(std_engine));
  }
  std::vector<int> ours(257);
  for (size_t i = 0; i < ours.size(); ++i) ours[i] = static_cast<int>(i);
  std::vector<int> theirs = ours;
  for (int round = 0; round < 20; ++round) {
    rng.Shuffle(&ours);
    std::shuffle(theirs.begin(), theirs.end(), std_engine);
    ASSERT_EQ(ours, theirs) << "round " << round;
  }
  EXPECT_EQ(EngineText(rng.engine()), EngineText(std_engine));
}

TEST(RandomTest, WeightedIndexRespectsWeights) {
  Rng rng(9);
  std::vector<double> w = {0.0, 9.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.WeightedIndex(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2] * 5);
}

TEST(StringUtilTest, SplitJoinTrim) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Join({"x", "y"}, "-"), "x-y");
  EXPECT_EQ(Trim("  hi \n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(StrPrintf("%d-%s", 5, "ok"), "5-ok");
}

TEST(StringUtilTest, ParseNumberTakesWholeInRangeTokensOnly) {
  int64_t i = 7;
  EXPECT_TRUE(ParseNumber("-42", &i));
  EXPECT_EQ(i, -42);
  bool out_of_range = false;
  for (const char* bad : {"", " 1", "1 ", "+1", "1x", "0x10", "1.0"}) {
    i = 7;
    EXPECT_FALSE(ParseNumber(bad, &i, &out_of_range)) << bad;
    EXPECT_FALSE(out_of_range) << bad;
    EXPECT_EQ(i, 7) << bad;  // Untouched on failure.
  }
  EXPECT_FALSE(ParseNumber("9223372036854775808", &i, &out_of_range));
  EXPECT_TRUE(out_of_range);

  uint64_t u = 0;
  EXPECT_FALSE(ParseNumber("-1", &u));
  int small = 0;
  EXPECT_FALSE(ParseNumber("4294967296", &small, &out_of_range));
  EXPECT_TRUE(out_of_range);

  double d = 0.0;
  EXPECT_TRUE(ParseNumber("-1.5e3", &d));
  EXPECT_EQ(d, -1500.0);
  EXPECT_TRUE(ParseNumber("0.1", &d));
  EXPECT_EQ(d, 0.1);
  EXPECT_FALSE(ParseNumber("1e999", &d, &out_of_range));
  EXPECT_TRUE(out_of_range);
  EXPECT_FALSE(ParseNumber("1.5.2", &d));
  // Non-finite spellings parse; callers that need finite values check.
  EXPECT_TRUE(ParseNumber("nan", &d));
  EXPECT_TRUE(std::isnan(d));
  EXPECT_TRUE(ParseNumber("-inf", &d));
  EXPECT_TRUE(std::isinf(d));
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&hits](int64_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](int64_t) { FAIL(); });
}

constexpr FlagSpec kTestFlags[] = {{"--days", FlagType::kInt},
                                   {"--seed", FlagType::kUint64},
                                   {"--seconds", FlagType::kDouble},
                                   {"--port", FlagType::kInt},
                                   {"--out", FlagType::kString},
                                   {"--quick", FlagType::kBool},
                                   {"--metrics", FlagType::kString, true}};

std::optional<Flags> ParseTestFlags(const std::vector<std::string>& args,
                                    std::string* error) {
  std::vector<char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  return Flags::Parse(kTestFlags, argv, error);
}

TEST(FlagsTest, AcceptsOrRejectsEachCommandLine) {
  struct Row {
    std::vector<std::string> args;
    std::string error;  ///< The one-line rejection; empty when accepted.
    std::string flag = "";   ///< Accepted rows: a flag that is present...
    std::string value = "";  ///< ...with this value (empty when bare).
  };
  const Row rows[] = {
      {{"--dayz", "2"}, "unknown flag --dayz"},
      {{"--days", "2x"}, "--days wants an integer, got '2x'"},
      {{"--seconds", "abc"}, "--seconds wants a number, got 'abc'"},
      {{"--seconds", "nan"}, "--seconds wants a number, got 'nan'"},
      {{"--out"}, "--out needs a value"},
      {{"--days", "--quick"}, "--days needs a value"},
      {{"--out", "dir", "stray"}, "unexpected argument 'stray'"},
      {{"stray"}, "unexpected argument 'stray'"},
      {{"--days", "3000000000"}, "--days value '3000000000' is out of range"},
      {{"--seconds", "1e999"}, "--seconds value '1e999' is out of range"},
      {{"--seed", "-1"}, "--seed wants a non-negative integer, got '-1'"},
      {{"--quick"}, "", "--quick", ""},
      {{"--quick", "--out", "dir"}, "", "--out", "dir"},
      {{"--metrics"}, "", "--metrics", ""},
      {{"--metrics", "--quick"}, "", "--metrics", ""},
      {{"--metrics", "m.json"}, "", "--metrics", "m.json"},
      {{"--port", "-1"}, "", "--port", "-1"},
      {{"--days", "2", "--days", "5"}, "", "--days", "5"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(Join(row.args, " "));
    std::string error;
    const std::optional<Flags> flags = ParseTestFlags(row.args, &error);
    EXPECT_EQ(error, row.error);
    ASSERT_EQ(flags.has_value(), row.error.empty());
    if (flags) {
      EXPECT_TRUE(flags->Has(row.flag));
      EXPECT_EQ(flags->Str(row.flag), row.value);
    }
  }
}

TEST(FlagsTest, TypedGettersReadValuesOrFallBack) {
  std::string error;
  const std::optional<Flags> flags = ParseTestFlags(
      {"--port", "-1", "--seed", "18446744073709551615", "--seconds", "2.5",
       "--metrics"},
      &error);
  ASSERT_TRUE(flags.has_value()) << error;
  EXPECT_EQ(flags->Int("--port", 0), -1);
  EXPECT_EQ(flags->Uint64("--seed", 0), 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(flags->Double("--seconds", 0.0), 2.5);
  EXPECT_EQ(flags->Int("--days", 30), 30);
  EXPECT_FALSE(flags->Has("--days"));
  EXPECT_EQ(flags->Str("--metrics", "stdout"), "stdout");
}

TEST(FlagsTest, RejectsValuesOutsideTheSpecBounds) {
  constexpr FlagSpec kBounded[] = {
      {.name = "--shards", .type = FlagType::kInt, .min = 1},
      {.name = "--rate", .type = FlagType::kDouble, .min = 0, .max = 1},
      {.name = "--seconds",
       .type = FlagType::kDouble,
       .min = 0,
       .min_exclusive = true},
      {.name = "--seed", .type = FlagType::kUint64, .max = 10}};
  struct Row {
    std::vector<std::string> args;
    std::string error;  ///< The one-line rejection; empty when accepted.
  };
  const Row rows[] = {
      {{"--shards", "0"}, "--shards wants a value >= 1, got '0'"},
      {{"--shards", "-3"}, "--shards wants a value >= 1, got '-3'"},
      {{"--shards", "1"}, ""},
      {{"--rate", "1.5"}, "--rate wants a value >= 0 and <= 1, got '1.5'"},
      {{"--rate", "-0.5"}, "--rate wants a value >= 0 and <= 1, got '-0.5'"},
      {{"--rate", "0"}, ""},
      {{"--rate", "1"}, ""},
      {{"--seconds", "0"}, "--seconds wants a value > 0, got '0'"},
      {{"--seconds", "0.001"}, ""},
      {{"--seed", "11"}, "--seed wants a value <= 10, got '11'"},
      {{"--seed", "10"}, ""},
      // A malformed value keeps its own reason; bounds apply to numbers.
      {{"--shards", "x"}, "--shards wants an integer, got 'x'"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(Join(row.args, " "));
    std::vector<char*> argv;
    for (const std::string& arg : row.args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    std::string error;
    const std::optional<Flags> flags = Flags::Parse(kBounded, argv, &error);
    EXPECT_EQ(error, row.error);
    EXPECT_EQ(flags.has_value(), row.error.empty());
  }
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch watch;
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
  watch.Reset();
  EXPECT_LT(watch.ElapsedMillis(), 1000.0);
}

TEST(FlatJsonTest, SerializeParseRoundTrips) {
  const std::map<std::string, double> values = {
      {"_calibration", 0.0123}, {"pipeline.train.dlinfma", 4.5},
      {"fig13.BM_DLInfMA/100", 3.25e-2}};
  const std::string text = FlatJsonSerialize(values);
  const auto parsed = FlatJsonParse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, values);
  // Deterministic: serializing the parse reproduces the text byte-for-byte.
  EXPECT_EQ(FlatJsonSerialize(*parsed), text);
}

TEST(FlatJsonTest, ParsesEmptyObjectAndWhitespace) {
  const auto empty = FlatJsonParse("  { }  ");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
  const auto spaced = FlatJsonParse("{\n  \"a\" : 1e-3 ,\n \"b\": -2\n}");
  ASSERT_TRUE(spaced.has_value());
  EXPECT_DOUBLE_EQ(spaced->at("a"), 1e-3);
  EXPECT_DOUBLE_EQ(spaced->at("b"), -2.0);
}

TEST(FlatJsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(FlatJsonParse("").has_value());
  EXPECT_FALSE(FlatJsonParse("[1, 2]").has_value());
  EXPECT_FALSE(FlatJsonParse("{\"a\": 1").has_value());          // Unclosed.
  EXPECT_FALSE(FlatJsonParse("{\"a\": \"str\"}").has_value());   // Non-number.
  EXPECT_FALSE(FlatJsonParse("{\"a\": {\"b\": 1}}").has_value());  // Nested.
  EXPECT_FALSE(FlatJsonParse("{\"a\": 1,}").has_value());  // Trailing comma.
  EXPECT_FALSE(FlatJsonParse("{\"a\": 1} x").has_value());  // Trailing junk.
}

TEST(FlatJsonTest, FileRoundTripAndMissingFile) {
  const ScopedTempDir scratch("common_test");
  const std::string path = scratch.Child("flat_json_test.json");
  const std::map<std::string, double> values = {{"k", 2.0}};
  ASSERT_TRUE(FlatJsonSave(path, values));
  const auto loaded = FlatJsonLoad(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, values);
  EXPECT_FALSE(FlatJsonLoad(path + ".does_not_exist").has_value());
}

// --- Fuzz-style negative tests (seeded, deterministic) --------------------
//
// Parsers for untrusted text must never crash, hang, or over-read: any
// input either parses into a consistent value or is rejected with nullopt.
// The corpora below are generated from a fixed-seed Rng so failures replay.

std::string RandomBytes(Rng& rng, int max_len) {
  const int len = static_cast<int>(rng.UniformInt(0, max_len));
  std::string bytes(len, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng.UniformInt(0, 255));
  }
  return bytes;
}

bool AllFinite(const std::map<std::string, double>& values) {
  for (const auto& [key, value] : values) {
    if (!std::isfinite(value)) return false;
  }
  return true;
}

TEST(FlatJsonFuzzTest, RandomBytesNeverCrashAndRoundTripWhenParsed) {
  Rng rng(0x464a31);  // "FJ1"
  for (int i = 0; i < 2000; ++i) {
    const std::string input = RandomBytes(rng, 64);
    const auto parsed = FlatJsonParse(input);  // Must not crash.
    if (parsed.has_value() && AllFinite(*parsed)) {
      // Anything accepted must survive serialize -> parse unchanged.
      const auto reparsed = FlatJsonParse(FlatJsonSerialize(*parsed));
      ASSERT_TRUE(reparsed.has_value()) << "input: " << input;
      EXPECT_EQ(*reparsed, *parsed) << "input: " << input;
    }
  }
}

TEST(FlatJsonFuzzTest, MutatedValidDocumentsNeverCrash) {
  Rng rng(0x464a32);
  const std::string valid =
      FlatJsonSerialize({{"alpha", 1.5}, {"beta", -2e-3}, {"gamma", 42.0}});
  for (int i = 0; i < 2000; ++i) {
    std::string doc = valid;
    const int mutations = static_cast<int>(rng.UniformInt(1, 4));
    for (int m = 0; m < mutations && !doc.empty(); ++m) {
      const size_t pos =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(
                                                    doc.size() - 1)));
      switch (rng.UniformInt(0, 2)) {
        case 0:  // Flip a byte.
          doc[pos] = static_cast<char>(rng.UniformInt(0, 255));
          break;
        case 1:  // Delete a byte.
          doc.erase(pos, 1);
          break;
        default:  // Insert a byte.
          doc.insert(pos, 1, static_cast<char>(rng.UniformInt(0, 255)));
          break;
      }
    }
    const auto parsed = FlatJsonParse(doc);  // Must not crash.
    if (parsed.has_value() && AllFinite(*parsed)) {
      EXPECT_TRUE(FlatJsonParse(FlatJsonSerialize(*parsed)).has_value());
    }
  }
}

TEST(FlatJsonFuzzTest, EveryTruncationOfAValidDocumentIsRejected) {
  // A canonical document with no trailing whitespace, so that every proper
  // prefix is genuinely incomplete (serializer output may end in a newline,
  // which would make the second-to-last prefix valid).
  const std::string valid = R"({"a": 1.5, "b": -2e-3, "c": 3})";
  ASSERT_TRUE(FlatJsonParse(valid).has_value());
  for (size_t keep = 0; keep < valid.size(); ++keep) {
    EXPECT_FALSE(FlatJsonParse(valid.substr(0, keep)).has_value())
        << "prefix of " << keep << " bytes unexpectedly parsed";
  }
}

TEST(FlatJsonFuzzTest, DeeplyNestedInputRejectedWithoutStackOverflow) {
  // The format is flat by definition; a pathological nesting bomb must be
  // rejected by validation, not by exhausting the stack.
  std::string bomb;
  for (int i = 0; i < 50000; ++i) bomb += "{\"a\": ";
  bomb += "1";
  for (int i = 0; i < 50000; ++i) bomb += "}";
  EXPECT_FALSE(FlatJsonParse(bomb).has_value());
}

}  // namespace
}  // namespace dlinf
