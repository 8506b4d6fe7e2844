// bench_compare — the CI benchmark-regression gate.
//
//   bench_compare --baseline FILE --pr FILE [--threshold 0.25]
//                 [--min-seconds 0.001] [--summary FILE]
//
// Both files are flat {"name": seconds} JSON produced by the bench binaries'
// --json flag (bench/bench_util.h). Every benchmark present in the baseline
// must be present in the PR results and must not be more than `threshold`
// (default 25%) slower; exit status 1 otherwise. Benchmarks whose baseline
// time is below `min-seconds` (default 1 ms) must still be present but are
// exempt from the ratio check — timer noise dominates a 25% band at
// microsecond scale. A benchmark present only in the PR results is **new**
// (e.g. a freshly added microbench whose key the committed baseline does not
// carry yet): reported informationally, never a failure, so adding keys
// does not require a lockstep baseline regen.
//
// Machine differences: each results file carries a `_calibration` entry —
// the wall time of a fixed CPU-bound workload on the machine that produced
// it. When both files have one, comparisons use calibration-normalized
// times (seconds scaled by baseline_calibration / pr_calibration), so a
// baseline committed from a faster or slower machine than the CI runner
// still gates correctly. Without calibration entries, raw seconds are
// compared.
//
// --summary FILE additionally writes a GitHub-flavored-markdown digest
// (regressions first, then ">NN% faster" improvement lines and new-key
// notes, then the full table) — CI appends it to $GITHUB_STEP_SUMMARY so
// the comparison is readable from the run page without digging through
// logs.
//
// The comparison policy itself lives in src/common/bench_compare.{h,cc}
// (unit-tested in tests/bench_compare_test.cc); this binary is flag
// parsing, file I/O and console rendering. A malformed command line prints
// one line naming the flag and exits 2.

#include <cstdio>
#include <optional>
#include <string>

#include "common/bench_compare.h"
#include "common/flags.h"
#include "common/flat_json.h"

namespace {

constexpr dlinf::FlagSpec kFlags[] = {
    {"--baseline", dlinf::FlagType::kString},
    {"--pr", dlinf::FlagType::kString},
    {"--threshold", dlinf::FlagType::kDouble},
    {"--min-seconds", dlinf::FlagType::kDouble},
    {"--summary", dlinf::FlagType::kString}};

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const std::optional<dlinf::Flags> flags = dlinf::Flags::Parse(
      kFlags, std::span<char* const>(argv + 1, argc - 1), &error);
  if (!flags) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const std::string baseline_path = flags->Str("--baseline");
  const std::string pr_path = flags->Str("--pr");
  const std::string summary_path = flags->Str("--summary");
  dlinf::BenchCompareOptions compare;
  compare.threshold = flags->Double("--threshold", compare.threshold);
  compare.min_seconds = flags->Double("--min-seconds", compare.min_seconds);
  if (baseline_path.empty() || pr_path.empty() || compare.threshold <= 0.0) {
    std::fprintf(stderr,
                 "usage: bench_compare --baseline FILE --pr FILE "
                 "[--threshold 0.25]\n");
    return 2;
  }

  auto baseline = dlinf::FlatJsonLoad(baseline_path);
  if (!baseline) {
    std::fprintf(stderr, "error: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 2;
  }
  auto pr = dlinf::FlatJsonLoad(pr_path);
  if (!pr) {
    std::fprintf(stderr, "error: cannot read PR results %s\n",
                 pr_path.c_str());
    return 2;
  }

  const dlinf::BenchComparison comparison =
      dlinf::CompareBenchResults(*baseline, *pr, compare);
  if (comparison.calibrated) {
    std::printf("calibration: scaling pr times by %.3f\n", comparison.scale);
  } else {
    std::printf("calibration: absent in one side; comparing raw seconds\n");
  }

  std::printf("%-40s %12s %12s %8s\n", "benchmark", "baseline(s)", "pr(s)",
              "ratio");
  for (const std::string& name : comparison.missing) {
    std::printf("%-40s %12s %12s %8s  MISSING\n", name.c_str(), "-", "-",
                "-");
  }
  for (const dlinf::BenchCompareRow& row : comparison.rows) {
    std::printf("%-40s %12.4f %12.4f %8.3f%s\n", row.name.c_str(),
                row.base_seconds, row.pr_seconds, row.ratio,
                row.regressed
                    ? "  REGRESSION"
                    : (row.gated ? "" : "  (below floor, not gated)"));
  }
  for (const auto& [name, seconds] : comparison.new_entries) {
    std::printf("%-40s %12s %12.4f %8s  (new, no baseline)\n", name.c_str(),
                "-", seconds, "-");
  }

  if (!summary_path.empty()) {
    const std::string markdown =
        dlinf::BenchComparisonMarkdown(comparison, compare);
    std::FILE* f = std::fopen(summary_path.c_str(), "w");
    const bool written =
        f != nullptr &&
        std::fwrite(markdown.data(), 1, markdown.size(), f) ==
            markdown.size();
    if (f != nullptr) std::fclose(f);
    if (!written) {
      std::fprintf(stderr, "error: cannot write summary %s\n",
                   summary_path.c_str());
      return 2;
    }
  }

  if (!comparison.ok()) {
    std::fprintf(stderr,
                 "FAIL: %d regression(s) beyond +%.0f%%, %d missing "
                 "benchmark(s)\n",
                 comparison.regressions,
                 compare.threshold * 100.0,
                 static_cast<int>(comparison.missing.size()));
    return 1;
  }
  std::printf("OK: all benchmarks within +%.0f%% of baseline\n",
              compare.threshold * 100.0);
  return 0;
}
