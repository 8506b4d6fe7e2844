// GEMM kernel microbench (DESIGN.md §12) — isolates the nn/kernels.h
// matrix-multiply from everything above it, on the shapes the model
// actually runs:
//
//   kernel.gemm.attn       the per-(batch, head) attention score panel
//                          (N=24 candidates, head dim 8)
//   kernel.gemm.attn_tail  the same panel at N=30: row and column tails
//   kernel.gemm.proj       the flattened [B*N, D] QKV/output projection
//   kernel.gemm.ff         the transformer feed-forward layer
//   kernel.gemm.score      the n=1 additive-attention scorer (k=32)
//   kernel.gemm.wgrad      a weight gradient dW += X^T dY (GemmAtB,
//                          16x16 over k=480 rows)
//   kernel.gemm.large      a cache-blocking stress shape (256^3)
//   kernel.dropout_mask    dropout-mask draws (FillDropoutMask, 4096
//                          elements per call)
//   kernel.softmax_rows    one attention panel's softmax (SoftmaxRows,
//                          30x30, in place)
//   kernel.tanh            the additive scorer's tanh (Tanh over 16x30x32
//                          scores)
//
// Each case is also run with the scalar path forced (<name>.scalar), so
// the bench history tracks the SIMD speedup itself — a dispatch regression
// (e.g. the AVX2 TU silently compiled out) shows up as the two curves
// collapsing together.
//
// Flags: --json PATH (append results), --quick (fewer repetitions).

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "nn/kernels.h"

namespace dlinf {
namespace bench {
namespace {

struct GemmCase {
  const char* name;
  int64_t m, n, k;
  int64_t iters;  // Inner repetitions per timed sample.
  bool at_b;      // GemmAtB (A stored [k, m]) instead of Gemm.
};

volatile float g_sink = 0.0f;

double TimeGemm(const GemmCase& c, int reps) {
  Rng rng(42);
  std::vector<float> a(static_cast<size_t>(c.m * c.k));
  std::vector<float> b(static_cast<size_t>(c.k * c.n));
  std::vector<float> out(static_cast<size_t>(c.m * c.n), 0.0f);
  for (float& x : a) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (float& x : b) x = static_cast<float>(rng.Uniform(-1.0, 1.0));

  double best = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    for (int64_t i = 0; i < c.iters; ++i) {
      if (c.at_b) {
        nn::kernel::GemmAtB(c.m, c.n, c.k, a.data(), c.m, b.data(), c.n,
                            out.data(), c.n, /*accumulate=*/false);
      } else {
        nn::kernel::Gemm(c.m, c.n, c.k, a.data(), b.data(), out.data(),
                         /*accumulate=*/false);
      }
    }
    const double seconds = watch.ElapsedSeconds();
    if (seconds < best) best = seconds;
    g_sink = out.front() + out.back();
  }
  return best;
}

/// Best-of-`reps` seconds for `iters` dropout-mask fills of `n` elements.
double TimeDropoutMask(int64_t n, int64_t iters, int reps) {
  Rng rng(42);
  const uint64_t threshold = Rng::BernoulliThreshold(0.1);
  std::vector<float> mask(static_cast<size_t>(n));
  double best = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    for (int64_t i = 0; i < iters; ++i) {
      nn::kernel::FillDropoutMask(&rng.engine(), threshold, 1.0f / 0.9f,
                                  mask.data(), n);
    }
    const double seconds = watch.ElapsedSeconds();
    if (seconds < best) best = seconds;
    g_sink = mask.front() + mask.back();
  }
  return best;
}

/// Best-of-`reps` seconds for `iters` calls of `fn(x, y)` on a span of `n`
/// inputs drawn uniformly from [lo, hi].
template <typename Fn>
double TimeSpan(int64_t n, double lo, double hi, int64_t iters, int reps,
                Fn fn) {
  Rng rng(42);
  std::vector<float> x(static_cast<size_t>(n));
  for (float& v : x) v = static_cast<float>(rng.Uniform(lo, hi));
  std::vector<float> y(x.size());
  double best = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    for (int64_t i = 0; i < iters; ++i) fn(x.data(), y.data());
    const double seconds = watch.ElapsedSeconds();
    if (seconds < best) best = seconds;
    g_sink = y.front() + y.back();
  }
  return best;
}

}  // namespace

int Main(int argc, char** argv) {
  const std::string metrics_path = ParseMetricsFlag(&argc, argv);
  const std::string json_path = ParseJsonFlag(&argc, argv);
  const bool quick = ParseQuickFlag(&argc, argv);
  const int reps = quick ? 3 : 5;
  BenchResults results;

  const GemmCase cases[] = {
      {"attn", 24, 24, 8, 20000, false},
      {"attn_tail", 30, 30, 8, 20000, false},
      {"proj", 1536, 16, 16, 2000, false},
      {"ff", 1536, 32, 16, 1000, false},
      {"score", 480, 1, 32, 5000, false},
      {"wgrad", 16, 16, 480, 5000, true},
      {"large", 256, 256, 256, 30, false},
  };

  std::printf("== GEMM kernel microbench (path: %s) ==\n",
              nn::kernel::PathName());
  std::printf("%-9s %14s %14s %8s\n", "shape", "simd/active(s)", "scalar(s)",
              "speedup");
  for (const GemmCase& c : cases) {
    const double active = TimeGemm(c, reps);
    results.Add(std::string("kernel.gemm.") + c.name, active);

    nn::kernel::ForceScalar(true);
    const double scalar = TimeGemm(c, reps);
    nn::kernel::ForceScalar(false);
    results.Add(std::string("kernel.gemm.") + c.name + ".scalar", scalar);

    std::printf("%-9s %14.6f %14.6f %7.2fx  (%lldx%lldx%lld)\n", c.name,
                active, scalar, scalar / active, static_cast<long long>(c.m),
                static_cast<long long>(c.n), static_cast<long long>(c.k));
  }

  constexpr int64_t kMaskElems = 4096;
  constexpr int64_t kMaskIters = 500;
  const double mask_active = TimeDropoutMask(kMaskElems, kMaskIters, reps);
  results.Add("kernel.dropout_mask", mask_active);
  nn::kernel::ForceScalar(true);
  const double mask_scalar = TimeDropoutMask(kMaskElems, kMaskIters, reps);
  nn::kernel::ForceScalar(false);
  results.Add("kernel.dropout_mask.scalar", mask_scalar);
  const double draws = static_cast<double>(kMaskElems * kMaskIters);
  std::printf("%-9s %14.6f %14.6f %7.2fx  (%.2f vs %.2f ns/draw)\n",
              "dropout", mask_active, mask_scalar, mask_scalar / mask_active,
              mask_active / draws * 1e9, mask_scalar / draws * 1e9);

  // Softmax re-reads x each call (y is scratch), so every call sees the
  // same logits; tanh runs over the scorer's [B, N, hidden] activations.
  constexpr int64_t kPanel = 30;
  constexpr int64_t kScores = 16 * 30 * 32;
  struct SpanCase {
    const char* name;
    const char* label;  // Table column (the shape column is 9 wide).
    int64_t n;
    double lo, hi;
    int64_t iters;
    void (*fn)(const float*, float*);
  };
  const SpanCase span_cases[] = {
      {"softmax_rows", "softmax", kPanel * kPanel, -8.0, 8.0, 20000,
       [](const float* x, float* y) {
         nn::kernel::SoftmaxRows(x, y, kPanel, kPanel);
       }},
      {"tanh", "tanh", kScores, -3.0, 3.0, 2000,
       [](const float* x, float* y) { nn::kernel::Tanh(x, y, kScores); }},
  };
  for (const SpanCase& c : span_cases) {
    const double active = TimeSpan(c.n, c.lo, c.hi, c.iters, reps, c.fn);
    results.Add(std::string("kernel.") + c.name, active);
    nn::kernel::ForceScalar(true);
    const double scalar = TimeSpan(c.n, c.lo, c.hi, c.iters, reps, c.fn);
    nn::kernel::ForceScalar(false);
    results.Add(std::string("kernel.") + c.name + ".scalar", scalar);
    const double elems = static_cast<double>(c.n * c.iters);
    std::printf("%-9s %14.6f %14.6f %7.2fx  (%.2f vs %.2f ns/element)\n",
                c.label, active, scalar, scalar / active,
                active / elems * 1e9, scalar / elems * 1e9);
  }

  results.WriteJson(json_path);
  DumpMetrics(metrics_path);
  return 0;
}

}  // namespace bench
}  // namespace dlinf

int main(int argc, char** argv) { return dlinf::bench::Main(argc, argv); }
