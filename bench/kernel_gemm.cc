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
//   kernel.attention_panel one 30x30 attention panel through the fused
//                          training kernels: AttentionPanelForward (scale,
//                          padding mask, softmax, dropout) then
//                          AttentionPanelBackward
//   kernel.layernorm_rows  LayerNormRows and LayerNormBackwardRows over a
//                          [480, 16] activation (B*N rows, model width)
//   kernel.adam_step       one AdamStep over 10240 parameters
//
// Each case is also run with the scalar path forced (<name>.scalar), so
// the bench history tracks the SIMD speedup itself — a dispatch regression
// (e.g. the AVX2 TU silently compiled out) shows up as the two curves
// collapsing together.
//
// Flags: --json PATH (append results), --quick (fewer repetitions).

#include <cstdint>
#include <cstdio>
#include <functional>
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

/// Best-of-`reps` seconds for `iters` calls of `fn()`.
template <typename Fn>
double TimeLoop(int64_t iters, int reps, Fn fn) {
  double best = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    for (int64_t i = 0; i < iters; ++i) fn();
    const double seconds = watch.ElapsedSeconds();
    if (seconds < best) best = seconds;
  }
  return best;
}

/// Uniform floats in [lo, hi).
std::vector<float> Uniform(int64_t n, double lo, double hi, Rng* rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng->Uniform(lo, hi));
  return v;
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

  // The element-wise kernels of one LocMatcher training step. Each loop
  // re-feeds its own outputs (softmax of probabilities, a growing gx, a
  // drifting parameter vector), all of which stay finite.
  Rng rng(7);
  const std::vector<float> scores = Uniform(kPanel * kPanel, -8.0, 8.0, &rng);
  std::vector<float> padding_mask(kPanel, 0.0f);
  for (int64_t j = 24; j < kPanel; ++j) padding_mask[j] = -1e9f;
  std::vector<float> dmask(scores.size());
  for (float& v : dmask) v = rng.Bernoulli(0.1) ? 0.0f : 1.0f / 0.9f;
  const std::vector<float> dprobs = Uniform(kPanel * kPanel, -1.0, 1.0, &rng);
  std::vector<float> panel = scores, dropped(scores.size()), dpd(scores.size()),
                     ds(scores.size());
  constexpr int64_t kLnRows = 480;
  constexpr int64_t kLnWidth = 16;
  const std::vector<float> ln_x = Uniform(kLnRows * kLnWidth, -2.0, 2.0, &rng);
  const std::vector<float> ln_gy = Uniform(kLnRows * kLnWidth, -1.0, 1.0, &rng);
  const std::vector<float> gamma = Uniform(kLnWidth, 0.5, 1.5, &rng);
  const std::vector<float> beta = Uniform(kLnWidth, -0.5, 0.5, &rng);
  std::vector<float> ln_y(ln_x.size()), ln_gx(ln_x.size()), mean(kLnRows),
      inv_std(kLnRows), ggamma(kLnWidth), gbeta(kLnWidth);
  constexpr int64_t kParams = 10240;
  const std::vector<float> grads = Uniform(kParams, -0.1, 0.1, &rng);
  std::vector<float> weights = Uniform(kParams, -1.0, 1.0, &rng),
                     moment1(kParams, 0.0f), moment2(kParams, 0.0f);
  const nn::kernel::AdamCoefficients adam = {
      .beta1 = 0.9f,
      .beta2 = 0.999f,
      .one_minus_beta1 = 0.1f,
      .one_minus_beta2 = 1.0f - 0.999f,
      .bias1 = 0.1f,
      .bias2 = 1.0f - 0.999f,
      .learning_rate = 2e-3f,
      .eps = 1e-8f};
  struct LoopCase {
    const char* name;
    const char* label;
    int64_t elements;  // Per call.
    int64_t iters;
    std::function<void()> fn;
  };
  const LoopCase loop_cases[] = {
      {"attention_panel", "attn_pan", kPanel * kPanel, 20000,
       [&] {
         nn::kernel::AttentionPanelForward(panel.data(), padding_mask.data(),
                                           0.35f, dmask.data(),
                                           dropped.data(), kPanel, kPanel);
         dpd = dprobs;
         nn::kernel::AttentionPanelBackward(panel.data(), dmask.data(),
                                            dpd.data(), 0.35f, ds.data(),
                                            kPanel, kPanel);
       }},
      {"layernorm_rows", "layernorm", kLnRows * kLnWidth, 2000,
       [&] {
         nn::kernel::LayerNormRows(ln_x.data(), gamma.data(), beta.data(),
                                   1e-5f, kLnRows, kLnWidth, ln_y.data(),
                                   mean.data(), inv_std.data());
         nn::kernel::LayerNormBackwardRows(
             ln_x.data(), gamma.data(), ln_gy.data(), mean.data(),
             inv_std.data(), kLnRows, kLnWidth, ln_gx.data(), ggamma.data(),
             gbeta.data());
       }},
      {"adam_step", "adam", kParams, 2000,
       [&] {
         nn::kernel::AdamStep(adam, grads.data(), weights.data(),
                              moment1.data(), moment2.data(), kParams);
       }},
  };
  for (const LoopCase& c : loop_cases) {
    const double active = TimeLoop(c.iters, reps, c.fn);
    results.Add(std::string("kernel.") + c.name, active);
    nn::kernel::ForceScalar(true);
    const double scalar = TimeLoop(c.iters, reps, c.fn);
    nn::kernel::ForceScalar(false);
    results.Add(std::string("kernel.") + c.name + ".scalar", scalar);
    const double elems = static_cast<double>(c.elements * c.iters);
    std::printf("%-9s %14.6f %14.6f %7.2fx  (%.2f vs %.2f ns/element)\n",
                c.label, active, scalar, scalar / active,
                active / elems * 1e9, scalar / elems * 1e9);
  }
  g_sink = panel.front() + ds.back() + ln_gx.back() + weights.back();

  results.WriteJson(json_path);
  DumpMetrics(metrics_path);
  return 0;
}

}  // namespace bench
}  // namespace dlinf

int main(int argc, char** argv) { return dlinf::bench::Main(argc, argv); }
