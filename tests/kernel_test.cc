// Tests for the nn/ compute-kernel layer (DESIGN.md §12).
//
// The load-bearing property is the determinism contract: the scalar and
// AVX2 paths must produce bit-identical results on every shape, because the
// golden pipeline metrics and checkpoint-resume tests are pinned across
// machines with and without AVX2. Every sweep below therefore compares the
// two paths with exact float equality, not a tolerance.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <ios>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/mt19937_64.h"
#include "common/random.h"
#include "grad_check.h"
#include "gtest/gtest.h"
#include "nn/kernels.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace dlinf {
namespace nn {
namespace {

/// Forces the scalar path for a scope and restores the previous dispatch.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool force) : was_avx2_(kernel::Avx2Enabled()) {
    kernel::ForceScalar(force);
  }
  ~ScopedForceScalar() { kernel::ForceScalar(false); }

  /// True when the machine actually has a second path to compare against.
  bool had_avx2() const { return was_avx2_; }

 private:
  bool was_avx2_;
};

std::vector<float> RandomVec(int64_t n, Rng* rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng->Uniform(-2.0, 2.0));
  return v;
}

/// The definition the kernel must reproduce bit-for-bit: per output element,
/// k-products accumulated serially with the correctly rounded fused
/// multiply-add.
void ReferenceGemm(int64_t m, int64_t n, int64_t k, const float* a,
                   int64_t lda, const float* b, int64_t ldb, float* c,
                   int64_t ldc, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = accumulate ? c[i * ldc + j] : 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc = std::fmaf(a[i * lda + p], b[p * ldb + j], acc);
      }
      c[i * ldc + j] = acc;
    }
  }
}

struct GemmShape {
  int64_t m, n, k;
};

TEST(KernelGemmTest, MatchesReferenceBitExactOnBothPaths) {
  Rng rng(20220505);
  // Edge shapes: empty K, single row, single column, pure SIMD tail
  // (n < 8), exact vector widths, the 48-column microkernel pass plus tail,
  // and row counts straddling the 64-row block boundary.
  const GemmShape shapes[] = {
      {1, 1, 1},   {1, 5, 3},   {3, 1, 4},  {2, 3, 0},  {1, 8, 2},
      {5, 7, 5},   {4, 16, 16}, {6, 48, 8}, {7, 50, 9}, {63, 9, 4},
      {64, 17, 3}, {65, 33, 6}, {2, 100, 31}};
  for (const GemmShape& s : shapes) {
    for (bool accumulate : {false, true}) {
      const std::vector<float> a = RandomVec(s.m * s.k, &rng);
      const std::vector<float> b = RandomVec(s.k * s.n, &rng);
      const std::vector<float> c0 = RandomVec(s.m * s.n, &rng);

      std::vector<float> want = c0;
      ReferenceGemm(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, want.data(),
                    s.n, accumulate);

      std::vector<float> scalar_c = c0;
      bool had_avx2 = false;
      {
        ScopedForceScalar force(true);
        had_avx2 = force.had_avx2();
        ASSERT_FALSE(kernel::Avx2Enabled());
        kernel::Gemm(s.m, s.n, s.k, a.data(), b.data(), scalar_c.data(),
                     accumulate);
      }
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(scalar_c[i], want[i])
            << "scalar path diverges from reference at " << i << " (m="
            << s.m << " n=" << s.n << " k=" << s.k << " acc=" << accumulate
            << ")";
      }

      if (!had_avx2) continue;  // No second path on this machine.
      std::vector<float> simd_c = c0;
      kernel::Gemm(s.m, s.n, s.k, a.data(), b.data(), simd_c.data(),
                   accumulate);
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(simd_c[i], want[i])
            << "AVX2 path diverges from scalar at " << i << " (m=" << s.m
            << " n=" << s.n << " k=" << s.k << " acc=" << accumulate << ")";
      }
    }
  }
}

TEST(KernelGemmTest, RandomizedShapeSweep) {
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const int64_t m = rng.UniformInt(1, 70);
    const int64_t n = rng.UniformInt(1, 70);
    const int64_t k = rng.UniformInt(0, 40);
    const std::vector<float> a = RandomVec(m * k, &rng);
    const std::vector<float> b = RandomVec(k * n, &rng);
    std::vector<float> want(static_cast<size_t>(m * n), 0.0f);
    ReferenceGemm(m, n, k, a.data(), k, b.data(), n, want.data(), n, false);

    std::vector<float> got(static_cast<size_t>(m * n), -1.0f);
    kernel::Gemm(m, n, k, a.data(), b.data(), got.data(), false);
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "trial " << trial << " element " << i
                                 << " (m=" << m << " n=" << n << " k=" << k
                                 << ")";
    }
  }
}

TEST(KernelGemmTest, StridedSubBlocksUseLeadingDimensions) {
  Rng rng(13);
  // Multiply an interior sub-block of padded matrices — the layout attention
  // uses to address one head's columns inside [N, D] projections.
  const int64_t m = 9, n = 11, k = 6;
  const int64_t lda = 17, ldb = 23, ldc = 19;
  const std::vector<float> a = RandomVec(m * lda, &rng);
  const std::vector<float> b = RandomVec(k * ldb, &rng);
  const std::vector<float> c0 = RandomVec(m * ldc, &rng);

  std::vector<float> want = c0;
  ReferenceGemm(m, n, k, a.data() + 2, lda, b.data() + 3, ldb,
                want.data() + 1, ldc, true);
  std::vector<float> got = c0;
  kernel::Gemm(m, n, k, a.data() + 2, lda, b.data() + 3, ldb, got.data() + 1,
               ldc, true);
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "element " << i;
  }
}

TEST(KernelEpilogueTest, RowPrimitivesArePathInvariant) {
  ScopedForceScalar probe(false);
  if (!probe.had_avx2()) GTEST_SKIP() << "no AVX2 on this machine";

  Rng rng(99);
  const int64_t rows = 13, n = 37;
  const std::vector<float> x = RandomVec(rows * n, &rng);
  const std::vector<float> bias = RandomVec(n, &rng);
  const std::vector<float> gamma = RandomVec(n, &rng);
  const std::vector<float> beta = RandomVec(n, &rng);

  struct Run {
    std::vector<float> biased, relu, soft, ln, mean, inv_std, colsum;
  };
  auto run = [&](bool force_scalar) {
    ScopedForceScalar force(force_scalar);
    Run r;
    r.biased = x;
    kernel::AddBiasRows(r.biased.data(), bias.data(), rows, n);
    r.relu = x;
    kernel::AddBiasReluRows(r.relu.data(), bias.data(), rows, n);
    r.soft.resize(x.size());
    kernel::SoftmaxRows(x.data(), r.soft.data(), rows, n);
    r.ln.resize(x.size());
    r.mean.resize(rows);
    r.inv_std.resize(rows);
    kernel::LayerNormRows(x.data(), gamma.data(), beta.data(), 1e-5f, rows, n,
                          r.ln.data(), r.mean.data(), r.inv_std.data());
    r.colsum.assign(n, 0.5f);
    kernel::ColumnSumRows(x.data(), rows, n, r.colsum.data());
    return r;
  };

  const Run scalar = run(true);
  const Run simd = run(false);
  EXPECT_EQ(scalar.biased, simd.biased);
  EXPECT_EQ(scalar.relu, simd.relu);
  EXPECT_EQ(scalar.soft, simd.soft);
  EXPECT_EQ(scalar.ln, simd.ln);
  EXPECT_EQ(scalar.mean, simd.mean);
  EXPECT_EQ(scalar.inv_std, simd.inv_std);
  EXPECT_EQ(scalar.colsum, simd.colsum);

  // Softmax rows are probability distributions regardless of path.
  for (int64_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (int64_t j = 0; j < n; ++j) sum += scalar.soft[r * n + j];
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(BufferPoolTest, ReleasedBuffersAreReusedAndZeroed) {
  const size_t size = 4096;
  // Warm the bucket so the acquire below cannot be a fresh allocation.
  {
    std::vector<float> warm = kernel::AcquireBuffer(size);
    std::fill(warm.begin(), warm.end(), 3.5f);
    kernel::ReleaseBuffer(std::move(warm));
  }
  const kernel::BufferPoolStats before = kernel::GetBufferPoolStats();
  std::vector<float> buf = kernel::AcquireBuffer(size);
  const kernel::BufferPoolStats after = kernel::GetBufferPoolStats();
  EXPECT_EQ(after.reused, before.reused + 1);
  EXPECT_EQ(buf.size(), size);
  for (float v : buf) {
    ASSERT_EQ(v, 0.0f) << "pooled buffers must come back zero-filled";
  }
  kernel::ReleaseBuffer(std::move(buf));
}

TEST(FusedOpGradTest, LinearExMatchesFiniteDifferences) {
  Rng rng(11);
  for (Activation act : {Activation::kNone, Activation::kRelu}) {
    Tensor x = Tensor::RandomUniform({2, 5, 3}, -1.0f, 1.0f, &rng,
                                     /*requires_grad=*/true);
    Tensor w = Tensor::RandomUniform({3, 4}, -1.0f, 1.0f, &rng,
                                     /*requires_grad=*/true);
    Tensor b = Tensor::RandomUniform({4}, -1.0f, 1.0f, &rng,
                                     /*requires_grad=*/true);
    ExpectGradientsMatch(
        [&]() { return Sum(LinearEx(x, w, b, act)); }, {x, w, b});
  }
}

TEST(FusedOpGradTest, FusedSelfAttentionMatchesFiniteDifferences) {
  Rng rng(23);
  const int B = 2, N = 3, D = 4, H = 2;
  Tensor x = Tensor::RandomUniform({B, N, D}, -1.0f, 1.0f, &rng,
                                   /*requires_grad=*/true);
  auto weight = [&]() {
    return Tensor::RandomUniform({D, D}, -0.7f, 0.7f, &rng,
                                 /*requires_grad=*/true);
  };
  auto bias = [&]() {
    return Tensor::RandomUniform({D}, -0.3f, 0.3f, &rng,
                                 /*requires_grad=*/true);
  };
  Tensor wq = weight(), wk = weight(), wv = weight(), wo = weight();
  Tensor bq = bias(), bk = bias(), bv = bias(), bo = bias();
  // Mask the last key of batch 0, as padded batches do.
  std::vector<float> mask_values = {0.0f, 0.0f, -1e9f, 0.0f, 0.0f, 0.0f};
  Tensor mask = Tensor::FromVector({B, 1, 1, N}, std::move(mask_values));

  ExpectGradientsMatch(
      [&]() {
        return Sum(FusedSelfAttention(x, wq, bq, wk, bk, wv, bv, wo, bo, mask,
                                      H, /*dropout_p=*/0.0f,
                                      /*training=*/false, /*masks=*/nullptr));
      },
      {x, wq, bq, wk, bk, wv, bv, wo, bo});
}

/// Bitwise float-vector equality (NaN sentinels compare by bits).
bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// The Gemm/GemmAtB definition: per element, k-products in serial order
/// through the correctly rounded fused multiply-add. With `at_b`, A is
/// stored [k, m] and element (i, p) is a[p * lda + i].
void ReferenceGemmAny(bool at_b, int64_t m, int64_t n, int64_t k,
                      const float* a, int64_t lda, const float* b,
                      int64_t ldb, float* c, int64_t ldc, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = accumulate ? c[i * ldc + j] : 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        const float aip = at_b ? a[p * lda + i] : a[i * lda + p];
        acc = std::fmaf(aip, b[p * ldb + j], acc);
      }
      c[i * ldc + j] = acc;
    }
  }
}

TEST(KernelGemmTest, TiledSweepCoversTailsPaddingAndGuards) {
  ScopedForceScalar probe(false);
  const bool has_avx2 = probe.had_avx2();
  Rng rng(31337);
  // m covers every m % 4 tail and the 64-row block edge; n every n % 8 and
  // n % 16 tail; k includes 0 and the long-k weight-gradient shape.
  const int64_t ms[] = {1, 2, 3, 4, 5, 7, 17, 64, 66};
  const int64_t ns[] = {1, 3, 7, 8, 9, 15, 16, 17, 24, 33};
  const int64_t ks[] = {0, 1, 3, 30};
  const float guard = std::nanf("0x5a5");
  for (const bool at_b : {false, true}) {
    for (const int64_t m : ms) {
      for (const int64_t n : ns) {
        for (const int64_t k : ks) {
          const int64_t pad = (m + n + k) % 2 == 0 ? 0 : 3;
          const int64_t a_rows = at_b ? k : m;
          const int64_t lda = (at_b ? m : k) + pad;
          const int64_t ldb = n + pad;
          const int64_t ldc = n + 5;  // Guard columns past n on every row.
          const std::vector<float> a = RandomVec(a_rows * lda, &rng);
          const std::vector<float> b = RandomVec(k * ldb, &rng);
          std::vector<float> c0 = RandomVec(m * ldc, &rng);
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = n; j < ldc; ++j) c0[i * ldc + j] = guard;
          }
          for (const bool accumulate : {false, true}) {
            std::vector<float> want = c0;
            ReferenceGemmAny(at_b, m, n, k, a.data(), lda, b.data(), ldb,
                             want.data(), ldc, accumulate);
            for (const bool force_scalar : {true, false}) {
              if (!force_scalar && !has_avx2) continue;
              ScopedForceScalar force(force_scalar);
              std::vector<float> got = c0;
              if (at_b) {
                kernel::GemmAtB(m, n, k, a.data(), lda, b.data(), ldb,
                                got.data(), ldc, accumulate);
              } else {
                kernel::Gemm(m, n, k, a.data(), lda, b.data(), ldb,
                             got.data(), ldc, accumulate);
              }
              ASSERT_TRUE(SameBits(got, want))
                  << (at_b ? "GemmAtB" : "Gemm") << " m=" << m << " n=" << n
                  << " k=" << k << " pad=" << pad << " acc=" << accumulate
                  << " path=" << kernel::PathName();
            }
          }
        }
      }
    }
  }
}

TEST(KernelGemmTest, GemmAtBEqualsGemmOverTransposedCopy) {
  // The contract the weight-gradient call sites rely on: reading A^T in
  // place is bit-identical to the Transpose + Gemm pair it replaced.
  Rng rng(480);
  const int64_t rows = 480, k = 16, n = 16;
  const std::vector<float> x = RandomVec(rows * k, &rng);
  const std::vector<float> gy = RandomVec(rows * n, &rng);
  const std::vector<float> w0 = RandomVec(k * n, &rng);
  std::vector<float> xt(static_cast<size_t>(rows * k));
  kernel::Transpose(x.data(), rows, k, k, xt.data());
  std::vector<float> want = w0;
  kernel::Gemm(k, n, rows, xt.data(), rows, gy.data(), n, want.data(), n,
               true);
  std::vector<float> got = w0;
  kernel::GemmAtB(k, n, rows, x.data(), k, gy.data(), n, got.data(), n, true);
  EXPECT_TRUE(SameBits(got, want));
}

TEST(KernelRowPrimitiveTest, LayerNormBackwardIsPathInvariant) {
  ScopedForceScalar probe(false);
  if (!probe.had_avx2()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(5);
  for (const int64_t n : {1, 5, 8, 16, 37}) {
    const int64_t rows = 23;
    const std::vector<float> x = RandomVec(rows * n, &rng);
    const std::vector<float> gy = RandomVec(rows * n, &rng);
    const std::vector<float> gamma = RandomVec(n, &rng);
    const std::vector<float> beta = RandomVec(n, &rng);
    const std::vector<float> gx0 = RandomVec(rows * n, &rng);
    const std::vector<float> gg0 = RandomVec(n, &rng);
    const std::vector<float> gb0 = RandomVec(n, &rng);
    struct Grads {
      std::vector<float> gx, ggamma, gbeta, gx_only, gbeta_only;
    };
    auto run = [&](bool force_scalar) {
      ScopedForceScalar force(force_scalar);
      std::vector<float> y(x.size()), mean(rows), inv_std(rows);
      kernel::LayerNormRows(x.data(), gamma.data(), beta.data(), 1e-5f, rows,
                            n, y.data(), mean.data(), inv_std.data());
      Grads g{gx0, gg0, gb0, gx0, gb0};
      kernel::LayerNormBackwardRows(x.data(), gamma.data(), gy.data(),
                                    mean.data(), inv_std.data(), rows, n,
                                    g.gx.data(), g.ggamma.data(),
                                    g.gbeta.data());
      kernel::LayerNormBackwardRows(x.data(), gamma.data(), gy.data(),
                                    mean.data(), inv_std.data(), rows, n,
                                    g.gx_only.data(), nullptr, nullptr);
      kernel::LayerNormBackwardRows(x.data(), gamma.data(), gy.data(),
                                    mean.data(), inv_std.data(), rows, n,
                                    nullptr, nullptr, g.gbeta_only.data());
      return g;
    };
    const Grads scalar = run(true);
    const Grads simd = run(false);
    EXPECT_TRUE(SameBits(scalar.gx, simd.gx)) << "n=" << n;
    EXPECT_TRUE(SameBits(scalar.ggamma, simd.ggamma)) << "n=" << n;
    EXPECT_TRUE(SameBits(scalar.gbeta, simd.gbeta)) << "n=" << n;
    EXPECT_TRUE(SameBits(scalar.gx_only, simd.gx_only)) << "n=" << n;
    EXPECT_TRUE(SameBits(scalar.gbeta_only, simd.gbeta_only)) << "n=" << n;
    EXPECT_TRUE(SameBits(scalar.gx, scalar.gx_only)) << "n=" << n;
  }
}

TEST(DropoutMaskTest, BlockFillMatchesPerDrawLoop) {
  ScopedForceScalar probe(false);
  const bool has_avx2 = probe.had_avx2();
  const int64_t sizes[] = {0, 1, 3, 311, 312, 313, 4096};
  // Start positions: fresh (twist due), mid-state, one word before and at
  // the twist boundary, and past a second twist.
  const int starts[] = {0, 1, 5, 310, 311, 312, 313, 700};
  const double probs[] = {0.1, 0.5, 0.9};
  for (const double p : probs) {
    const uint64_t threshold = Rng::BernoulliThreshold(p);
    const float keep = 1.0f / (1.0f - static_cast<float>(p));
    for (const int64_t n : sizes) {
      for (const int start : starts) {
        Mt19937_64 base(20260101 + start);
        for (int i = 0; i < start; ++i) base();
        Mt19937_64 ref_engine = base;
        std::vector<float> want(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i) {
          want[i] = ref_engine() < threshold ? 0.0f : keep;
        }
        for (const bool force_scalar : {true, false}) {
          if (!force_scalar && !has_avx2) continue;
          ScopedForceScalar force(force_scalar);
          Mt19937_64 engine = base;
          std::vector<float> got(static_cast<size_t>(n), -1.0f);
          kernel::FillDropoutMask(&engine, threshold, keep, got.data(), n);
          ASSERT_TRUE(SameBits(got, want))
              << "p=" << p << " n=" << n << " start=" << start
              << " path=" << kernel::PathName();
          ASSERT_TRUE(engine == ref_engine)
              << "end state differs: p=" << p << " n=" << n
              << " start=" << start << " path=" << kernel::PathName();
          // And the engine keeps drawing in lockstep afterwards.
          Mt19937_64 ref_after = ref_engine;
          for (int i = 0; i < 400; ++i) ASSERT_EQ(engine(), ref_after());
        }
      }
    }
  }
}

// --- Exact transcendentals -------------------------------------------------
//
// kernel::Exp / Expm1 / Tanh must return libm's bits for every float input
// (kernels.h). On the scalar path they call libm, so the comparisons below
// only test something on the AVX2 path; they skip elsewhere.

struct Transcendental {
  const char* name;
  void (*kernel)(const float*, float*, int64_t);
  float (*libm)(float);
};

const Transcendental kTranscendentals[] = {
    {"exp", kernel::Exp, [](float v) { return std::exp(v); }},
    {"expm1", kernel::Expm1, [](float v) { return ::expm1f(v); }},
    {"tanh", kernel::Tanh, [](float v) { return std::tanh(v); }},
};

float FromBits(uint32_t bits) {
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

uint32_t ToBits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Runs `f.kernel` over `inputs` in one span (lane positions and the masked
/// tail included) and counts the outputs whose bits differ from libm's,
/// reporting the first few.
int64_t CountLibmMismatches(const Transcendental& f,
                            const std::vector<float>& inputs) {
  std::vector<float> got(inputs.size());
  f.kernel(inputs.data(), got.data(), static_cast<int64_t>(inputs.size()));
  int64_t mismatches = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const float want = f.libm(inputs[i]);
    if (ToBits(got[i]) == ToBits(want)) continue;
    if (++mismatches <= 5) {
      ADD_FAILURE() << f.name << "(" << std::hexfloat << inputs[i]
                    << " = 0x" << std::hex << ToBits(inputs[i]) << ") gave "
                    << std::hexfloat << got[i] << ", libm " << want;
    }
  }
  return mismatches;
}

/// Every branch threshold of the three algorithms (as |x| bit patterns),
/// each probed +-64 ULPs on both signs, plus the special values.
TEST(KernelTranscendentalTest, ThresholdsAndSpecialValuesMatchLibm) {
  ScopedForceScalar probe(false);
  if (!probe.had_avx2()) GTEST_SKIP() << "no AVX2 on this machine";
  const float ln2 = 0x1.62e43p-1f;
  std::vector<uint32_t> thresholds = {
      // expf: the main path's 88.0f exit, overflow, underflow, may-underflow.
      0x42b00000, 0x42b17218, 0x42cff1b4, 0x42ce8ecf,
      // expm1f: |x| vs 2^-25, ln2/2, 1.5 ln2, 27 ln2, o_threshold, 88.72.
      0x33000000, 0x3eb17218, 0x3f851592, 0x4195b844, 0x42b17180, 0x42b17218,
      // tanhf: 2^-55, 1, 22.
      0x24000000, 0x3f800000, 0x41b00000,
      // Zero, subnormals, the smallest normal, infinity.
      0x00000000, 0x00800000, 0x7f800000};
  // expm1f's k (x / ln2 rounded half away) changes branch at -1/-2, 1/2,
  // 22/23 and 56/57.
  for (const float k : {1.5f, 2.5f, 22.5f, 23.5f, 56.5f, 57.5f}) {
    thresholds.push_back(ToBits(k * ln2));
  }
  std::vector<float> inputs;
  for (const uint32_t t : thresholds) {
    for (int64_t d = -64; d <= 64; ++d) {
      const int64_t bits = static_cast<int64_t>(t) + d;
      if (bits < 0 || bits > 0x7fffffff) continue;
      inputs.push_back(FromBits(static_cast<uint32_t>(bits)));
      inputs.push_back(-FromBits(static_cast<uint32_t>(bits)));
    }
  }
  for (const float v :
       {0.0f, -0.0f, 1.0f, -1.0f, -1e9f, 1e9f, 0x1p-149f, -0x1p-149f,
        0x1p-126f, 0x1.fffffep127f, -0x1.fffffep127f, FromBits(0x7fc00000),
        FromBits(0xffc00000), FromBits(0x7f800001), FromBits(0x7fa5a5a5),
        FromBits(0xff812345), FromBits(0x7fffffff)}) {
    inputs.push_back(v);
  }
  for (const Transcendental& f : kTranscendentals) {
    EXPECT_EQ(CountLibmMismatches(f, inputs), 0) << f.name;
  }
}

/// About 1M bit patterns spread over all 2^32 by a prime stride.
TEST(KernelTranscendentalTest, PrimeStrideSweepMatchesLibm) {
  ScopedForceScalar probe(false);
  if (!probe.had_avx2()) GTEST_SKIP() << "no AVX2 on this machine";
  constexpr uint64_t kStride = 4093;
  std::vector<float> inputs;
  inputs.reserve((uint64_t{1} << 32) / kStride + 1);
  for (uint64_t bits = 0; bits < (uint64_t{1} << 32); bits += kStride) {
    inputs.push_back(FromBits(static_cast<uint32_t>(bits)));
  }
  for (const Transcendental& f : kTranscendentals) {
    EXPECT_EQ(CountLibmMismatches(f, inputs), 0) << f.name;
  }
}

/// All 2^32 inputs, in 2^20-float spans. Disabled by default (tens of
/// seconds each); CI's simd-dispatch avx2 leg runs them with
/// --gtest_also_run_disabled_tests.
void SweepAllFloats(const Transcendental& f) {
  ScopedForceScalar probe(false);
  if (!probe.had_avx2()) GTEST_SKIP() << "no AVX2 on this machine";
  constexpr uint64_t kSpan = uint64_t{1} << 20;
  std::vector<float> inputs(kSpan);
  int64_t mismatches = 0;
  for (uint64_t base = 0; base < (uint64_t{1} << 32); base += kSpan) {
    for (uint64_t i = 0; i < kSpan; ++i) {
      inputs[i] = FromBits(static_cast<uint32_t>(base + i));
    }
    mismatches += CountLibmMismatches(f, inputs);
  }
  EXPECT_EQ(mismatches, 0) << f.name;
}

TEST(KernelTranscendentalTest, DISABLED_ExpMatchesLibmOnAllFloats) {
  SweepAllFloats(kTranscendentals[0]);
}

TEST(KernelTranscendentalTest, DISABLED_Expm1MatchesLibmOnAllFloats) {
  SweepAllFloats(kTranscendentals[1]);
}

TEST(KernelTranscendentalTest, DISABLED_TanhMatchesLibmOnAllFloats) {
  SweepAllFloats(kTranscendentals[2]);
}

/// Rows whose double dot product rounds to a different float in any order
/// that adds the 1 + 2^-23 term before the three 2^-54 terms: in column
/// order the dot is 1 + 2^-24 + 2^-52 and rounds up to 1 + 2^-23; added
/// after the big term each 2^-54 is lost, and 1 + 2^-24 rounds to even,
/// 1. Swept over every row position in and past a 4-row block and every
/// column offset, so a lane or column mix-up on the AVX2 path shows.
TEST(KernelRowPrimitiveTest, SoftmaxBackwardSumsEachRowInColumnOrder) {
  ScopedForceScalar probe(false);
  if (!probe.had_avx2()) GTEST_SKIP() << "no AVX2 on this machine";
  const float pattern[] = {0x1p-54f, 0x1p-54f, 0x1p-54f, 1.0f + 0x1p-23f,
                           -0x1p-24f};
  const int64_t width = static_cast<int64_t>(std::size(pattern));
  const int64_t rows = 7;
  for (int64_t n = width + 1; n <= 21; ++n) {
    for (int64_t row = 0; row < rows; ++row) {
      for (int64_t offset = 0; offset + width <= n; ++offset) {
        const std::vector<float> y(static_cast<size_t>(rows * n), 1.0f);
        std::vector<float> gy(y.size(), 0.0f);
        for (int64_t k = 0; k < width; ++k) {
          gy[row * n + offset + k] = pattern[k];
        }
        for (const bool force_scalar : {true, false}) {
          ScopedForceScalar force(force_scalar);
          std::vector<float> gx(y.size(), 0.0f);
          kernel::SoftmaxBackwardRows(y.data(), gy.data(), gx.data(), rows,
                                      n);
          // gx = 1 * (gy - dot_f), so a column where gy is 0 reads -dot_f.
          const int64_t zero_col = offset == 0 ? width : 0;
          ASSERT_EQ(ToBits(-gx[row * n + zero_col]), ToBits(1.0f + 0x1p-23f))
              << kernel::PathName() << " n=" << n << " row=" << row
              << " offset=" << offset;
        }
      }
    }
  }
}

/// SoftmaxRows, SoftmaxBackwardRows and Tanh on both paths for every width
/// 1..40 (full strips, tails, and 4-row blocks with a remainder), with
/// rows masked by -1e9 padding logits, constant rows, rows mixing +0 and
/// -0, and the in-place softmax the attention kernel runs.
TEST(KernelRowPrimitiveTest, SoftmaxAndTanhArePathInvariant) {
  ScopedForceScalar probe(false);
  if (!probe.had_avx2()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(32);
  const int64_t rows = 11;
  for (int64_t n = 1; n <= 40; ++n) {
    std::vector<float> x(static_cast<size_t>(rows * n));
    for (float& v : x) v = static_cast<float>(rng.Uniform(-30.0, 30.0));
    for (int64_t j = 0; j < n; ++j) {
      if (j % 3 == 2) x[1 * n + j] = -1e9f;       // padding-masked row
      x[2 * n + j] = 0.75f;                       // constant row
      x[3 * n + j] = j % 2 == 0 ? 0.0f : -0.0f;   // zero maximum
      if (j > 0) x[4 * n + j] = -1e9f;            // all masked but one
      x[5 * n + j] *= 4.0f;                       // spans exp's cut-offs
    }
    const std::vector<float> gy = RandomVec(rows * n, &rng);
    const std::vector<float> gx0 = RandomVec(rows * n, &rng);
    struct Out {
      std::vector<float> soft, in_place, gx, tanh;
    };
    auto run = [&](bool force_scalar) {
      ScopedForceScalar force(force_scalar);
      Out o;
      o.soft.resize(x.size());
      kernel::SoftmaxRows(x.data(), o.soft.data(), rows, n);
      o.in_place = x;
      kernel::SoftmaxRows(o.in_place.data(), o.in_place.data(), rows, n);
      o.gx = gx0;
      kernel::SoftmaxBackwardRows(o.soft.data(), gy.data(), o.gx.data(), rows,
                                  n);
      o.tanh.resize(x.size());
      kernel::Tanh(x.data(), o.tanh.data(), rows * n);
      return o;
    };
    const Out scalar = run(true);
    const Out simd = run(false);
    EXPECT_TRUE(SameBits(scalar.soft, simd.soft)) << "n=" << n;
    EXPECT_TRUE(SameBits(scalar.soft, simd.in_place)) << "n=" << n;
    EXPECT_TRUE(SameBits(scalar.gx, simd.gx)) << "n=" << n;
    EXPECT_TRUE(SameBits(scalar.tanh, simd.tanh)) << "n=" << n;
  }
}

// --- Fused epilogues, attention panels, layer-norm statistics, Adam -------
//
// Each kernel is checked on both paths against the per-element formula (or
// the unfused op sequence) it replaces, bit for bit, for widths 1..40 and
// row counts on and off the 4-row blocks, with +-0, subnormals and NaN
// among the inputs.

/// Uniform values in [-2, 2] with +0, -0, two subnormals and (when
/// `with_nan`) NaN scattered among them.
std::vector<float> SpecialVec(int64_t n, Rng* rng, bool with_nan = true) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) {
    switch (rng->UniformInt(0, 11)) {
      case 0: x = 0.0f; break;
      case 1: x = -0.0f; break;
      case 2: x = 0x1p-140f; break;
      case 3: x = -0x1.8p-130f; break;
      case 4:
        x = with_nan ? std::numeric_limits<float>::quiet_NaN() : 1.0f;
        break;
      default: x = static_cast<float>(rng->Uniform(-2.0, 2.0));
    }
  }
  return v;
}

/// Runs `fn` on the scalar path and (when this machine has one) on the
/// AVX2 path, each time handing it the path's name.
template <typename Fn>
void OnBothPaths(const Fn& fn) {
  bool had_avx2 = false;
  {
    ScopedForceScalar force(true);
    had_avx2 = force.had_avx2();
    fn("scalar");
  }
  if (had_avx2) fn("avx2");
}

const int64_t kRowCounts[] = {1, 2, 3, 4, 5, 7, 9};

TEST(KernelSpanTest, ElementwiseSpansMatchTheirFormulasOnBothPaths) {
  Rng rng(2024);
  for (int64_t n = 1; n <= 40; ++n) {
    const std::vector<float> a = SpecialVec(n, &rng);
    const std::vector<float> b = SpecialVec(n, &rng);
    const std::vector<float> m = SpecialVec(n, &rng);
    std::vector<float> mul(n), acc(n), mul_acc(n), gate(n), tanh_grad(n),
        sigmoid(n);
    for (int64_t i = 0; i < n; ++i) {
      mul[i] = a[i] * b[i];
      acc[i] = b[i] + a[i];
      mul_acc[i] = b[i] + a[i] * m[i];
      gate[i] = a[i] > 0.0f ? b[i] : 0.0f;
      tanh_grad[i] = m[i] + b[i] * (1.0f - a[i] * a[i]);
      sigmoid[i] = 1.0f / (1.0f + std::exp(-a[i]));
    }
    OnBothPaths([&](const char* path) {
      SCOPED_TRACE(std::string(path) + " n=" + std::to_string(n));
      std::vector<float> out(n);
      kernel::MulSpan(a.data(), b.data(), out.data(), n);
      EXPECT_TRUE(SameBits(out, mul));
      out = b;
      kernel::AccumulateSpan(a.data(), out.data(), n);
      EXPECT_TRUE(SameBits(out, acc));
      out = b;
      kernel::MulAccumulateSpan(a.data(), m.data(), out.data(), n);
      EXPECT_TRUE(SameBits(out, mul_acc));
      kernel::ReluGate(a.data(), b.data(), out.data(), n);
      EXPECT_TRUE(SameBits(out, gate));
      out = m;
      kernel::TanhBackward(a.data(), b.data(), out.data(), n);
      EXPECT_TRUE(SameBits(out, tanh_grad));
      kernel::Sigmoid(a.data(), out.data(), n);
      EXPECT_TRUE(SameBits(out, sigmoid));
    });
    for (const int64_t rows : kRowCounts) {
      const std::vector<float> x = SpecialVec(rows * n, &rng);
      std::vector<float> want(x.size());
      for (int64_t r = 0; r < rows; ++r) {
        for (int64_t j = 0; j < n; ++j) want[r * n + j] = x[r * n + j] + b[j];
      }
      OnBothPaths([&](const char* path) {
        std::vector<float> out(x.size());
        kernel::AddRowBroadcast(x.data(), b.data(), out.data(), rows, n);
        EXPECT_TRUE(SameBits(out, want))
            << path << " rows=" << rows << " n=" << n;
      });
    }
  }
}

/// The per-element formula the Sigmoid op computed before it ran on
/// kernel::Sigmoid, over a prime-stride sweep of all float bit patterns.
TEST(KernelTranscendentalTest, SigmoidMatchesThePerElementFormula) {
  constexpr uint64_t kStride = 4093;
  std::vector<float> inputs;
  for (uint64_t bits = 0; bits < (uint64_t{1} << 32); bits += kStride) {
    inputs.push_back(FromBits(static_cast<uint32_t>(bits)));
  }
  std::vector<float> want(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    want[i] = 1.0f / (1.0f + std::exp(-inputs[i]));
  }
  OnBothPaths([&](const char* path) {
    std::vector<float> got(inputs.size());
    kernel::Sigmoid(inputs.data(), got.data(),
                    static_cast<int64_t>(inputs.size()));
    EXPECT_TRUE(SameBits(got, want)) << path;
    // And through the op, on a slice of the sweep.
    const std::vector<float> slice(inputs.begin(), inputs.begin() + 4096);
    const Tensor y = Sigmoid(Tensor::FromVector({64, 64}, slice));
    EXPECT_TRUE(SameBits(y.data(), std::vector<float>(want.begin(),
                                                      want.begin() + 4096)))
        << path;
  });
}

/// The softmax row AttentionPanelForward must reproduce: serial max, libm
/// exp, serial double denominator, one multiply by its rounded inverse.
void ReferenceSoftmaxRow(float* row, int64_t n) {
  float max_v = row[0];
  for (int64_t j = 1; j < n; ++j) max_v = std::max(max_v, row[j]);
  double denom = 0.0;
  for (int64_t j = 0; j < n; ++j) {
    row[j] = std::exp(row[j] - max_v);
    denom += row[j];
  }
  const float inv = static_cast<float>(1.0 / denom);
  for (int64_t j = 0; j < n; ++j) row[j] *= inv;
}

TEST(KernelAttentionPanelTest, ForwardMatchesTheUnfusedSequence) {
  Rng rng(77);
  const float scale = 1.0f / std::sqrt(8.0f);
  for (int64_t n = 1; n <= 40; ++n) {
    for (const int64_t rows : kRowCounts) {
      std::vector<float> scores(static_cast<size_t>(rows * n));
      for (float& v : scores) v = static_cast<float>(rng.Uniform(-9.0, 9.0));
      const std::vector<float> special = SpecialVec(rows * n, &rng, false);
      for (size_t i = 0; i < scores.size(); i += 3) scores[i] = special[i];
      if (rows > 2) scores[2 * n] = std::numeric_limits<float>::quiet_NaN();
      // An additive mask: padding at -1e9 past the middle, and moderate
      // values before it, so applying it before the scale would show.
      std::vector<float> mask(static_cast<size_t>(n), 0.0f);
      for (int64_t j = 0; j < n; ++j) {
        mask[j] = j > n / 2 ? -1e9f
                            : static_cast<float>(rng.Uniform(-3.0, 0.0));
      }
      std::vector<float> dmask(scores.size());
      for (float& v : dmask) v = rng.Bernoulli(0.1) ? 0.0f : 1.0f / 0.9f;

      for (const bool masked : {false, true}) {
        for (const bool dropout : {false, true}) {
          // Scale, mask, softmax and dropout as the separate passes the
          // fused kernel replaced.
          std::vector<float> want = scores;
          std::vector<float> want_dropped(scores.size());
          for (int64_t r = 0; r < rows; ++r) {
            float* row = want.data() + r * n;
            for (int64_t j = 0; j < n; ++j) {
              float s = row[j] * scale;
              if (masked) s += mask[j];
              row[j] = s;
            }
            ReferenceSoftmaxRow(row, n);
          }
          for (size_t i = 0; i < want.size(); ++i) {
            want_dropped[i] = want[i] * dmask[i];
          }
          OnBothPaths([&](const char* path) {
            std::vector<float> panel = scores;
            std::vector<float> dropped(scores.size(), -7.0f);
            kernel::AttentionPanelForward(
                panel.data(), masked ? mask.data() : nullptr, scale,
                dropout ? dmask.data() : nullptr, dropped.data(), rows, n);
            const std::string where = std::string(path) +
                                      " rows=" + std::to_string(rows) +
                                      " n=" + std::to_string(n) +
                                      " mask=" + std::to_string(masked) +
                                      " dropout=" + std::to_string(dropout);
            EXPECT_TRUE(SameBits(panel, want)) << where;
            if (dropout) {
              EXPECT_TRUE(SameBits(dropped, want_dropped)) << where;
            } else {
              EXPECT_TRUE(SameBits(dropped, std::vector<float>(
                                                scores.size(), -7.0f)))
                  << where << ": no dropout must leave `dropped` alone";
            }
          });
        }
      }
    }
  }
}

TEST(KernelAttentionPanelTest, BackwardMatchesTheUnfusedSequence) {
  Rng rng(78);
  const float scale = 1.0f / std::sqrt(8.0f);
  for (int64_t n = 1; n <= 40; ++n) {
    for (const int64_t rows : kRowCounts) {
      std::vector<float> probs(static_cast<size_t>(rows * n));
      for (float& v : probs) v = static_cast<float>(rng.Uniform(0.0, 1.0));
      const std::vector<float> dpd0 = SpecialVec(rows * n, &rng);
      std::vector<float> dmask(probs.size());
      for (float& v : dmask) v = rng.Bernoulli(0.1) ? 0.0f : 1.0f / 0.9f;
      for (const bool dropout : {false, true}) {
        // dpd *= dmask, ds = 0, ds += softmax backward, ds *= scale.
        std::vector<float> want_dpd = dpd0;
        if (dropout) {
          for (size_t i = 0; i < want_dpd.size(); ++i) want_dpd[i] *= dmask[i];
        }
        std::vector<float> want_ds(probs.size(), 0.0f);
        for (int64_t r = 0; r < rows; ++r) {
          const float* p = probs.data() + r * n;
          const float* g = want_dpd.data() + r * n;
          double dot = 0.0;
          for (int64_t j = 0; j < n; ++j) {
            dot += static_cast<double>(g[j]) * p[j];
          }
          const float dot_f = static_cast<float>(dot);
          for (int64_t j = 0; j < n; ++j) {
            want_ds[r * n + j] += p[j] * (g[j] - dot_f);
          }
        }
        for (float& v : want_ds) v *= scale;
        OnBothPaths([&](const char* path) {
          std::vector<float> dpd = dpd0;
          std::vector<float> ds(probs.size(), 5.0f);
          kernel::AttentionPanelBackward(probs.data(),
                                         dropout ? dmask.data() : nullptr,
                                         dpd.data(), scale, ds.data(), rows, n);
          const std::string where =
              std::string(path) + " rows=" + std::to_string(rows) +
              " n=" + std::to_string(n) + " dropout=" + std::to_string(dropout);
          EXPECT_TRUE(SameBits(dpd, want_dpd)) << where;
          EXPECT_TRUE(SameBits(ds, want_ds)) << where;
        });
      }
    }
  }
}

/// LayerNormRows' statistics and LayerNormBackwardRows' row sums against
/// the serial double formulas, on both paths, with special values.
TEST(KernelRowPrimitiveTest, LayerNormRowSumsMatchSerialDoubleChains) {
  Rng rng(79);
  const float eps = 1e-5f;
  for (int64_t n = 1; n <= 40; ++n) {
    for (const int64_t rows : kRowCounts) {
      const std::vector<float> x = SpecialVec(rows * n, &rng, rows != 9);
      const std::vector<float> gy = SpecialVec(rows * n, &rng, rows != 9);
      const std::vector<float> gamma = RandomVec(n, &rng);
      const std::vector<float> beta = RandomVec(n, &rng);
      const std::vector<float> gx0 = RandomVec(rows * n, &rng);
      std::vector<float> want_y(x.size()), want_mean(rows), want_istd(rows),
          want_gx = gx0;
      const float nf = static_cast<float>(n);
      for (int64_t r = 0; r < rows; ++r) {
        const float* xr = x.data() + r * n;
        double mu = 0.0;
        for (int64_t j = 0; j < n; ++j) mu += xr[j];
        mu /= static_cast<double>(n);
        double var = 0.0;
        for (int64_t j = 0; j < n; ++j) var += (xr[j] - mu) * (xr[j] - mu);
        var /= static_cast<double>(n);
        want_mean[r] = static_cast<float>(mu);
        want_istd[r] = static_cast<float>(1.0 / std::sqrt(var + eps));
        for (int64_t j = 0; j < n; ++j) {
          want_y[r * n + j] =
              gamma[j] * (xr[j] - want_mean[r]) * want_istd[r] + beta[j];
        }
        const float* gyr = gy.data() + r * n;
        double sum_dxhat = 0.0;
        double sum_dot = 0.0;
        for (int64_t j = 0; j < n; ++j) {
          const float dxhat = gyr[j] * gamma[j];
          const float xhat = (xr[j] - want_mean[r]) * want_istd[r];
          sum_dxhat += dxhat;
          sum_dot += static_cast<double>(dxhat) * xhat;
        }
        const float a = static_cast<float>(sum_dxhat) / nf;
        const float s = static_cast<float>(sum_dot);
        for (int64_t j = 0; j < n; ++j) {
          const float dxhat = gyr[j] * gamma[j];
          const float xhat = (xr[j] - want_mean[r]) * want_istd[r];
          want_gx[r * n + j] += want_istd[r] * (dxhat - a - xhat * s / nf);
        }
      }
      OnBothPaths([&](const char* path) {
        std::vector<float> y(x.size()), mean(rows), istd(rows);
        kernel::LayerNormRows(x.data(), gamma.data(), beta.data(), eps, rows,
                              n, y.data(), mean.data(), istd.data());
        std::vector<float> gx = gx0;
        kernel::LayerNormBackwardRows(x.data(), gamma.data(), gy.data(),
                                      mean.data(), istd.data(), rows, n,
                                      gx.data(), nullptr, nullptr);
        const std::string where = std::string(path) +
                                  " rows=" + std::to_string(rows) +
                                  " n=" + std::to_string(n);
        EXPECT_TRUE(SameBits(mean, want_mean)) << where;
        EXPECT_TRUE(SameBits(istd, want_istd)) << where;
        EXPECT_TRUE(SameBits(y, want_y)) << where;
        EXPECT_TRUE(SameBits(gx, want_gx)) << where;
      });
    }
  }
}

/// Sums whose double rounding depends on the column order: with
/// d = 2^-53, d + d + d + 1 rounds up to 1 + 2^-51, while 1 + d (a tie)
/// stays 1, three times over. Followed by 1 + 2^-23, the row sum is
/// 2 + 2^-23 + 2^-51 in column order and 2 + 2^-23 otherwise, and the two
/// round to different floats: as the layer-norm mean (divided by a power
/// of two) and as the backward pass's sum of dxhat = gy * 1. Swept over
/// every row in and past a 4-row block and every column offset, so a lane
/// or column mix-up on the AVX2 path shows.
TEST(KernelRowPrimitiveTest, LayerNormSumsEachRowInColumnOrder) {
  const float pattern[] = {0x1p-53f, 0x1p-53f, 0x1p-53f, 1.0f,
                           1.0f + 0x1p-23f};
  const int64_t width = static_cast<int64_t>(std::size(pattern));
  const int64_t rows = 7;
  for (const int64_t n : {8, 16, 32}) {
    const std::vector<float> ones(static_cast<size_t>(n), 1.0f);
    const std::vector<float> zeros(static_cast<size_t>(n), 0.0f);
    for (int64_t row = 0; row < rows; ++row) {
      for (int64_t offset = 0; offset + width <= n; ++offset) {
        std::vector<float> x(static_cast<size_t>(rows * n), 0.0f);
        for (int64_t k = 0; k < width; ++k) {
          x[row * n + offset + k] = pattern[k];
        }
        // The column-order mean, (2 + 2^-23 + 2^-51) / n rounded up.
        const float want_mean = (2.0f + 0x1p-22f) / static_cast<float>(n);
        OnBothPaths([&](const char* path) {
          std::vector<float> y(x.size()), mean(rows), istd(rows);
          kernel::LayerNormRows(x.data(), ones.data(), zeros.data(), 1e-5f,
                                rows, n, y.data(), mean.data(), istd.data());
          const std::string where = std::string(path) +
                                    " n=" + std::to_string(n) +
                                    " row=" + std::to_string(row) +
                                    " offset=" + std::to_string(offset);
          ASSERT_EQ(ToBits(mean[row]), ToBits(want_mean)) << where;
          // Backward with gy = the pattern, gamma = 1, x = mean = 0 and
          // inv_std = 1: xhat is 0, so gx = gy - mean_dxhat, and a column
          // where gy is 0 reads -mean_dxhat, the same sum rounded to float
          // and divided by n.
          const std::vector<float> x_zero(x.size(), 0.0f);
          const std::vector<float> zero_mean(rows, 0.0f);
          const std::vector<float> unit_istd(rows, 1.0f);
          std::vector<float> gx(x.size(), 0.0f);
          kernel::LayerNormBackwardRows(x_zero.data(), ones.data(), x.data(),
                                        zero_mean.data(), unit_istd.data(),
                                        rows, n, gx.data(), nullptr, nullptr);
          const int64_t zero_col = offset == 0 ? width : 0;
          ASSERT_EQ(ToBits(-gx[row * n + zero_col]), ToBits(want_mean))
              << where;
        });
      }
    }
  }
}

TEST(KernelOptimizerTest, AdamStepMatchesTheScalarUpdate) {
  Rng rng(80);
  for (const int64_t count : {1, 2, 7, 8, 9, 15, 16, 17, 31, 40, 1000}) {
    const std::vector<float> g = SpecialVec(count, &rng);
    const std::vector<float> w0 = SpecialVec(count, &rng);
    const std::vector<float> m0 = SpecialVec(count, &rng);
    std::vector<float> v0(static_cast<size_t>(count));
    for (float& v : v0) v = static_cast<float>(rng.Uniform(0.0, 0.01));
    v0[0] = 0.0f;
    for (int t = 1; t <= 3; ++t) {
      const float beta1 = 0.9f;
      const float beta2 = 0.999f;
      const kernel::AdamCoefficients c = {
          .beta1 = beta1,
          .beta2 = beta2,
          .one_minus_beta1 = 1.0f - beta1,
          .one_minus_beta2 = 1.0f - beta2,
          .bias1 = 1.0f - std::pow(beta1, static_cast<float>(t)),
          .bias2 = 1.0f - std::pow(beta2, static_cast<float>(t)),
          .learning_rate = 2e-3f,
          .eps = 1e-8f};
      std::vector<float> want_w = w0, want_m = m0, want_v = v0;
      for (int64_t j = 0; j < count; ++j) {
        want_m[j] = beta1 * want_m[j] + (1.0f - beta1) * g[j];
        want_v[j] = beta2 * want_v[j] + (1.0f - beta2) * g[j] * g[j];
        const float m_hat = want_m[j] / c.bias1;
        const float v_hat = want_v[j] / c.bias2;
        want_w[j] -= c.learning_rate * m_hat / (std::sqrt(v_hat) + c.eps);
      }
      OnBothPaths([&](const char* path) {
        std::vector<float> w = w0, m = m0, v = v0;
        kernel::AdamStep(c, g.data(), w.data(), m.data(), v.data(), count);
        const std::string where = std::string(path) +
                                  " count=" + std::to_string(count) +
                                  " t=" + std::to_string(t);
        EXPECT_TRUE(SameBits(w, want_w)) << where;
        EXPECT_TRUE(SameBits(m, want_m)) << where;
        EXPECT_TRUE(SameBits(v, want_v)) << where;
      });
    }
  }
}

TEST(BufferPoolTest, OverwriteAcquisitionSkipsTheZeroFill) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  kernel::PoisonBufferPool(nan, 4096);
  const kernel::BufferPoolStats before = kernel::GetBufferPoolStats();
  std::vector<float> raw = kernel::AcquireBufferForOverwrite(1000);
  std::vector<float> zeroed = kernel::AcquireBuffer(1000);
  EXPECT_EQ(kernel::GetBufferPoolStats().reused, before.reused + 2);
  ASSERT_EQ(raw.size(), 1000u);
  ASSERT_EQ(zeroed.size(), 1000u);
  for (size_t i = 0; i < raw.size(); ++i) {
    ASSERT_TRUE(std::isnan(raw[i])) << "poisoned contents must survive " << i;
    ASSERT_EQ(ToBits(zeroed[i]), 0u) << "AcquireBuffer must zero " << i;
  }
  kernel::ReleaseBuffer(std::move(raw));
  kernel::ReleaseBuffer(std::move(zeroed));
  // Clear the poison for whatever runs next on this thread.
  kernel::PoisonBufferPool(0.0f, 0);
}

/// Add's row-broadcast path against the element-wise walk it replaces:
/// out = a + b stretched, a's gradient g, b's the per-column sum of g over
/// the stretched rows in row order.
TEST(FusedOpTest, BroadcastAddMatchesTheElementWiseWalk) {
  Rng rng(81);
  struct Case {
    Shape a, b;
  };
  const Case cases[] = {{{3, 5, 7}, {3, 1, 7}}, {{6, 9}, {9}},
                        {{6, 9}, {1, 9}},       {{4, 6}, {4, 6}},
                        {{2, 3, 4, 5}, {2, 1, 1, 5}}, {{5, 4}, {5, 1}}};
  for (const Case& c : cases) {
    const Tensor a = Tensor::FromVector(
        c.a, SpecialVec(NumElements(c.a), &rng, false), true);
    const Tensor b = Tensor::FromVector(
        c.b, SpecialVec(NumElements(c.b), &rng, false), true);
    const std::vector<float> g = RandomVec(a.numel(), &rng);
    OnBothPaths([&](const char* path) {
      a.impl()->grad.assign(a.numel(), 0.0f);
      b.impl()->grad.assign(b.numel(), 0.0f);
      const Tensor out = Add(a, b);
      // Weighted sum, so each output's gradient is g.
      Sum(Mul(out, Tensor::FromVector(c.a, g))).Backward();
      // The element-wise walk: out element i reads b at its multi-index,
      // right-aligned onto b's shape with b's size-1 axes pinned to 0.
      auto b_index = [&](int64_t flat) {
        const int rank = static_cast<int>(c.a.size());
        const int pad = rank - static_cast<int>(c.b.size());
        int64_t index = 0;
        int64_t stride = 1;
        for (int axis = rank - 1; axis >= pad; --axis) {
          const int64_t coord = flat % c.a[axis];
          flat /= c.a[axis];
          if (c.b[axis - pad] != 1) index += coord * stride;
          stride *= c.b[axis - pad];
        }
        return index;
      };
      std::vector<float> want(a.numel()), want_gb(b.numel(), 0.0f);
      for (int64_t i = 0; i < a.numel(); ++i) {
        want[i] = a.data()[i] + b.data()[b_index(i)];
        want_gb[b_index(i)] += g[i];
      }
      const std::string where = std::string(path) + " " +
                                ShapeToString(c.a) + "+" + ShapeToString(c.b);
      EXPECT_TRUE(SameBits(out.data(), want)) << where;
      EXPECT_TRUE(SameBits(a.grad(), g)) << where;
      EXPECT_TRUE(SameBits(b.grad(), want_gb)) << where;
    });
  }
}

}  // namespace
}  // namespace nn
}  // namespace dlinf
