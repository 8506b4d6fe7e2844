// AVX2/FMA microkernels, isolated in their own translation unit so only
// this file is built with -mavx2 -mfma (see src/nn/CMakeLists.txt). The
// dispatcher in kernels.cc only calls these after a runtime
// __builtin_cpu_supports check, so the rest of the binary stays runnable on
// baseline x86-64. Building with -DDLINF_DISABLE_AVX2=ON (or a compiler
// without AVX2) turns this file into stubs and pins dispatch to scalar.
//
// Determinism: each GEMM output element accumulates its k-products serially
// with vfmadd (one fused rounding per step) — exactly the std::fmaf sequence
// the scalar path performs. The row primitives use explicit mul/add
// intrinsics (this file is built with -ffp-contract=off, so nothing is fused
// behind their back) and keep every reduction serial, so the two paths are
// bit-identical (kernels.h). The exp, expm1 and tanh forms replay libm's own
// operations lane by lane (see "Exact transcendentals" below).

#include <cstddef>
#include <cstdint>

#include "common/check.h"
#include "common/mt19937_64.h"
#include "nn/kernels.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>

#include <cmath>
#include <type_traits>
#endif

namespace dlinf {
namespace nn {
namespace kernel {
namespace detail {

#if defined(__AVX2__) && defined(__FMA__)

extern const bool kAvx2Compiled = true;

namespace {

/// Lane mask selecting the first `count` (1..8) lanes of a vector.
inline __m256i TailMask(int64_t count) {
  static const int32_t kLanes[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                     0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kLanes + 8 - count));
}

/// Eight lanes at p, or only the lanes of `lanes` when kMasked (the
/// masked-off columns are neither read nor written).
template <bool kMasked>
inline __m256 Load8(const float* p, __m256i lanes) {
  if constexpr (kMasked) {
    return _mm256_maskload_ps(p, lanes);
  } else {
    return _mm256_loadu_ps(p);
  }
}

template <bool kMasked>
inline void Store8(float* p, __m256i lanes, __m256 v) {
  if constexpr (kMasked) {
    _mm256_maskstore_ps(p, lanes, v);
  } else {
    _mm256_storeu_ps(p, v);
  }
}

/// Calls fn(std::bool_constant<masked>, j, lanes) for each 8-column strip
/// of an n-wide row: full strips unmasked, then one masked tail strip.
template <typename Fn>
inline void ForEachStrip(int64_t n, Fn&& fn) {
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) fn(std::false_type{}, j, __m256i{});
  if (j < n) fn(std::true_type{}, j, TailMask(n - j));
}

/// out = fn(a, b) over a span, eight lanes at a time, the tail in one masked
/// strip (`out` may alias `a` or `b`).
template <typename Fn>
inline void ZipSpan(const float* a, const float* b, float* out, int64_t count,
                    Fn fn) {
  ForEachStrip(count, [&](auto masked, int64_t j, __m256i lanes) {
    constexpr bool kMasked = decltype(masked)::value;
    Store8<kMasked>(out + j, lanes,
                    fn(Load8<kMasked>(a + j, lanes),
                       Load8<kMasked>(b + j, lanes)));
  });
}

constexpr auto kAdd8 = [](__m256 a, __m256 b) { return _mm256_add_ps(a, b); };
constexpr auto kMul8 = [](__m256 a, __m256 b) { return _mm256_mul_ps(a, b); };

/// MR x (8 * NV) register tile of C (NV is 1 or 2), held in MR * NV
/// accumulators across the whole k loop: per k step, NV loads of B and MR
/// broadcasts of A feed MR * NV independent FMA chains. A's element (row r,
/// step p) is a[r * ars + p * acs], so one tile serves A (ars = lda, acs = 1)
/// and A^T read in place (ars = 1, acs = lda). When kMask, the last vector
/// covers only the lanes in `tail`: maskload/maskstore neither read nor write
/// the columns past n.
template <int MR, int NV, bool kMask>
inline void Tile(int64_t k, const float* a, int64_t ars, int64_t acs,
                 const float* b, int64_t ldb, float* c, int64_t ldc,
                 bool accumulate, __m256i tail) {
  constexpr int kLast = NV - 1;  // The only vector that may be masked.
  __m256 acc[MR][NV];
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
    const float* cp = c + r * ldc;
    if (accumulate) {
      if constexpr (NV == 2) acc[r][0] = Load8<false>(cp, tail);
      acc[r][kLast] = Load8<kMask>(cp + 8 * kLast, tail);
    } else {
      if constexpr (NV == 2) acc[r][0] = _mm256_setzero_ps();
      acc[r][kLast] = _mm256_setzero_ps();
    }
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* bp = b + p * ldb;
    const float* ap = a + p * acs;
    __m256 bv[NV];
    if constexpr (NV == 2) bv[0] = Load8<false>(bp, tail);
    bv[kLast] = Load8<kMask>(bp + 8 * kLast, tail);
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(ap + r * ars);
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
    float* cp = c + r * ldc;
    if constexpr (NV == 2) Store8<false>(cp, tail, acc[r][0]);
    Store8<kMask>(cp + 8 * kLast, tail, acc[r][kLast]);
  }
}

/// One MR-row tile over a column strip of `width` (1..16) columns.
template <int MR>
inline void TileStrip(int64_t width, int64_t k, const float* a, int64_t ars,
                      int64_t acs, const float* b, int64_t ldb, float* c,
                      int64_t ldc, bool accumulate, __m256i tail) {
  if (width == 16) {
    Tile<MR, 2, false>(k, a, ars, acs, b, ldb, c, ldc, accumulate, tail);
  } else if (width > 8) {
    Tile<MR, 2, true>(k, a, ars, acs, b, ldb, c, ldc, accumulate, tail);
  } else if (width == 8) {
    Tile<MR, 1, false>(k, a, ars, acs, b, ldb, c, ldc, accumulate, tail);
  } else {
    Tile<MR, 1, true>(k, a, ars, acs, b, ldb, c, ldc, accumulate, tail);
  }
}

/// Tiled GEMM over an A addressed by (ars, acs) strides (see Tile): 64-row
/// blocks so the k x 16 B strip a block walks stays in L1, 16-column strips
/// inside a block, 4-row tiles inside a strip, then a 1..3-row tail tile.
void GemmTiled(int64_t m, int64_t n, int64_t k, const float* a, int64_t ars,
               int64_t acs, const float* b, int64_t ldb, float* c,
               int64_t ldc, bool accumulate) {
  constexpr int64_t kRowBlock = 64;
  for (int64_t i0 = 0; i0 < m; i0 += kRowBlock) {
    const int64_t i1 = i0 + kRowBlock < m ? i0 + kRowBlock : m;
    for (int64_t j = 0; j < n; j += 16) {
      const int64_t width = n - j < 16 ? n - j : 16;
      const __m256i tail = TailMask(width > 8 ? width - 8 : width);
      const float* bj = b + j;
      int64_t i = i0;
      for (; i + 4 <= i1; i += 4) {
        TileStrip<4>(width, k, a + i * ars, ars, acs, bj, ldb, c + i * ldc + j,
                     ldc, accumulate, tail);
      }
      const float* ai = a + i * ars;
      float* ci = c + i * ldc + j;
      switch (i1 - i) {
        case 3:
          TileStrip<3>(width, k, ai, ars, acs, bj, ldb, ci, ldc, accumulate,
                       tail);
          break;
        case 2:
          TileStrip<2>(width, k, ai, ars, acs, bj, ldb, ci, ldc, accumulate,
                       tail);
          break;
        case 1:
          TileStrip<1>(width, k, ai, ars, acs, bj, ldb, ci, ldc, accumulate,
                       tail);
          break;
        default:
          break;
      }
    }
  }
}

}  // namespace

void GemmAvx2(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
              const float* b, int64_t ldb, float* c, int64_t ldc,
              bool accumulate) {
  GemmTiled(m, n, k, a, lda, 1, b, ldb, c, ldc, accumulate);
}

void GemmAtBAvx2(int64_t m, int64_t n, int64_t k, const float* a,
                 int64_t lda, const float* b, int64_t ldb, float* c,
                 int64_t ldc, bool accumulate) {
  GemmTiled(m, n, k, a, 1, lda, b, ldb, c, ldc, accumulate);
}

void AddBiasRowsAvx2(float* y, const float* bias, int64_t rows, int64_t n) {
  for (int64_t r = 0; r < rows; ++r) {
    float* row = y + r * n;
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      _mm256_storeu_ps(row + j, _mm256_add_ps(_mm256_loadu_ps(row + j),
                                              _mm256_loadu_ps(bias + j)));
    }
    for (; j < n; ++j) row[j] += bias[j];
  }
}

void AddBiasReluRowsAvx2(float* y, const float* bias, int64_t rows,
                         int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  for (int64_t r = 0; r < rows; ++r) {
    float* row = y + r * n;
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 v = _mm256_add_ps(_mm256_loadu_ps(row + j),
                                     _mm256_loadu_ps(bias + j));
      _mm256_storeu_ps(row + j, _mm256_max_ps(v, zero));
    }
    for (; j < n; ++j) {
      const float v = row[j] + bias[j];
      row[j] = v > 0.0f ? v : 0.0f;
    }
  }
}

void ReluInPlaceAvx2(float* y, int64_t count) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= count; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(y + i), zero));
  }
  for (; i < count; ++i) y[i] = y[i] > 0.0f ? y[i] : 0.0f;
}

void ColumnSumRowsAvx2(const float* x, int64_t rows, int64_t n, float* out) {
  // One 8-column strip at a time, its running sums in a register across
  // all rows: each column still adds its rows in row order.
  ForEachStrip(n, [&](auto masked, int64_t j, __m256i lanes) {
    constexpr bool kMasked = decltype(masked)::value;
    __m256 acc = Load8<kMasked>(out + j, lanes);
    for (int64_t r = 0; r < rows; ++r) {
      acc = _mm256_add_ps(acc, Load8<kMasked>(x + r * n + j, lanes));
    }
    Store8<kMasked>(out + j, lanes, acc);
  });
}

void AddRowBroadcastAvx2(const float* a, const float* b, float* out,
                         int64_t rows, int64_t n) {
  for (int64_t r = 0; r < rows; ++r) {
    ZipSpan(a + r * n, b, out + r * n, n, kAdd8);
  }
}

void MulSpanAvx2(const float* a, const float* b, float* out, int64_t count) {
  ZipSpan(a, b, out, count, kMul8);
}

void AccumulateSpanAvx2(const float* x, float* acc, int64_t count) {
  ZipSpan(acc, x, acc, count, kAdd8);
}

void MulAccumulateSpanAvx2(const float* g, const float* m, float* acc,
                           int64_t count) {
  ForEachStrip(count, [&](auto masked, int64_t j, __m256i lanes) {
    constexpr bool kMasked = decltype(masked)::value;
    const __m256 update = _mm256_mul_ps(Load8<kMasked>(g + j, lanes),
                                        Load8<kMasked>(m + j, lanes));
    Store8<kMasked>(acc + j, lanes,
                    _mm256_add_ps(Load8<kMasked>(acc + j, lanes), update));
  });
}

void ReluGateAvx2(const float* y, const float* g, float* out, int64_t count) {
  // The ordered compare is false on NaN, as the scalar `y > 0` is.
  ZipSpan(y, g, out, count, [](__m256 yv, __m256 gv) {
    return _mm256_and_ps(
        _mm256_cmp_ps(yv, _mm256_setzero_ps(), _CMP_GT_OQ), gv);
  });
}

void TanhBackwardAvx2(const float* y, const float* g, float* gx,
                      int64_t count) {
  const __m256 one = _mm256_set1_ps(1.0f);
  ForEachStrip(count, [&](auto masked, int64_t j, __m256i lanes) {
    constexpr bool kMasked = decltype(masked)::value;
    const __m256 yv = Load8<kMasked>(y + j, lanes);
    const __m256 update = _mm256_mul_ps(
        Load8<kMasked>(g + j, lanes),
        _mm256_sub_ps(one, _mm256_mul_ps(yv, yv)));
    Store8<kMasked>(gx + j, lanes,
                    _mm256_add_ps(Load8<kMasked>(gx + j, lanes), update));
  });
}

void AdamStepAvx2(const AdamCoefficients& c, const float* g, float* w,
                  float* m, float* v, int64_t count) {
  const __m256 beta1 = _mm256_set1_ps(c.beta1);
  const __m256 beta2 = _mm256_set1_ps(c.beta2);
  const __m256 c1 = _mm256_set1_ps(c.one_minus_beta1);
  const __m256 c2 = _mm256_set1_ps(c.one_minus_beta2);
  const __m256 bias1 = _mm256_set1_ps(c.bias1);
  const __m256 bias2 = _mm256_set1_ps(c.bias2);
  const __m256 lr = _mm256_set1_ps(c.learning_rate);
  const __m256 eps = _mm256_set1_ps(c.eps);
  ForEachStrip(count, [&](auto masked, int64_t j, __m256i lanes) {
    constexpr bool kMasked = decltype(masked)::value;
    const __m256 gv = Load8<kMasked>(g + j, lanes);
    // The scalar expressions left to right: beta * m + c * g, and
    // beta * v + (c * g) * g.
    const __m256 mv = _mm256_add_ps(
        _mm256_mul_ps(beta1, Load8<kMasked>(m + j, lanes)),
        _mm256_mul_ps(c1, gv));
    const __m256 vv = _mm256_add_ps(
        _mm256_mul_ps(beta2, Load8<kMasked>(v + j, lanes)),
        _mm256_mul_ps(_mm256_mul_ps(c2, gv), gv));
    const __m256 m_hat = _mm256_div_ps(mv, bias1);
    const __m256 v_hat = _mm256_div_ps(vv, bias2);
    const __m256 step =
        _mm256_div_ps(_mm256_mul_ps(lr, m_hat),
                      _mm256_add_ps(_mm256_sqrt_ps(v_hat), eps));
    Store8<kMasked>(m + j, lanes, mv);
    Store8<kMasked>(v + j, lanes, vv);
    Store8<kMasked>(w + j, lanes,
                    _mm256_sub_ps(Load8<kMasked>(w + j, lanes), step));
  });
}

void LayerNormApplyAvx2(const float* x, const float* gamma, const float* beta,
                        const float* mean, const float* inv_std, int64_t rows,
                        int64_t n, float* y) {
  for (int64_t r = 0; r < rows; ++r) {
    const __m256 mu = _mm256_set1_ps(mean[r]);
    const __m256 istd = _mm256_set1_ps(inv_std[r]);
    const float* xr = x + r * n;
    float* yr = y + r * n;
    ForEachStrip(n, [&](auto masked, int64_t j, __m256i lanes) {
      constexpr bool kMasked = decltype(masked)::value;
      // gamma * (x - mean) * inv_std + beta, left to right.
      const __m256 centered = _mm256_sub_ps(Load8<kMasked>(xr + j, lanes), mu);
      const __m256 scaled = _mm256_mul_ps(
          _mm256_mul_ps(Load8<kMasked>(gamma + j, lanes), centered), istd);
      Store8<kMasked>(
          yr + j, lanes,
          _mm256_add_ps(scaled, Load8<kMasked>(beta + j, lanes)));
    });
  }
}

void LayerNormParamGradAvx2(const float* x, const float* gy,
                            const float* mean, const float* inv_std,
                            int64_t rows, int64_t n, float* ggamma,
                            float* gbeta) {
  // Column strips with both running sums in registers across the rows.
  ForEachStrip(n, [&](auto masked, int64_t j, __m256i lanes) {
    constexpr bool kMasked = decltype(masked)::value;
    const __m256 zero = _mm256_setzero_ps();
    __m256 gg = ggamma != nullptr ? Load8<kMasked>(ggamma + j, lanes) : zero;
    __m256 gb = gbeta != nullptr ? Load8<kMasked>(gbeta + j, lanes) : zero;
    for (int64_t r = 0; r < rows; ++r) {
      const __m256 g = Load8<kMasked>(gy + r * n + j, lanes);
      const __m256 xhat = _mm256_mul_ps(
          _mm256_sub_ps(Load8<kMasked>(x + r * n + j, lanes),
                        _mm256_set1_ps(mean[r])),
          _mm256_set1_ps(inv_std[r]));
      gg = _mm256_add_ps(gg, _mm256_mul_ps(g, xhat));
      gb = _mm256_add_ps(gb, g);
    }
    if (ggamma != nullptr) Store8<kMasked>(ggamma + j, lanes, gg);
    if (gbeta != nullptr) Store8<kMasked>(gbeta + j, lanes, gb);
  });
}

void LayerNormInputGradAvx2(const float* x, const float* gamma,
                            const float* gy, const float* mean,
                            const float* inv_std, const float* mean_dxhat,
                            const float* sum_dxhat_xhat, int64_t rows,
                            int64_t n, float* gx) {
  const __m256 nf = _mm256_set1_ps(static_cast<float>(n));
  for (int64_t r = 0; r < rows; ++r) {
    const __m256 mu = _mm256_set1_ps(mean[r]);
    const __m256 istd = _mm256_set1_ps(inv_std[r]);
    const __m256 a = _mm256_set1_ps(mean_dxhat[r]);
    const __m256 s = _mm256_set1_ps(sum_dxhat_xhat[r]);
    const float* xr = x + r * n;
    const float* gyr = gy + r * n;
    float* gxr = gx + r * n;
    ForEachStrip(n, [&](auto masked, int64_t j, __m256i lanes) {
      constexpr bool kMasked = decltype(masked)::value;
      const __m256 dxhat = _mm256_mul_ps(Load8<kMasked>(gyr + j, lanes),
                                         Load8<kMasked>(gamma + j, lanes));
      const __m256 xhat =
          _mm256_mul_ps(_mm256_sub_ps(Load8<kMasked>(xr + j, lanes), mu), istd);
      // istd * (dxhat - a - xhat * s / n), left to right.
      const __m256 inner = _mm256_sub_ps(
          _mm256_sub_ps(dxhat, a), _mm256_div_ps(_mm256_mul_ps(xhat, s), nf));
      Store8<kMasked>(gxr + j, lanes,
                      _mm256_add_ps(Load8<kMasked>(gxr + j, lanes),
                                    _mm256_mul_ps(istd, inner)));
    });
  }
}

void TwistAvx2(uint64_t* x) {
  constexpr size_t n = Mt19937_64::kStateSize;
  constexpr size_t m = Mt19937_64::kShiftSize;
  const __m256i upper = _mm256_set1_epi64x(
      static_cast<int64_t>(Mt19937_64::kUpperMask));
  const __m256i lower = _mm256_set1_epi64x(
      static_cast<int64_t>(Mt19937_64::kLowerMask));
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i matrix =
      _mm256_set1_epi64x(static_cast<int64_t>(Mt19937_64::kMatrixA));
  // Four consecutive words k..k+3: each reads x[k+1] before the next
  // vector overwrites it, and its "far" word is either not yet rewritten
  // (first half) or already rewritten (second half) — the serial order.
  auto twist4 = [&](size_t k, size_t far) {
    const __m256i cur =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + k));
    const __m256i next =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + k + 1));
    const __m256i y = _mm256_or_si256(_mm256_and_si256(cur, upper),
                                      _mm256_and_si256(next, lower));
    const __m256i odd =
        _mm256_cmpeq_epi64(_mm256_and_si256(y, one), one);
    const __m256i out = _mm256_xor_si256(
        _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + far)),
            _mm256_srli_epi64(y, 1)),
        _mm256_and_si256(odd, matrix));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + k), out);
  };
  auto twist1 = [&](size_t k, uint64_t next, size_t far) {
    const uint64_t y =
        (x[k] & Mt19937_64::kUpperMask) | (next & Mt19937_64::kLowerMask);
    x[k] = x[far] ^ (y >> 1) ^ ((y & 1) ? Mt19937_64::kMatrixA : 0);
  };
  size_t k = 0;
  for (; k < n - m; k += 4) twist4(k, k + m);  // n - m is a multiple of 4.
  for (; k + 4 <= n - 1; k += 4) twist4(k, k - (n - m));
  for (; k < n - 1; ++k) twist1(k, x[k + 1], k - (n - m));
  twist1(n - 1, x[0], m - 1);
}

void FillDropoutMaskAvx2(uint64_t* words, size_t* position,
                         uint64_t threshold, float keep, float* mask,
                         int64_t n) {
  constexpr size_t kState = Mt19937_64::kStateSize;
  // Unsigned draw < threshold as a signed compare with both sign bits
  // flipped.
  const __m256i sign = _mm256_set1_epi64x(INT64_MIN);
  const __m256i thr =
      _mm256_xor_si256(_mm256_set1_epi64x(static_cast<int64_t>(threshold)),
                       sign);
  const __m256i d =
      _mm256_set1_epi64x(static_cast<int64_t>(Mt19937_64::kTemperD));
  const __m256i b =
      _mm256_set1_epi64x(static_cast<int64_t>(Mt19937_64::kTemperB));
  const __m256i c =
      _mm256_set1_epi64x(static_cast<int64_t>(Mt19937_64::kTemperC));
  const __m256i low_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m128 keep4 = _mm_set1_ps(keep);
  size_t pos = *position;
  int64_t i = 0;
  while (i < n) {
    // Twist lazily, as operator() does: only when a draw is due.
    if (pos >= kState) {
      TwistAvx2(words);
      pos = 0;
    }
    const int64_t avail = static_cast<int64_t>(kState - pos);
    const int64_t take = n - i < avail ? n - i : avail;
    const uint64_t* w = words + pos;
    float* out = mask + i;
    int64_t t = 0;
    for (; t + 4 <= take; t += 4) {
      __m256i z = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + t));
      z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_srli_epi64(z, 29), d));
      z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 17), b));
      z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 37), c));
      z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 43));
      const __m256i dropped =
          _mm256_cmpgt_epi64(thr, _mm256_xor_si256(z, sign));
      const __m128i dropped4 = _mm256_castsi256_si128(
          _mm256_permutevar8x32_epi32(dropped, low_dwords));
      _mm_storeu_ps(out + t, _mm_andnot_ps(_mm_castsi128_ps(dropped4), keep4));
    }
    for (; t < take; ++t) {
      out[t] = Mt19937_64::Temper(w[t]) < threshold ? 0.0f : keep;
    }
    i += take;
    pos += static_cast<size_t>(take);
  }
  *position = pos;
}

// --- Exact transcendentals -------------------------------------------------
//
// Each function below runs libm's own algorithm on all eight lanes, every
// branch computed and the results blended, with the operations in libm's
// order and rounding, so a lane returns the bits the libm call returns:
//
//   expf    glibc 2.27+'s e_expf.c as its FMA build (__expf_fma) compiles
//           it; glibc's ifunc picks that build on every CPU with AVX2 and
//           FMA, which are the CPUs DetectAvx2() accepts.
//   expm1f  fdlibm's s_expm1f.c and s_tanhf.c as glibc compiles them for
//   tanhf   baseline x86-64: single-precision ops, nothing fused.
//
// Lanes that libm takes off its main path for NaN, infinity or overflow
// (and expf's may-underflow band) are recomputed by the libm call itself.
// expf's underflow to +0, which softmax's -1e9 padding logits hit, stays
// in the vector.

namespace {

/// 2^(i/32) with i << 47 subtracted from its bits, i = 0..31 (glibc's
/// __exp2f_data.tab), so that adding ki << 47 for ki = k mod 2^17 scales
/// it by 2^(k/32).
alignas(32) constexpr uint64_t kExp2fTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

/// Lanes of y whose bit is set in `lanes` (a movemask) replaced by fn(x).
template <typename Fn>
__m256 RecomputeLanes(__m256 x, __m256 y, int lanes, Fn fn) {
  alignas(32) float xs[8];
  alignas(32) float ys[8];
  _mm256_store_ps(xs, x);
  _mm256_store_ps(ys, y);
  for (; lanes != 0; lanes &= lanes - 1) {
    const int i = __builtin_ctz(static_cast<unsigned>(lanes));
    ys[i] = fn(xs[i]);
  }
  return _mm256_load_ps(ys);
}

/// Movemask of the lanes whose |x| bits exceed `bound`.
inline int AbsBitsAbove(__m256 x, int32_t bound) {
  const __m256i abs_bits = _mm256_and_si256(_mm256_castps_si256(x),
                                            _mm256_set1_epi32(0x7fffffff));
  return _mm256_movemask_ps(_mm256_castsi256_ps(
      _mm256_cmpgt_epi32(abs_bits, _mm256_set1_epi32(bound))));
}

/// __expf_fma's main path on four floats: z = x * 32/ln2 rounded to the
/// integer kd by the 1.5 * 2^52 shift (one fused op), the fused remainder
/// r = z - kd, s = 2^(kd/32) from the table, then the three-FMA cubic.
inline __m128 ExpfHalf(__m128 x) {
  const __m256d inv_ln2_n = _mm256_set1_pd(0x1.71547652b82fep+5);
  const __m256d shift = _mm256_set1_pd(0x1.8p+52);
  const __m256d xd = _mm256_cvtps_pd(x);
  __m256d kd = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
  const __m256i ki = _mm256_castpd_si256(kd);
  kd = _mm256_sub_pd(kd, shift);
  const __m256d r = _mm256_fmsub_pd(inv_ln2_n, xd, kd);
  const __m256i t = _mm256_add_epi64(
      _mm256_i64gather_epi64(reinterpret_cast<const long long*>(kExp2fTable),
                             _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8),
      _mm256_slli_epi64(ki, 47));
  const __m256d z = _mm256_fmadd_pd(_mm256_set1_pd(0x1.c6af84b912394p-20), r,
                                    _mm256_set1_pd(0x1.ebfce50fac4f3p-13));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d y = _mm256_fmadd_pd(_mm256_set1_pd(0x1.62e42ff0c52d6p-6), r,
                              _mm256_set1_pd(1.0));
  y = _mm256_fmadd_pd(z, r2, y);
  return _mm256_cvtpd_ps(_mm256_mul_pd(y, _mm256_castsi256_pd(t)));
}

/// std::exp(float) on eight lanes.
inline __m256 Expf8(__m256 x) {
  __m256 y = _mm256_set_m128(ExpfHalf(_mm256_extractf128_ps(x, 1)),
                             ExpfHalf(_mm256_castps256_ps128(x)));
  // glibc leaves the main path when the top 12 bits of |x| reach 88.0f's
  // (0x42b) or x is NaN or infinite. Below log(2^-150) (-inf included) it
  // returns +0; the other lanes it left are recomputed by libm.
  const __m256 underflow =
      _mm256_cmp_ps(x, _mm256_set1_ps(-0x1.9fe368p6f), _CMP_LT_OQ);
  y = _mm256_andnot_ps(underflow, y);
  const __m256i abstop = _mm256_and_si256(
      _mm256_srli_epi32(_mm256_castps_si256(x), 20), _mm256_set1_epi32(0x7ff));
  const int slow = _mm256_movemask_ps(_mm256_andnot_ps(
      underflow, _mm256_castsi256_ps(
                     _mm256_cmpgt_epi32(abstop, _mm256_set1_epi32(0x42a)))));
  if (slow != 0) {
    y = RecomputeLanes(x, y, slow, [](float v) { return std::exp(v); });
  }
  return y;
}

/// fdlibm expm1f on eight lanes with |x| <= 0x1.62e42ep6 (bits 0x42b17217);
/// larger, infinite and NaN lanes are garbage, for the caller to replace.
inline __m256 Expm1Core8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256i bits = _mm256_castps_si256(x);
  const __m256i sign = _mm256_srai_epi32(bits, 31);
  const __m256i hx = _mm256_and_si256(bits, _mm256_set1_epi32(0x7fffffff));
  auto hx_above = [&](int32_t bound) {
    return _mm256_cmpgt_epi32(hx, _mm256_set1_epi32(bound));
  };
  // Argument reduction x = k ln2 + (hi - lo) for |x| > ln2 / 2: k = +-1 up
  // to 1.5 ln2, else x / ln2 + +-0.5 truncated. k = 0 below leaves
  // hi - lo = x.
  const __m256 half_signed =
      _mm256_or_ps(half, _mm256_and_ps(_mm256_castsi256_ps(sign),
                                       _mm256_set1_ps(-0.0f)));
  __m256i k = _mm256_cvttps_epi32(_mm256_add_ps(
      _mm256_mul_ps(_mm256_set1_ps(0x1.715476p+0f), x), half_signed));
  k = _mm256_blendv_epi8(_mm256_or_si256(sign, _mm256_set1_epi32(1)), k,
                         hx_above(0x3f851591));
  k = _mm256_and_si256(k, hx_above(0x3eb17218));
  const __m256 kf = _mm256_cvtepi32_ps(k);
  const __m256 hi =
      _mm256_sub_ps(x, _mm256_mul_ps(kf, _mm256_set1_ps(0x1.62e3p-1f)));
  const __m256 lo = _mm256_mul_ps(kf, _mm256_set1_ps(0x1.2fefa2p-17f));
  const __m256 xr = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

  // The primary range: the rational approximation of fdlibm's Q1..Q5.
  const __m256 hfx = _mm256_mul_ps(xr, half);
  const __m256 hxs = _mm256_mul_ps(xr, hfx);
  __m256 r1 = _mm256_mul_ps(_mm256_set1_ps(-0x1.afdb76p-23f), hxs);
  r1 = _mm256_mul_ps(_mm256_add_ps(r1, _mm256_set1_ps(0x1.0cfca8p-18f)), hxs);
  r1 = _mm256_mul_ps(_mm256_add_ps(r1, _mm256_set1_ps(-0x1.4ce19ap-14f)), hxs);
  r1 = _mm256_mul_ps(_mm256_add_ps(r1, _mm256_set1_ps(0x1.a01a02p-10f)), hxs);
  r1 = _mm256_mul_ps(_mm256_add_ps(r1, _mm256_set1_ps(-0x1.111112p-5f)), hxs);
  r1 = _mm256_add_ps(r1, one);
  const __m256 t =
      _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(hfx, r1));
  const __m256 e = _mm256_mul_ps(
      _mm256_div_ps(_mm256_sub_ps(r1, t),
                    _mm256_sub_ps(_mm256_set1_ps(6.0f), _mm256_mul_ps(t, xr))),
      hxs);

  // One result per branch of k.
  const __m256 k0 = _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(e, xr), hxs));
  const __m256 ek = _mm256_sub_ps(
      _mm256_sub_ps(_mm256_mul_ps(_mm256_sub_ps(e, c), xr), c), hxs);
  const __m256 km1 =
      _mm256_sub_ps(_mm256_mul_ps(_mm256_sub_ps(xr, ek), half), half);
  const __m256 k1_low = _mm256_mul_ps(
      _mm256_set1_ps(-2.0f), _mm256_sub_ps(ek, _mm256_add_ps(half, xr)));
  const __m256 x_minus_e = _mm256_sub_ps(xr, ek);
  const __m256 k1_high = _mm256_add_ps(_mm256_add_ps(x_minus_e, x_minus_e), one);
  const __m256 k1 = _mm256_blendv_ps(
      k1_high, k1_low, _mm256_cmp_ps(xr, _mm256_set1_ps(-0.25f), _CMP_LT_OQ));
  // The rest add k to the exponent of y.
  const __m256i k_exponent = _mm256_slli_epi32(k, 23);
  auto scale = [&](__m256 y) {
    return _mm256_castsi256_ps(
        _mm256_add_epi32(_mm256_castps_si256(y), k_exponent));
  };
  const __m256 e_minus_x = _mm256_sub_ps(ek, xr);
  const __m256 far = _mm256_sub_ps(scale(_mm256_sub_ps(one, e_minus_x)), one);
  const __m256 t_below_23 = _mm256_castsi256_ps(_mm256_sub_epi32(
      _mm256_set1_epi32(0x3f800000),
      _mm256_srlv_epi32(_mm256_set1_epi32(0x1000000), k)));
  const __m256 below_23 = scale(_mm256_sub_ps(t_below_23, e_minus_x));
  const __m256 t_from_23 = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_sub_epi32(_mm256_set1_epi32(0x7f), k), 23));
  const __m256 from_23 = scale(
      _mm256_add_ps(_mm256_sub_ps(xr, _mm256_add_ps(ek, t_from_23)), one));

  auto k_is = [&](int32_t v) {
    return _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(v)));
  };
  __m256 y = _mm256_blendv_ps(
      from_23, below_23,
      _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(23), k)));
  y = _mm256_blendv_ps(
      y, far,
      _mm256_castsi256_ps(_mm256_or_si256(
          _mm256_cmpgt_epi32(_mm256_set1_epi32(-1), k),
          _mm256_cmpgt_epi32(k, _mm256_set1_epi32(56)))));
  y = _mm256_blendv_ps(y, k1, k_is(1));
  y = _mm256_blendv_ps(y, km1, k_is(-1));
  y = _mm256_blendv_ps(y, k0, k_is(0));
  // |x| < 2^-25 returns x; x <= -27 ln2 returns -1.
  y = _mm256_blendv_ps(x, y, _mm256_castsi256_ps(hx_above(0x32ffffff)));
  return _mm256_blendv_ps(
      y, _mm256_set1_ps(-1.0f),
      _mm256_castsi256_ps(_mm256_and_si256(sign, hx_above(0x4195b843))));
}

/// ::expm1f on eight lanes.
inline __m256 Expm1f8(__m256 x) {
  __m256 y = Expm1Core8(x);
  const int slow = AbsBitsAbove(x, 0x42b17217);
  if (slow != 0) {
    y = RecomputeLanes(x, y, slow, [](float v) { return ::expm1f(v); });
  }
  return y;
}

/// std::tanh(float) on eight lanes: fdlibm's tanhf, whose single expm1f
/// call (argument 2|x| from |x| = 1, -2|x| below) is Expm1Core8.
inline __m256 Tanhf8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 sign_bit = _mm256_set1_ps(-0.0f);
  const __m256 ax = _mm256_andnot_ps(sign_bit, x);
  const __m256i ix = _mm256_castps_si256(ax);
  auto ix_above = [&](int32_t bound) {
    return _mm256_castsi256_ps(
        _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(bound)));
  };
  const __m256 from_one = ix_above(0x3f7fffff);
  const __m256 t = Expm1Core8(_mm256_blendv_ps(
      _mm256_mul_ps(ax, _mm256_set1_ps(-2.0f)), _mm256_add_ps(ax, ax),
      from_one));
  // z = 1 - 2 / (t + 2) from |x| = 1, -t / (t + 2) below: one division
  // with each lane's own numerator.
  const __m256 q = _mm256_div_ps(
      _mm256_blendv_ps(_mm256_xor_ps(t, sign_bit), two, from_one),
      _mm256_add_ps(t, two));
  __m256 z = _mm256_blendv_ps(q, _mm256_sub_ps(one, q), from_one);
  // |x| >= 22 is +-1; the sign of x goes on last.
  z = _mm256_blendv_ps(z, one, ix_above(0x41afffff));
  z = _mm256_xor_ps(z, _mm256_and_ps(x, sign_bit));
  // |x| < 2^-55 (zero included) returns x * (1 + x).
  __m256 y = _mm256_blendv_ps(_mm256_mul_ps(_mm256_add_ps(one, x), x), z,
                              ix_above(0x23ffffff));
  const int slow = AbsBitsAbove(x, 0x7f7fffff);
  if (slow != 0) {
    y = RecomputeLanes(x, y, slow, [](float v) { return std::tanh(v); });
  }
  return y;
}

/// y = fn8(x) over a span, the tail in one masked strip.
template <typename Fn8>
inline void MapSpan(const float* x, float* y, int64_t count, Fn8 fn8) {
  ForEachStrip(count, [&](auto masked, int64_t j, __m256i lanes) {
    constexpr bool kMasked = decltype(masked)::value;
    Store8<kMasked>(y + j, lanes, fn8(Load8<kMasked>(x + j, lanes)));
  });
}

/// The value the scalar path's serial `max_v = std::max(max_v, x[j])` loop
/// ends with. Without NaN in the row every order finds the same maximum,
/// up to the sign of a zero one, which x - max cannot tell apart (exp(+-0)
/// is 1); a row holding a NaN takes the serial loop.
float RowMax(const float* xr, int64_t n) {
  const __m256 first = _mm256_set1_ps(xr[0]);
  __m256 max_v = first;
  __m256 nan = _mm256_setzero_ps();
  ForEachStrip(n, [&](auto masked, int64_t j, __m256i lanes) {
    constexpr bool kMasked = decltype(masked)::value;
    __m256 v = Load8<kMasked>(xr + j, lanes);
    if constexpr (kMasked) {
      v = _mm256_blendv_ps(first, v, _mm256_castsi256_ps(lanes));
    }
    max_v = _mm256_max_ps(max_v, v);
    nan = _mm256_or_ps(nan, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
  });
  if (_mm256_movemask_ps(nan) != 0) {
    float serial = xr[0];
    for (int64_t j = 1; j < n; ++j) serial = serial < xr[j] ? xr[j] : serial;
    return serial;
  }
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(max_v),
                        _mm256_extractf128_ps(max_v, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_movehdup_ps(m));
  return _mm_cvtss_f32(m);
}

/// The 4x4 block at p (four rows `ld` apart, four columns) as four column
/// vectors: lane i of col[c] is row i's column c, so one vector op extends
/// four rows' serial chains by one column each.
inline void LoadColumns4(const float* p, int64_t ld, __m128 col[4]) {
  col[0] = _mm_loadu_ps(p);
  col[1] = _mm_loadu_ps(p + ld);
  col[2] = _mm_loadu_ps(p + 2 * ld);
  col[3] = _mm_loadu_ps(p + 3 * ld);
  _MM_TRANSPOSE4_PS(col[0], col[1], col[2], col[3]);
}

/// LoadColumns4 widened to double.
inline void LoadColumns4(const float* p, int64_t ld, __m256d col[4]) {
  __m128 f[4];
  LoadColumns4(p, ld, f);
  for (int c = 0; c < 4; ++c) col[c] = _mm256_cvtps_pd(f[c]);
}

/// Layer-norm statistics of R consecutive rows: each row's double mean,
/// then its double sum of squared deviations, serial in column order (the
/// R chains interleaved as lanes when R is 4).
template <int R>
void LayerNormStatsBlock(const float* x, float eps, int64_t n, float* mean,
                         float* inv_std) {
  double mu[R] = {};
  double var[R] = {};
  int64_t j = 0;
  if constexpr (R == 4) {
    __m256d acc = _mm256_setzero_pd();
    for (; j + 4 <= n; j += 4) {
      __m256d col[4];
      LoadColumns4(x + j, n, col);
      for (int c = 0; c < 4; ++c) acc = _mm256_add_pd(acc, col[c]);
    }
    _mm256_storeu_pd(mu, acc);
  }
  for (int64_t t = j; t < n; ++t) {
    for (int i = 0; i < R; ++i) mu[i] += x[i * n + t];
  }
  for (int i = 0; i < R; ++i) mu[i] /= static_cast<double>(n);
  j = 0;
  if constexpr (R == 4) {
    const __m256d mu_v = _mm256_loadu_pd(mu);
    __m256d acc = _mm256_setzero_pd();
    for (; j + 4 <= n; j += 4) {
      __m256d col[4];
      LoadColumns4(x + j, n, col);
      for (int c = 0; c < 4; ++c) {
        const __m256d d = _mm256_sub_pd(col[c], mu_v);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
      }
    }
    _mm256_storeu_pd(var, acc);
  }
  for (int64_t t = j; t < n; ++t) {
    for (int i = 0; i < R; ++i) {
      const double d = x[i * n + t] - mu[i];
      var[i] += d * d;
    }
  }
  for (int i = 0; i < R; ++i) {
    var[i] /= static_cast<double>(n);
    mean[i] = static_cast<float>(mu[i]);
    inv_std[i] = static_cast<float>(1.0 / std::sqrt(var[i] + eps));
  }
}

/// The two row sums of the layer-norm input gradient over R consecutive
/// rows: sum_j dxhat and sum_j dxhat * xhat in double, serial in column
/// order, with dxhat = gy * gamma and xhat = (x - mean) * inv_std in float.
template <int R>
void LayerNormBackwardSumsBlock(const float* x, const float* gamma,
                                const float* gy, const float* mean,
                                const float* inv_std, int64_t n,
                                float* mean_dxhat, float* sum_dxhat_xhat) {
  double sum_dxhat[R] = {};
  double sum_dot[R] = {};
  int64_t j = 0;
  if constexpr (R == 4) {
    const __m128 mu = _mm_loadu_ps(mean);
    const __m128 istd = _mm_loadu_ps(inv_std);
    __m256d acc_dxhat = _mm256_setzero_pd();
    __m256d acc_dot = _mm256_setzero_pd();
    for (; j + 4 <= n; j += 4) {
      __m128 xc[4];
      __m128 gc[4];
      LoadColumns4(x + j, n, xc);
      LoadColumns4(gy + j, n, gc);
      for (int c = 0; c < 4; ++c) {
        const __m128 dxhat = _mm_mul_ps(gc[c], _mm_set1_ps(gamma[j + c]));
        const __m128 xhat = _mm_mul_ps(_mm_sub_ps(xc[c], mu), istd);
        const __m256d dxhat_d = _mm256_cvtps_pd(dxhat);
        acc_dxhat = _mm256_add_pd(acc_dxhat, dxhat_d);
        acc_dot = _mm256_add_pd(
            acc_dot, _mm256_mul_pd(dxhat_d, _mm256_cvtps_pd(xhat)));
      }
    }
    _mm256_storeu_pd(sum_dxhat, acc_dxhat);
    _mm256_storeu_pd(sum_dot, acc_dot);
  }
  for (; j < n; ++j) {
    for (int i = 0; i < R; ++i) {
      const float dxhat = gy[i * n + j] * gamma[j];
      const float xhat = (x[i * n + j] - mean[i]) * inv_std[i];
      sum_dxhat[i] += dxhat;
      sum_dot[i] += static_cast<double>(dxhat) * xhat;
    }
  }
  const float nf = static_cast<float>(n);
  for (int i = 0; i < R; ++i) {
    mean_dxhat[i] = static_cast<float>(sum_dxhat[i]) / nf;
    sum_dxhat_xhat[i] = static_cast<float>(sum_dot[i]);
  }
}

/// Calls block(std::integral_constant<int, R>, r) over `rows` rows: 4-row
/// blocks, then the remaining rows one at a time.
template <typename Block>
inline void ForEachRowBlock(int64_t rows, Block&& block) {
  int64_t r = 0;
  for (; r + 4 <= rows; r += 4) block(std::integral_constant<int, 4>{}, r);
  for (; r < rows; ++r) block(std::integral_constant<int, 1>{}, r);
}

/// Softmax over R consecutive rows: vector exp, then each row's double
/// denominator summed serially in column order, the R chains interleaved;
/// finish(i, inv) then writes row i from its exps and the rounded inverse
/// denominator.
template <int R, typename Finish>
void SoftmaxBlock(const float* x, float* y, int64_t n, Finish&& finish) {
  double denom[R];
  for (int i = 0; i < R; ++i) {
    const float* xr = x + i * n;
    float* yr = y + i * n;
    const __m256 max_v = _mm256_set1_ps(RowMax(xr, n));
    MapSpan(xr, yr, n,
            [&](__m256 v) { return Expf8(_mm256_sub_ps(v, max_v)); });
    denom[i] = 0.0;
  }
  int64_t j = 0;
  if constexpr (R == 4) {
    __m256d acc = _mm256_setzero_pd();
    for (; j + 4 <= n; j += 4) {
      __m256d col[4];
      LoadColumns4(y + j, n, col);
      for (int c = 0; c < 4; ++c) acc = _mm256_add_pd(acc, col[c]);
    }
    _mm256_storeu_pd(denom, acc);
  }
  for (; j < n; ++j) {
    for (int i = 0; i < R; ++i) denom[i] += y[i * n + j];
  }
  for (int i = 0; i < R; ++i) {
    finish(i, _mm256_set1_ps(static_cast<float>(1.0 / denom[i])));
  }
}

/// Each of R consecutive rows' softmax-backward dot product
/// sum_j gy[j] * y[j], a double summed serially in column order (the R
/// chains interleaved), rounded to float.
template <int R>
void RowDots(const float* y, const float* gy, int64_t n, float dot_f[R]) {
  double dot[R] = {};
  int64_t j = 0;
  if constexpr (R == 4) {
    __m256d acc = _mm256_setzero_pd();
    for (; j + 4 <= n; j += 4) {
      __m256d gy_col[4];
      __m256d y_col[4];
      LoadColumns4(gy + j, n, gy_col);
      LoadColumns4(y + j, n, y_col);
      for (int c = 0; c < 4; ++c) {
        acc = _mm256_add_pd(acc, _mm256_mul_pd(gy_col[c], y_col[c]));
      }
    }
    _mm256_storeu_pd(dot, acc);
  }
  for (; j < n; ++j) {
    for (int i = 0; i < R; ++i) {
      dot[i] += static_cast<double>(gy[i * n + j]) * y[i * n + j];
    }
  }
  for (int i = 0; i < R; ++i) dot_f[i] = static_cast<float>(dot[i]);
}

/// Softmax backward over R consecutive rows: RowDots, then the element-wise
/// update.
template <int R>
void SoftmaxBackwardBlock(const float* y, const float* gy, float* gx,
                          int64_t n) {
  float dots[R];
  RowDots<R>(y, gy, n, dots);
  for (int i = 0; i < R; ++i) {
    const __m256 dot_f = _mm256_set1_ps(dots[i]);
    const float* yr = y + i * n;
    const float* gyr = gy + i * n;
    float* gxr = gx + i * n;
    ForEachStrip(n, [&](auto masked, int64_t j, __m256i lanes) {
      constexpr bool kMasked = decltype(masked)::value;
      const __m256 update = _mm256_mul_ps(
          Load8<kMasked>(yr + j, lanes),
          _mm256_sub_ps(Load8<kMasked>(gyr + j, lanes), dot_f));
      Store8<kMasked>(gxr + j, lanes,
                      _mm256_add_ps(Load8<kMasked>(gxr + j, lanes), update));
    });
  }
}

}  // namespace

void ExpAvx2(const float* x, float* y, int64_t count) {
  MapSpan(x, y, count, Expf8);
}

void Expm1Avx2(const float* x, float* y, int64_t count) {
  MapSpan(x, y, count, Expm1f8);
}

void TanhAvx2(const float* x, float* y, int64_t count) {
  MapSpan(x, y, count, Tanhf8);
}

void SigmoidAvx2(const float* x, float* y, int64_t count) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 sign_bit = _mm256_set1_ps(-0.0f);
  MapSpan(x, y, count, [&](__m256 v) {
    return _mm256_div_ps(
        one, _mm256_add_ps(one, Expf8(_mm256_xor_ps(v, sign_bit))));
  });
}

void SoftmaxRowsAvx2(const float* x, float* y, int64_t rows, int64_t n) {
  ForEachRowBlock(rows, [&](auto block_rows, int64_t r) {
    constexpr int R = decltype(block_rows)::value;
    float* yb = y + r * n;
    SoftmaxBlock<R>(x + r * n, yb, n, [&](int i, __m256 inv) {
      float* yr = yb + i * n;
      MapSpan(yr, yr, n, [&](__m256 v) { return _mm256_mul_ps(v, inv); });
    });
  });
}

void SoftmaxBackwardRowsAvx2(const float* y, const float* gy, float* gx,
                             int64_t rows, int64_t n) {
  ForEachRowBlock(rows, [&](auto block_rows, int64_t r) {
    constexpr int R = decltype(block_rows)::value;
    SoftmaxBackwardBlock<R>(y + r * n, gy + r * n, gx + r * n, n);
  });
}

void AttentionPanelForwardAvx2(float* panel, const float* mask, float scale,
                               const float* dmask, float* dropped,
                               int64_t rows, int64_t n) {
  const __m256 scale_v = _mm256_set1_ps(scale);
  ForEachRowBlock(rows, [&](auto block_rows, int64_t r) {
    constexpr int R = decltype(block_rows)::value;
    float* pb = panel + r * n;
    for (int i = 0; i < R; ++i) {
      float* row = pb + i * n;
      ForEachStrip(n, [&](auto masked, int64_t j, __m256i lanes) {
        constexpr bool kMasked = decltype(masked)::value;
        __m256 s = _mm256_mul_ps(Load8<kMasked>(row + j, lanes), scale_v);
        if (mask != nullptr) {
          s = _mm256_add_ps(s, Load8<kMasked>(mask + j, lanes));
        }
        Store8<kMasked>(row + j, lanes, s);
      });
    }
    SoftmaxBlock<R>(pb, pb, n, [&](int i, __m256 inv) {
      float* row = pb + i * n;
      if (dmask == nullptr) {
        MapSpan(row, row, n, [&](__m256 v) { return _mm256_mul_ps(v, inv); });
        return;
      }
      const float* dm = dmask + (r + i) * n;
      float* dr = dropped + (r + i) * n;
      ForEachStrip(n, [&](auto masked, int64_t j, __m256i lanes) {
        constexpr bool kMasked = decltype(masked)::value;
        const __m256 p = _mm256_mul_ps(Load8<kMasked>(row + j, lanes), inv);
        Store8<kMasked>(row + j, lanes, p);
        Store8<kMasked>(dr + j, lanes,
                        _mm256_mul_ps(p, Load8<kMasked>(dm + j, lanes)));
      });
    });
  });
}

void AttentionPanelBackwardAvx2(const float* probs, const float* dmask,
                                float* dpd, float scale, float* ds,
                                int64_t rows, int64_t n) {
  const __m256 scale_v = _mm256_set1_ps(scale);
  const __m256 zero = _mm256_setzero_ps();
  ForEachRowBlock(rows, [&](auto block_rows, int64_t r) {
    constexpr int R = decltype(block_rows)::value;
    const float* pb = probs + r * n;
    float* gb = dpd + r * n;
    if (dmask != nullptr) {
      ZipSpan(gb, dmask + r * n, gb, R * n, kMul8);
    }
    float dots[R];
    RowDots<R>(pb, gb, n, dots);
    for (int i = 0; i < R; ++i) {
      const __m256 dot_f = _mm256_set1_ps(dots[i]);
      const float* pr = pb + i * n;
      const float* gr = gb + i * n;
      float* dsr = ds + (r + i) * n;
      ForEachStrip(n, [&](auto masked, int64_t j, __m256i lanes) {
        constexpr bool kMasked = decltype(masked)::value;
        const __m256 update = _mm256_mul_ps(
            Load8<kMasked>(pr + j, lanes),
            _mm256_sub_ps(Load8<kMasked>(gr + j, lanes), dot_f));
        Store8<kMasked>(dsr + j, lanes,
                        _mm256_mul_ps(_mm256_add_ps(zero, update), scale_v));
      });
    }
  });
}

void LayerNormStatsAvx2(const float* x, float eps, int64_t rows, int64_t n,
                        float* mean, float* inv_std) {
  ForEachRowBlock(rows, [&](auto block_rows, int64_t r) {
    constexpr int R = decltype(block_rows)::value;
    LayerNormStatsBlock<R>(x + r * n, eps, n, mean + r, inv_std + r);
  });
}

void LayerNormBackwardSumsAvx2(const float* x, const float* gamma,
                               const float* gy, const float* mean,
                               const float* inv_std, int64_t rows, int64_t n,
                               float* mean_dxhat, float* sum_dxhat_xhat) {
  ForEachRowBlock(rows, [&](auto block_rows, int64_t r) {
    constexpr int R = decltype(block_rows)::value;
    LayerNormBackwardSumsBlock<R>(x + r * n, gamma, gy + r * n, mean + r,
                                  inv_std + r, n, mean_dxhat + r,
                                  sum_dxhat_xhat + r);
  });
}

#else  // !(__AVX2__ && __FMA__)

extern const bool kAvx2Compiled = false;

#define DLINF_AVX2_STUB CHECK(false) << "AVX2 kernel called but not compiled in"

void GemmAvx2(int64_t, int64_t, int64_t, const float*, int64_t, const float*,
              int64_t, float*, int64_t, bool) {
  DLINF_AVX2_STUB;
}
void GemmAtBAvx2(int64_t, int64_t, int64_t, const float*, int64_t,
                 const float*, int64_t, float*, int64_t, bool) {
  DLINF_AVX2_STUB;
}
void AddBiasRowsAvx2(float*, const float*, int64_t, int64_t) {
  DLINF_AVX2_STUB;
}
void AddBiasReluRowsAvx2(float*, const float*, int64_t, int64_t) {
  DLINF_AVX2_STUB;
}
void ReluInPlaceAvx2(float*, int64_t) { DLINF_AVX2_STUB; }
void ColumnSumRowsAvx2(const float*, int64_t, int64_t, float*) {
  DLINF_AVX2_STUB;
}
void LayerNormApplyAvx2(const float*, const float*, const float*,
                        const float*, const float*, int64_t, int64_t,
                        float*) {
  DLINF_AVX2_STUB;
}
void LayerNormParamGradAvx2(const float*, const float*, const float*,
                            const float*, int64_t, int64_t, float*, float*) {
  DLINF_AVX2_STUB;
}
void LayerNormInputGradAvx2(const float*, const float*, const float*,
                            const float*, const float*, const float*,
                            const float*, int64_t, int64_t, float*) {
  DLINF_AVX2_STUB;
}
void FillDropoutMaskAvx2(uint64_t*, size_t*, uint64_t, float, float*,
                         int64_t) {
  DLINF_AVX2_STUB;
}
void ExpAvx2(const float*, float*, int64_t) { DLINF_AVX2_STUB; }
void Expm1Avx2(const float*, float*, int64_t) { DLINF_AVX2_STUB; }
void TanhAvx2(const float*, float*, int64_t) { DLINF_AVX2_STUB; }
void SoftmaxRowsAvx2(const float*, float*, int64_t, int64_t) {
  DLINF_AVX2_STUB;
}
void SoftmaxBackwardRowsAvx2(const float*, const float*, float*, int64_t,
                             int64_t) {
  DLINF_AVX2_STUB;
}
void AddRowBroadcastAvx2(const float*, const float*, float*, int64_t,
                         int64_t) {
  DLINF_AVX2_STUB;
}
void MulSpanAvx2(const float*, const float*, float*, int64_t) {
  DLINF_AVX2_STUB;
}
void AccumulateSpanAvx2(const float*, float*, int64_t) { DLINF_AVX2_STUB; }
void MulAccumulateSpanAvx2(const float*, const float*, float*, int64_t) {
  DLINF_AVX2_STUB;
}
void ReluGateAvx2(const float*, const float*, float*, int64_t) {
  DLINF_AVX2_STUB;
}
void TanhBackwardAvx2(const float*, const float*, float*, int64_t) {
  DLINF_AVX2_STUB;
}
void SigmoidAvx2(const float*, float*, int64_t) { DLINF_AVX2_STUB; }
void AttentionPanelForwardAvx2(float*, const float*, float, const float*,
                               float*, int64_t, int64_t) {
  DLINF_AVX2_STUB;
}
void AttentionPanelBackwardAvx2(const float*, const float*, float*, float,
                                float*, int64_t, int64_t) {
  DLINF_AVX2_STUB;
}
void LayerNormStatsAvx2(const float*, float, int64_t, int64_t, float*,
                        float*) {
  DLINF_AVX2_STUB;
}
void LayerNormBackwardSumsAvx2(const float*, const float*, const float*,
                               const float*, const float*, int64_t, int64_t,
                               float*, float*) {
  DLINF_AVX2_STUB;
}
void AdamStepAvx2(const AdamCoefficients&, const float*, float*, float*,
                  float*, int64_t) {
  DLINF_AVX2_STUB;
}

#undef DLINF_AVX2_STUB

#endif

}  // namespace detail
}  // namespace kernel
}  // namespace nn
}  // namespace dlinf
