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
// bit-identical (kernels.h).

#include <cstddef>
#include <cstdint>

#include "common/check.h"
#include "common/mt19937_64.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>

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

#undef DLINF_AVX2_STUB

#endif

}  // namespace detail
}  // namespace kernel
}  // namespace nn
}  // namespace dlinf
