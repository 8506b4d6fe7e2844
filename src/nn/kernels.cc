#include "nn/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "common/mt19937_64.h"

namespace dlinf {
namespace nn {
namespace kernel {
namespace detail {

// Provided by kernels_avx2.cc. When that translation unit is compiled
// without AVX2/FMA support (DLINF_DISABLE_AVX2 or an older compiler), it
// defines kAvx2Compiled = false and the entry points CHECK-fail; dispatch
// then never selects them.
extern const bool kAvx2Compiled;
void GemmAvx2(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
              const float* b, int64_t ldb, float* c, int64_t ldc,
              bool accumulate);
void AddBiasRowsAvx2(float* y, const float* bias, int64_t rows, int64_t n);
void AddBiasReluRowsAvx2(float* y, const float* bias, int64_t rows,
                         int64_t n);
void ReluInPlaceAvx2(float* y, int64_t count);
void GemmAtBAvx2(int64_t m, int64_t n, int64_t k, const float* a,
                 int64_t lda, const float* b, int64_t ldb, float* c,
                 int64_t ldc, bool accumulate);
void ColumnSumRowsAvx2(const float* x, int64_t rows, int64_t n, float* out);
void LayerNormApplyAvx2(const float* x, const float* gamma, const float* beta,
                        const float* mean, const float* inv_std, int64_t rows,
                        int64_t n, float* y);
void LayerNormParamGradAvx2(const float* x, const float* gy,
                            const float* mean, const float* inv_std,
                            int64_t rows, int64_t n, float* ggamma,
                            float* gbeta);
void LayerNormInputGradAvx2(const float* x, const float* gamma,
                            const float* gy, const float* mean,
                            const float* inv_std, const float* mean_dxhat,
                            const float* sum_dxhat_xhat, int64_t rows,
                            int64_t n, float* gx);
void FillDropoutMaskAvx2(uint64_t* words, size_t* position,
                         uint64_t threshold, float keep, float* mask,
                         int64_t n);
void ExpAvx2(const float* x, float* y, int64_t count);
void Expm1Avx2(const float* x, float* y, int64_t count);
void TanhAvx2(const float* x, float* y, int64_t count);
void SoftmaxRowsAvx2(const float* x, float* y, int64_t rows, int64_t n);
void SoftmaxBackwardRowsAvx2(const float* y, const float* gy, float* gx,
                             int64_t rows, int64_t n);
void AddRowBroadcastAvx2(const float* a, const float* b, float* out,
                         int64_t rows, int64_t n);
void MulSpanAvx2(const float* a, const float* b, float* out, int64_t count);
void AccumulateSpanAvx2(const float* x, float* acc, int64_t count);
void MulAccumulateSpanAvx2(const float* g, const float* m, float* acc,
                           int64_t count);
void ReluGateAvx2(const float* y, const float* g, float* out, int64_t count);
void TanhBackwardAvx2(const float* y, const float* g, float* gx,
                      int64_t count);
void SigmoidAvx2(const float* x, float* y, int64_t count);
void AttentionPanelForwardAvx2(float* panel, const float* mask, float scale,
                               const float* dmask, float* dropped,
                               int64_t rows, int64_t n);
void AttentionPanelBackwardAvx2(const float* probs, const float* dmask,
                                float* dpd, float scale, float* ds,
                                int64_t rows, int64_t n);
void LayerNormStatsAvx2(const float* x, float eps, int64_t rows, int64_t n,
                        float* mean, float* inv_std);
void LayerNormBackwardSumsAvx2(const float* x, const float* gamma,
                               const float* gy, const float* mean,
                               const float* inv_std, int64_t rows, int64_t n,
                               float* mean_dxhat, float* sum_dxhat_xhat);
void AdamStepAvx2(const AdamCoefficients& c, const float* g, float* w,
                  float* m, float* v, int64_t count);

}  // namespace detail

namespace {

std::atomic<bool> g_force_scalar{false};

/// One-time dispatch decision: compiled-in AVX2 + CPU support + not forced
/// off via environment. ForceScalar() can still override at runtime.
bool DetectAvx2() {
  if (!detail::kAvx2Compiled) return false;
#if defined(__x86_64__) || defined(__i386__)
  if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) {
    return false;
  }
#else
  return false;
#endif
  return true;
}

bool EnvForcesScalar() {
  const char* env = std::getenv("DLINF_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

bool HardwareAvx2() {
  static const bool available = DetectAvx2();
  return available;
}

struct EnvInit {
  EnvInit() { g_force_scalar.store(EnvForcesScalar()); }
};
const EnvInit g_env_init;

/// Scalar GEMM. std::fmaf is the correctly rounded fused multiply-add, so
/// each output element sees exactly the same sequence of single-rounding
/// operations as one lane of the AVX2 microkernel — bit-identical results.
void GemmScalar(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
                const float* b, int64_t ldb, float* c, int64_t ldc,
                bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    if (!accumulate) std::memset(crow, 0, static_cast<size_t>(n) * 4);
    const float* arow = a + i * lda;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      const float* brow = b + kk * ldb;
      for (int64_t j = 0; j < n; ++j) {
        crow[j] = std::fmaf(aik, brow[j], crow[j]);
      }
    }
  }
}

/// Scalar C = A^T @ B with A [k, m] read in place: k outermost, so every
/// output element sees its products in the same serial order as GemmScalar
/// over a transposed copy of A.
void GemmAtBScalar(int64_t m, int64_t n, int64_t k, const float* a,
                   int64_t lda, const float* b, int64_t ldb, float* c,
                   int64_t ldc, bool accumulate) {
  if (!accumulate) {
    for (int64_t i = 0; i < m; ++i) {
      std::memset(c + i * ldc, 0, static_cast<size_t>(n) * 4);
    }
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* arow = a + p * lda;
    const float* brow = b + p * ldb;
    for (int64_t i = 0; i < m; ++i) {
      const float api = arow[i];
      float* crow = c + i * ldc;
      for (int64_t j = 0; j < n; ++j) {
        crow[j] = std::fmaf(api, brow[j], crow[j]);
      }
    }
  }
}

/// One row of the scalar softmax: serial max, libm exp, a serial double
/// denominator in column order, then one multiply by its rounded inverse.
void SoftmaxRowScalar(const float* xr, float* yr, int64_t n) {
  float max_v = xr[0];
  for (int64_t j = 1; j < n; ++j) max_v = std::max(max_v, xr[j]);
  double denom = 0.0;
  for (int64_t j = 0; j < n; ++j) {
    yr[j] = std::exp(xr[j] - max_v);
    denom += yr[j];
  }
  const float inv = static_cast<float>(1.0 / denom);
  for (int64_t j = 0; j < n; ++j) yr[j] *= inv;
}

/// The serial double dot product sum_j gy[j] * y[j] of a softmax backward
/// row, rounded to float.
float SoftmaxRowDot(const float* yr, const float* gyr, int64_t n) {
  double dot = 0.0;
  for (int64_t j = 0; j < n; ++j) {
    dot += static_cast<double>(gyr[j]) * yr[j];
  }
  return static_cast<float>(dot);
}

}  // namespace

bool Avx2Enabled() {
  return HardwareAvx2() && !g_force_scalar.load(std::memory_order_relaxed);
}

const char* PathName() { return Avx2Enabled() ? "avx2" : "scalar"; }

void ForceScalar(bool force) { g_force_scalar.store(force); }

void Gemm(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
          const float* b, int64_t ldb, float* c, int64_t ldc,
          bool accumulate) {
  CHECK(m >= 0 && n >= 0 && k >= 0);
  if (m == 0 || n == 0) return;
  CHECK(lda >= k && ldb >= n && ldc >= n);
  if (Avx2Enabled()) {
    detail::GemmAvx2(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
  } else {
    GemmScalar(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
  }
}

void GemmAtB(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, int64_t ldb, float* c, int64_t ldc,
             bool accumulate) {
  CHECK(m >= 0 && n >= 0 && k >= 0);
  if (m == 0 || n == 0) return;
  CHECK(lda >= m && ldb >= n && ldc >= n);
  if (Avx2Enabled()) {
    detail::GemmAtBAvx2(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
  } else {
    GemmAtBScalar(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
  }
}

void Transpose(const float* src, int64_t rows, int64_t cols, int64_t ld_src,
               float* dst) {
  // Blocked copy keeps both access patterns within a few cache lines.
  constexpr int64_t kBlock = 32;
  for (int64_t i0 = 0; i0 < rows; i0 += kBlock) {
    const int64_t i1 = std::min(rows, i0 + kBlock);
    for (int64_t j0 = 0; j0 < cols; j0 += kBlock) {
      const int64_t j1 = std::min(cols, j0 + kBlock);
      for (int64_t i = i0; i < i1; ++i) {
        const float* srow = src + i * ld_src;
        for (int64_t j = j0; j < j1; ++j) {
          dst[j * rows + i] = srow[j];
        }
      }
    }
  }
}

void AddBiasRows(float* y, const float* bias, int64_t rows, int64_t n) {
  if (Avx2Enabled()) {
    detail::AddBiasRowsAvx2(y, bias, rows, n);
    return;
  }
  for (int64_t r = 0; r < rows; ++r) {
    float* row = y + r * n;
    for (int64_t j = 0; j < n; ++j) row[j] += bias[j];
  }
}

void AddBiasReluRows(float* y, const float* bias, int64_t rows, int64_t n) {
  if (Avx2Enabled()) {
    detail::AddBiasReluRowsAvx2(y, bias, rows, n);
    return;
  }
  for (int64_t r = 0; r < rows; ++r) {
    float* row = y + r * n;
    for (int64_t j = 0; j < n; ++j) {
      const float v = row[j] + bias[j];
      row[j] = v > 0.0f ? v : 0.0f;
    }
  }
}

void ReluInPlace(float* y, int64_t count) {
  if (Avx2Enabled()) {
    detail::ReluInPlaceAvx2(y, count);
    return;
  }
  for (int64_t i = 0; i < count; ++i) y[i] = y[i] > 0.0f ? y[i] : 0.0f;
}

void ColumnSumRows(const float* x, int64_t rows, int64_t n, float* out) {
  if (Avx2Enabled()) {
    detail::ColumnSumRowsAvx2(x, rows, n, out);
    return;
  }
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * n;
    for (int64_t j = 0; j < n; ++j) out[j] += row[j];
  }
}

void AddRowBroadcast(const float* a, const float* b, float* out, int64_t rows,
                     int64_t n) {
  if (Avx2Enabled()) {
    detail::AddRowBroadcastAvx2(a, b, out, rows, n);
    return;
  }
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < n; ++j) out[r * n + j] = a[r * n + j] + b[j];
  }
}

void MulSpan(const float* a, const float* b, float* out, int64_t count) {
  if (Avx2Enabled()) {
    detail::MulSpanAvx2(a, b, out, count);
    return;
  }
  for (int64_t i = 0; i < count; ++i) out[i] = a[i] * b[i];
}

void AccumulateSpan(const float* x, float* acc, int64_t count) {
  if (Avx2Enabled()) {
    detail::AccumulateSpanAvx2(x, acc, count);
    return;
  }
  for (int64_t i = 0; i < count; ++i) acc[i] += x[i];
}

void MulAccumulateSpan(const float* g, const float* m, float* acc,
                       int64_t count) {
  if (Avx2Enabled()) {
    detail::MulAccumulateSpanAvx2(g, m, acc, count);
    return;
  }
  for (int64_t i = 0; i < count; ++i) acc[i] += g[i] * m[i];
}

void ReluGate(const float* y, const float* g, float* out, int64_t count) {
  if (Avx2Enabled()) {
    detail::ReluGateAvx2(y, g, out, count);
    return;
  }
  for (int64_t i = 0; i < count; ++i) out[i] = y[i] > 0.0f ? g[i] : 0.0f;
}

void TanhBackward(const float* y, const float* g, float* gx, int64_t count) {
  if (Avx2Enabled()) {
    detail::TanhBackwardAvx2(y, g, gx, count);
    return;
  }
  for (int64_t i = 0; i < count; ++i) gx[i] += g[i] * (1.0f - y[i] * y[i]);
}

void Sigmoid(const float* x, float* y, int64_t count) {
  if (Avx2Enabled()) {
    detail::SigmoidAvx2(x, y, count);
    return;
  }
  for (int64_t i = 0; i < count; ++i) y[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

void Exp(const float* x, float* y, int64_t count) {
  if (Avx2Enabled()) {
    detail::ExpAvx2(x, y, count);
    return;
  }
  for (int64_t i = 0; i < count; ++i) y[i] = std::exp(x[i]);
}

void Expm1(const float* x, float* y, int64_t count) {
  if (Avx2Enabled()) {
    detail::Expm1Avx2(x, y, count);
    return;
  }
  for (int64_t i = 0; i < count; ++i) y[i] = ::expm1f(x[i]);
}

void Tanh(const float* x, float* y, int64_t count) {
  if (Avx2Enabled()) {
    detail::TanhAvx2(x, y, count);
    return;
  }
  for (int64_t i = 0; i < count; ++i) y[i] = std::tanh(x[i]);
}

void SoftmaxRows(const float* x, float* y, int64_t rows, int64_t n) {
  CHECK_GT(n, 0);
  if (Avx2Enabled()) {
    detail::SoftmaxRowsAvx2(x, y, rows, n);
    return;
  }
  for (int64_t r = 0; r < rows; ++r) SoftmaxRowScalar(x + r * n, y + r * n, n);
}

void SoftmaxBackwardRows(const float* y, const float* gy, float* gx,
                         int64_t rows, int64_t n) {
  if (Avx2Enabled()) {
    detail::SoftmaxBackwardRowsAvx2(y, gy, gx, rows, n);
    return;
  }
  for (int64_t r = 0; r < rows; ++r) {
    const float* yr = y + r * n;
    const float* gyr = gy + r * n;
    float* gxr = gx + r * n;
    const float dot_f = SoftmaxRowDot(yr, gyr, n);
    for (int64_t j = 0; j < n; ++j) {
      gxr[j] += yr[j] * (gyr[j] - dot_f);
    }
  }
}

void AttentionPanelForward(float* panel, const float* mask, float scale,
                           const float* dmask, float* dropped, int64_t rows,
                           int64_t n) {
  CHECK_GT(n, 0);
  if (Avx2Enabled()) {
    detail::AttentionPanelForwardAvx2(panel, mask, scale, dmask, dropped, rows,
                                      n);
    return;
  }
  for (int64_t r = 0; r < rows; ++r) {
    float* row = panel + r * n;
    for (int64_t j = 0; j < n; ++j) {
      float s = row[j] * scale;
      if (mask != nullptr) s += mask[j];
      row[j] = s;
    }
    SoftmaxRowScalar(row, row, n);
    if (dmask != nullptr) {
      for (int64_t j = 0; j < n; ++j) {
        dropped[r * n + j] = row[j] * dmask[r * n + j];
      }
    }
  }
}

void AttentionPanelBackward(const float* probs, const float* dmask,
                            float* dpd, float scale, float* ds, int64_t rows,
                            int64_t n) {
  if (Avx2Enabled()) {
    detail::AttentionPanelBackwardAvx2(probs, dmask, dpd, scale, ds, rows, n);
    return;
  }
  for (int64_t r = 0; r < rows; ++r) {
    const float* pr = probs + r * n;
    float* gr = dpd + r * n;
    float* dsr = ds + r * n;
    if (dmask != nullptr) {
      for (int64_t j = 0; j < n; ++j) gr[j] *= dmask[r * n + j];
    }
    const float dot_f = SoftmaxRowDot(pr, gr, n);
    for (int64_t j = 0; j < n; ++j) {
      dsr[j] = (0.0f + pr[j] * (gr[j] - dot_f)) * scale;
    }
  }
}

void LayerNormRows(const float* x, const float* gamma, const float* beta,
                   float eps, int64_t rows, int64_t n, float* y, float* mean,
                   float* inv_std) {
  CHECK_GT(n, 0);
  // Row statistics: serial double-precision sums on both paths (the AVX2
  // path runs four rows' chains side by side).
  if (Avx2Enabled()) {
    detail::LayerNormStatsAvx2(x, eps, rows, n, mean, inv_std);
    detail::LayerNormApplyAvx2(x, gamma, beta, mean, inv_std, rows, n, y);
    return;
  }
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * n;
    double mu = 0.0;
    for (int64_t j = 0; j < n; ++j) mu += xr[j];
    mu /= static_cast<double>(n);
    double var = 0.0;
    for (int64_t j = 0; j < n; ++j) var += (xr[j] - mu) * (xr[j] - mu);
    var /= static_cast<double>(n);
    mean[r] = static_cast<float>(mu);
    inv_std[r] = static_cast<float>(1.0 / std::sqrt(var + eps));
  }
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * n;
    float* yr = y + r * n;
    for (int64_t j = 0; j < n; ++j) {
      yr[j] = gamma[j] * (xr[j] - mean[r]) * inv_std[r] + beta[j];
    }
  }
}

void LayerNormBackwardRows(const float* x, const float* gamma,
                           const float* gy, const float* mean,
                           const float* inv_std, int64_t rows, int64_t n,
                           float* gx, float* ggamma, float* gbeta) {
  const bool avx2 = Avx2Enabled();
  if (ggamma != nullptr || gbeta != nullptr) {
    if (avx2) {
      detail::LayerNormParamGradAvx2(x, gy, mean, inv_std, rows, n, ggamma,
                                     gbeta);
    } else {
      for (int64_t r = 0; r < rows; ++r) {
        const float* xr = x + r * n;
        const float* gyr = gy + r * n;
        for (int64_t j = 0; j < n; ++j) {
          const float xhat = (xr[j] - mean[r]) * inv_std[r];
          if (ggamma != nullptr) ggamma[j] += gyr[j] * xhat;
          if (gbeta != nullptr) gbeta[j] += gyr[j];
        }
      }
    }
  }
  if (gx == nullptr) return;
  // dL/dx = istd/n * (n*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat)),
  // dxhat_j = gy_j * gamma_j. The two row sums are serial doubles on both
  // paths (four rows' chains side by side on AVX2).
  const float nf = static_cast<float>(n);
  PooledBuffer mean_dxhat(static_cast<size_t>(rows),
                          PooledBuffer::ForOverwrite{});
  PooledBuffer sum_dxhat_xhat(static_cast<size_t>(rows),
                              PooledBuffer::ForOverwrite{});
  if (avx2) {
    detail::LayerNormBackwardSumsAvx2(x, gamma, gy, mean, inv_std, rows, n,
                                      mean_dxhat.data(),
                                      sum_dxhat_xhat.data());
    detail::LayerNormInputGradAvx2(x, gamma, gy, mean, inv_std,
                                   mean_dxhat.data(), sum_dxhat_xhat.data(),
                                   rows, n, gx);
    return;
  }
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * n;
    const float* gyr = gy + r * n;
    double sum_dxhat = 0.0;
    double sum_dot = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      const float dxhat = gyr[j] * gamma[j];
      const float xhat = (xr[j] - mean[r]) * inv_std[r];
      sum_dxhat += dxhat;
      sum_dot += static_cast<double>(dxhat) * xhat;
    }
    mean_dxhat.data()[r] = static_cast<float>(sum_dxhat) / nf;
    sum_dxhat_xhat.data()[r] = static_cast<float>(sum_dot);
  }
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * n;
    const float* gyr = gy + r * n;
    float* gxr = gx + r * n;
    const float istd = inv_std[r];
    const float a = mean_dxhat.data()[r];
    const float s = sum_dxhat_xhat.data()[r];
    for (int64_t j = 0; j < n; ++j) {
      const float dxhat = gyr[j] * gamma[j];
      const float xhat = (xr[j] - mean[r]) * istd;
      gxr[j] += istd * (dxhat - a - xhat * s / nf);
    }
  }
}

void AdamStep(const AdamCoefficients& c, const float* g, float* w, float* m,
              float* v, int64_t count) {
  if (Avx2Enabled()) {
    detail::AdamStepAvx2(c, g, w, m, v, count);
    return;
  }
  for (int64_t j = 0; j < count; ++j) {
    m[j] = c.beta1 * m[j] + c.one_minus_beta1 * g[j];
    v[j] = c.beta2 * v[j] + c.one_minus_beta2 * g[j] * g[j];
    const float m_hat = m[j] / c.bias1;
    const float v_hat = v[j] / c.bias2;
    w[j] -= c.learning_rate * m_hat / (std::sqrt(v_hat) + c.eps);
  }
}

void FillDropoutMask(Mt19937_64* engine, uint64_t threshold, float keep,
                     float* mask, int64_t n) {
  CHECK(engine != nullptr);
  if (Avx2Enabled()) {
    size_t position = engine->position();
    detail::FillDropoutMaskAvx2(engine->words(), &position, threshold, keep,
                                mask, n);
    engine->set_position(position);
    return;
  }
  for (int64_t i = 0; i < n; ++i) {
    mask[i] = (*engine)() < threshold ? 0.0f : keep;
  }
}

// --- Buffer pool ------------------------------------------------------------

namespace {

/// Per-thread free lists bucketed by power-of-two capacity. Released
/// buffers land in the bucket of floor(log2(capacity)); acquisition looks
/// in ceil(log2(size)), so every pooled hit has sufficient capacity.
constexpr int kNumBuckets = 31;
constexpr size_t kMinPooled = 16;           // Tiny buffers: malloc is fine.
constexpr size_t kMaxPooled = 1u << 26;     // 256 MiB of floats per buffer.
constexpr size_t kMaxPerBucket = 24;

struct BufferPool {
  std::vector<std::vector<float>> buckets[kNumBuckets];
  int64_t reused = 0;
  int64_t allocated = 0;
  ~BufferPool();
};

// Trivially destructible thread-locals are never torn down, so these stay
// readable during and after the pool's own destruction at thread exit
// (tensors with static storage duration release their buffers then).
thread_local BufferPool* t_pool = nullptr;
thread_local bool t_pool_destroyed = false;

BufferPool::~BufferPool() {
  t_pool = nullptr;
  t_pool_destroyed = true;
}

BufferPool* Pool() {
  if (t_pool == nullptr && !t_pool_destroyed) {
    thread_local BufferPool storage;
    t_pool = &storage;
  }
  return t_pool;
}

int BucketFloor(size_t capacity) {
  int bucket = 0;
  while ((static_cast<size_t>(2) << bucket) <= capacity) ++bucket;
  return bucket;  // 2^bucket <= capacity < 2^(bucket+1)
}

int BucketCeil(size_t size) {
  int bucket = 0;
  while ((static_cast<size_t>(1) << bucket) < size) ++bucket;
  return bucket;  // 2^bucket >= size
}

/// Pops a pooled buffer of capacity >= size into *out; false when the pool
/// has none (the caller allocates).
bool PopPooled(size_t size, std::vector<float>* out) {
  BufferPool* pool = Pool();
  if (pool == nullptr || size < kMinPooled || size > kMaxPooled) return false;
  const int bucket = BucketCeil(size);
  if (bucket < kNumBuckets && !pool->buckets[bucket].empty()) {
    *out = std::move(pool->buckets[bucket].back());
    pool->buckets[bucket].pop_back();
    ++pool->reused;
    return true;
  }
  ++pool->allocated;
  return false;
}

}  // namespace

std::vector<float> AcquireBuffer(size_t size) {
  std::vector<float> out;
  PopPooled(size, &out);
  out.assign(size, 0.0f);
  return out;
}

std::vector<float> AcquireBufferForOverwrite(size_t size) {
  std::vector<float> out;
  PopPooled(size, &out);
  // A pooled buffer keeps its contents: only a grown tail is zeroed.
  out.resize(size);
  return out;
}

void PoisonBufferPool(float value, size_t max_size) {
  BufferPool* pool = Pool();
  if (pool == nullptr) return;
  for (int bucket = 0; bucket < kNumBuckets; ++bucket) {
    std::vector<std::vector<float>>& free_list = pool->buckets[bucket];
    const size_t capacity = static_cast<size_t>(1) << bucket;
    if (capacity >= kMinPooled && capacity <= max_size) {
      while (free_list.size() < kMaxPerBucket) {
        free_list.emplace_back().reserve(capacity);
      }
    }
    for (std::vector<float>& buffer : free_list) {
      buffer.assign(buffer.capacity(), value);
    }
  }
}

void ReleaseBuffer(std::vector<float>&& buffer) {
  const size_t capacity = buffer.capacity();
  if (capacity < kMinPooled || capacity > kMaxPooled) return;
  BufferPool* pool = Pool();
  if (pool == nullptr) return;
  const int bucket = BucketFloor(capacity);
  if (bucket >= kNumBuckets) return;
  if (pool->buckets[bucket].size() >= kMaxPerBucket) return;
  pool->buckets[bucket].push_back(std::move(buffer));
}

BufferPoolStats GetBufferPoolStats() {
  BufferPoolStats stats;
  if (BufferPool* pool = Pool(); pool != nullptr) {
    stats.reused = pool->reused;
    stats.allocated = pool->allocated;
  }
  return stats;
}

}  // namespace kernel
}  // namespace nn
}  // namespace dlinf
