#ifndef DLINF_NN_KERNELS_H_
#define DLINF_NN_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dlinf {

class Mt19937_64;

namespace nn {
namespace kernel {

/// \file
/// The compute-kernel layer under nn/ (DESIGN.md §12): cache-aware GEMM with an
/// AVX2/FMA microkernel behind runtime CPU dispatch, bias/activation epilogues,
/// exact exp / expm1 / tanh spans, row-wise softmax / layer-norm primitives,
/// fused attention-panel and residual epilogues, the Adam update, block
/// dropout-mask draws, and a free-list buffer pool for autograd
/// temporaries. Everything above (nn/ops.cc, nn/module.cc) routes its inner
/// loops through these entry points; nothing here records autograd tape
/// state.
///
/// **Determinism contract.** The scalar and AVX2 paths produce bit-identical
/// results: every output element accumulates its k-products in the same serial
/// order, the scalar path uses the correctly rounded std::fmaf and the vector
/// path the hardware vfmadd (the same single-rounding fused operation), and
/// epilogues/softmax/layer-norm use only per-element ops whose rounding does
/// not depend on lane width (explicit multiplies and adds, never contracted
/// into a fused op); their reductions stay serial, at most four rows'
/// separate double chains sharing one vector as its lanes. The vector exp,
/// expm1 and tanh repeat libm's own operations lane by lane, so they return
/// libm's bits (DESIGN.md §12 states which libm that is).
/// tests/kernel_test.cc asserts the bit-identity on every shape it sweeps;
/// the `simd-dispatch` CI job asserts it end to end on the golden pipeline,
/// and determinism_test that a fit reads no stale pooled buffer (below).

/// --- Dispatch -------------------------------------------------------------

/// True when the AVX2/FMA microkernel is active: compiled in (see
/// DLINF_DISABLE_AVX2 in src/nn/CMakeLists.txt), supported by this CPU, and
/// not disabled via the `DLINF_FORCE_SCALAR=1` environment variable or
/// ForceScalar().
bool Avx2Enabled();

/// "avx2" or "scalar" — for startup logs and bench labels.
const char* PathName();

/// Runtime override (test hook; also what DLINF_FORCE_SCALAR sets at static
/// init). Forcing scalar on an AVX2 machine must not change any result.
void ForceScalar(bool force);

/// --- GEMM -----------------------------------------------------------------

/// C[m,n] = (accumulate ? C : 0) + A[m,k] @ B[k,n].
///
/// Row-major with leading dimensions (elements between consecutive rows)
/// `lda`/`ldb`/`ldc`, so sub-blocks of larger matrices (e.g. one attention
/// head's columns) can be multiplied in place. k == 0 zeroes C (or leaves it
/// untouched when accumulating).
void Gemm(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
          const float* b, int64_t ldb, float* c, int64_t ldc,
          bool accumulate);

/// Contiguous convenience overload: lda = k, ldb = n, ldc = n.
inline void Gemm(int64_t m, int64_t n, int64_t k, const float* a,
                 const float* b, float* c, bool accumulate) {
  Gemm(m, n, k, a, k, b, n, c, n, accumulate);
}

/// C[m,n] = (accumulate ? C : 0) + A^T @ B, where A is stored [k, m] with
/// leading dimension `lda` >= m and read in place (no transposed copy). Each
/// output element accumulates its k-products in the same serial order as
/// Gemm over an explicitly transposed A, so the two are bit-identical; this
/// is the weight-gradient form dW += X^T @ dY.
void GemmAtB(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, int64_t ldb, float* c, int64_t ldc,
             bool accumulate);

/// dst[cols, rows] = src[rows, cols]^T. `ld_src` is src's leading dimension;
/// dst is written contiguously (leading dimension rows). Exact (copy only).
void Transpose(const float* src, int64_t rows, int64_t cols, int64_t ld_src,
               float* dst);

/// --- Epilogues ------------------------------------------------------------

/// y[r, j] += bias[j] for every row. Exact per-element add.
void AddBiasRows(float* y, const float* bias, int64_t rows, int64_t n);

/// y[r, j] = max(y[r, j] + bias[j], 0).
void AddBiasReluRows(float* y, const float* bias, int64_t rows, int64_t n);

/// y[i] = max(y[i], 0) over a flat span.
void ReluInPlace(float* y, int64_t count);

/// out[j] += sum_r x[r, j], accumulated row by row in row-major order (the
/// order broadcast-add backward historically used for bias gradients).
void ColumnSumRows(const float* x, int64_t rows, int64_t n, float* out);

/// out[r, j] = a[r, j] + b[j]: the forward of an Add whose second operand
/// is broadcast over rows (`out` may alias `a`).
void AddRowBroadcast(const float* a, const float* b, float* out, int64_t rows,
                     int64_t n);

/// --- Element-wise spans ---------------------------------------------------
///
/// Each is one exact IEEE operation per element (outputs may alias inputs).

/// out[i] = a[i] * b[i] (the dropout multiply).
void MulSpan(const float* a, const float* b, float* out, int64_t count);

/// acc[i] += x[i] (the gradient of an Add operand).
void AccumulateSpan(const float* x, float* acc, int64_t count);

/// acc[i] += g[i] * m[i] (the gradient through a dropout multiply).
void MulAccumulateSpan(const float* g, const float* m, float* acc,
                       int64_t count);

/// out[i] = y[i] > 0 ? g[i] : 0 — the ReLU gate of a backward pass, with the
/// saved forward output `y` as the mask.
void ReluGate(const float* y, const float* g, float* out, int64_t count);

/// gx[i] += g[i] * (1 - y[i] * y[i]): tanh's backward from its output y.
void TanhBackward(const float* y, const float* g, float* gx, int64_t count);

/// y[i] = 1 / (1 + exp(-x[i])), the exp being Exp's (libm's) bits.
void Sigmoid(const float* x, float* y, int64_t count);

/// --- Transcendentals ------------------------------------------------------

/// y[i] = std::exp(x[i]), y[i] = ::expm1f(x[i]), y[i] = std::tanh(x[i]),
/// bit for bit, over a span (`x` and `y` may alias). The scalar path calls
/// libm; the AVX2 path replays libm's own operation sequence eight lanes at
/// a time (glibc's `__expf_fma`, fdlibm's `expm1f` and `tanhf`; DESIGN.md
/// §12) and hands NaN, infinite and overflowing lanes to libm itself.
void Exp(const float* x, float* y, int64_t count);
void Expm1(const float* x, float* y, int64_t count);
void Tanh(const float* x, float* y, int64_t count);

/// --- Softmax --------------------------------------------------------------

/// Numerically stable softmax over each contiguous row of `n` entries;
/// `x` and `y` may alias. Path-invariant: the row max is exact on both
/// paths, every exp is libm's `expf` bit for bit (see Exp), and each row's
/// double-precision denominator adds its terms serially in column order.
void SoftmaxRows(const float* x, float* y, int64_t rows, int64_t n);

/// gx[r, j] += y[r, j] * (gy[r, j] - sum_i gy[r, i] * y[r, i]) — the softmax
/// Jacobian product, given the forward result `y`. The row dot product is a
/// serial double sum in column order on both paths.
void SoftmaxBackwardRows(const float* y, const float* gy, float* gx,
                         int64_t rows, int64_t n);

/// --- Attention panels -----------------------------------------------------

/// One [rows, n] attention-score panel of a self-attention forward, in one
/// pass per 4-row block: `panel` holds the raw q.k scores on entry and the
/// softmax probabilities on exit. Per element s = score * scale, then
/// s += mask[j] when `mask` is non-null, then the row softmax of
/// SoftmaxRows; when `dmask` is non-null, dropped = probs * dmask as well
/// (`dropped` is written in full, `panel` left pre-dropout).
void AttentionPanelForward(float* panel, const float* mask, float scale,
                           const float* dmask, float* dropped, int64_t rows,
                           int64_t n);

/// The matching backward, given the pre-dropout probabilities `probs` and
/// `dpd` = dL/d(dropped probabilities): dpd *= dmask in place when `dmask`
/// is non-null, then per row ds = (0 + probs * (dpd - dot)) * scale, dot
/// being the SoftmaxBackwardRows serial double sum. `ds` is written in
/// full; the +0 is the zeroed accumulator the unfused form added into.
void AttentionPanelBackward(const float* probs, const float* dmask,
                            float* dpd, float scale, float* ds, int64_t rows,
                            int64_t n);

/// --- Layer norm -----------------------------------------------------------

/// y = gamma * (x - mean) * inv_std + beta per row; writes the per-row
/// `mean` / `inv_std` (length `rows`) for the backward pass. The row mean
/// and variance are serial double sums on both paths (the AVX2 path runs
/// four rows' chains as the lanes of one vector).
void LayerNormRows(const float* x, const float* gamma, const float* beta,
                   float eps, int64_t rows, int64_t n, float* y, float* mean,
                   float* inv_std);

/// Accumulates layer-norm gradients. Any of gx / ggamma / gbeta may be null
/// to skip that output.
void LayerNormBackwardRows(const float* x, const float* gamma,
                           const float* gy, const float* mean,
                           const float* inv_std, int64_t rows, int64_t n,
                           float* gx, float* ggamma, float* gbeta);

/// --- Optimizer ------------------------------------------------------------

/// Adam's constants for one step: the decay rates, their complements
/// (1 - beta, rounded once in float), the bias corrections 1 - beta^t, the
/// learning rate and epsilon.
struct AdamCoefficients {
  float beta1, beta2;
  float one_minus_beta1, one_minus_beta2;
  float bias1, bias2;
  float learning_rate, eps;
};

/// One Adam update over a parameter span, per element and in this order:
///   m = beta1 * m + (1 - beta1) * g
///   v = beta2 * v + (1 - beta2) * g * g
///   w -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
/// Every operation is a correctly rounded IEEE op (sqrt included), so the
/// vector path's lanes equal the scalar loop.
void AdamStep(const AdamCoefficients& c, const float* g, float* w, float* m,
              float* v, int64_t count);

/// --- Dropout draws ---------------------------------------------------------

/// mask[i] = (engine() < threshold) ? 0 : keep for i = 0..n-1, one engine
/// draw per element in order. The AVX2 path twists and tempers whole blocks
/// of the engine's state; both paths leave the same masks and the same
/// engine state as that per-draw loop.
void FillDropoutMask(Mt19937_64* engine, uint64_t threshold, float keep,
                     float* mask, int64_t n);

/// --- Buffer pool ----------------------------------------------------------

/// Free-list recycling of float buffers. Training and batched inference
/// allocate and free tensor-sized buffers thousands of times per second;
/// AcquireBuffer pops a zero-filled vector with sufficient capacity from a
/// per-thread size-bucketed pool (falling back to a fresh allocation), and
/// ReleaseBuffer returns storage to the pool instead of freeing it.
/// TensorImpl's destructor releases its data/grad here, so the autograd
/// tape's temporaries stop hammering malloc (DESIGN.md §12).
std::vector<float> AcquireBuffer(size_t size);
void ReleaseBuffer(std::vector<float>&& buffer);

/// AcquireBuffer without the zero fill: a recycled buffer keeps whatever
/// its last user left in it. **Rule:** an unzeroed buffer is written in
/// full before any read — it is for outputs a GEMM, transpose, softmax,
/// layer norm, span kernel or copy overwrites; accumulators (gradients,
/// anything a kernel adds into) take AcquireBuffer.
std::vector<float> AcquireBufferForOverwrite(size_t size);

/// Test hook: fills this thread's free lists with `value` — every pooled
/// buffer to its capacity, and every bucket of sizes up to `max_size`
/// topped up to its limit — so that reading an overwrite-only buffer
/// before writing it shows in the result.
void PoisonBufferPool(float value, size_t max_size);

/// Pool observability (tests): buffers handed out from the pool vs fresh.
struct BufferPoolStats {
  int64_t reused = 0;
  int64_t allocated = 0;
};
BufferPoolStats GetBufferPoolStats();

/// RAII pooled buffer for kernel scratch and saved activations held by
/// backward closures. Copyable because std::function requires copyable
/// captures; every instance returns its storage to the pool on destruction.
class PooledBuffer {
 public:
  /// Tag for the overwrite-only (unzeroed) acquisition.
  struct ForOverwrite {};

  PooledBuffer() = default;
  explicit PooledBuffer(size_t size) : v_(AcquireBuffer(size)) {}
  PooledBuffer(size_t size, ForOverwrite)
      : v_(AcquireBufferForOverwrite(size)) {}
  explicit PooledBuffer(std::vector<float>&& v) : v_(std::move(v)) {}
  PooledBuffer(const PooledBuffer& other) : v_(other.v_) {}
  PooledBuffer& operator=(const PooledBuffer& other) {
    v_ = other.v_;
    return *this;
  }
  PooledBuffer(PooledBuffer&& other) noexcept = default;
  PooledBuffer& operator=(PooledBuffer&& other) noexcept = default;
  ~PooledBuffer() { ReleaseBuffer(std::move(v_)); }

  float* data() { return v_.data(); }
  const float* data() const { return v_.data(); }
  size_t size() const { return v_.size(); }
  std::vector<float>& vec() { return v_; }
  const std::vector<float>& vec() const { return v_; }

 private:
  std::vector<float> v_;
};

}  // namespace kernel
}  // namespace nn
}  // namespace dlinf

#endif  // DLINF_NN_KERNELS_H_
