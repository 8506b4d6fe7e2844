#ifndef DLINF_NN_OPS_H_
#define DLINF_NN_OPS_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "nn/tensor.h"

namespace dlinf {
namespace nn {

class DropoutStream;

/// \file
/// Differentiable tensor operations. Every function returns a fresh tensor
/// recorded on the autograd tape (when any input requires grad).
///
/// Broadcasting follows NumPy semantics: shapes are right-aligned and a
/// dimension of size 1 stretches. Gradients reduce back over stretched
/// dimensions.

/// --- Elementwise arithmetic (broadcasting) -----------------------------
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

/// x + c and x * c with a compile-time-constant scalar (not differentiable
/// w.r.t. the scalar).
Tensor AddScalar(const Tensor& x, float c);
Tensor MulScalar(const Tensor& x, float c);

/// --- Elementwise nonlinearities ----------------------------------------
Tensor Relu(const Tensor& x);
Tensor Tanh(const Tensor& x);
Tensor Sigmoid(const Tensor& x);
Tensor Exp(const Tensor& x);
/// Natural log; inputs must be positive.
Tensor Log(const Tensor& x);

/// --- Shape manipulation --------------------------------------------------
/// Reinterprets the data with a new shape of equal element count.
Tensor Reshape(const Tensor& x, const Shape& new_shape);

/// General axis permutation, e.g. Permute(x, {0, 2, 1, 3}).
Tensor Permute(const Tensor& x, const std::vector<int>& axes);

/// Swaps the last two axes (batched matrix transpose).
Tensor TransposeLast2(const Tensor& x);

/// Concatenates along `axis` (negative axes count from the end). All inputs
/// must agree on every other dimension.
Tensor Concat(const std::vector<Tensor>& tensors, int axis);

/// Slice along `axis`: keeps indices [start, start+length).
Tensor SliceAxis(const Tensor& x, int axis, int start, int length);

/// --- Linear algebra ------------------------------------------------------
/// Matrix product. `a` is [..., M, K]. `b` is either [K, N] (a shared weight
/// applied to every leading batch of `a`) or [..., K, N] with leading dims
/// identical to `a`'s (a batched product). A shared [K, N] weight is applied
/// as ONE flattened [batch * M, K] x [K, N] GEMM through nn/kernels.h.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// --- Fused layers ---------------------------------------------------------
/// Epilogue applied inside LinearEx's GEMM kernel call.
enum class Activation { kNone, kRelu };

/// Fused y = act(x @ w [+ b]) as a single autograd node: one GEMM over the
/// flattened [..., K] rows plus a fused bias/activation epilogue — no
/// intermediate tensors, no broadcast walk. `b` may be undefined (no bias).
/// `x` is [..., K] (rank >= 2), `w` is [K, N], `b` is [N].
Tensor LinearEx(const Tensor& x, const Tensor& w, const Tensor& b,
                Activation act = Activation::kNone);

/// Fused multi-head self-attention block as a single autograd node:
///   q,k,v = x@Wq+bq, x@Wk+bk, x@Wv+bv           (three [B*N, D] GEMMs)
///   P     = dropout(softmax(q k^T / sqrt(dh) + mask))  (per batch & head)
///   out   = concat_heads(P v) @ Wo + bo
/// `x` is [B, N, D]; weights are [D, D], biases [D]; `mask` (optional,
/// additive, e.g. -1e9 at padding) is [B, 1, 1, N]. Score -> softmax ->
/// weighted-sum runs on kernel-layer GEMM/softmax primitives over pooled
/// scratch; in training mode the dropout mask is one site of `masks` over
/// [B, H, N, N], the draws of the unfused Dropout op it replaces, element
/// for element.
Tensor FusedSelfAttention(const Tensor& x, const Tensor& wq, const Tensor& bq,
                          const Tensor& wk, const Tensor& bk,
                          const Tensor& wv, const Tensor& bv,
                          const Tensor& wo, const Tensor& bo,
                          const Tensor& mask, int num_heads, float dropout_p,
                          bool training, DropoutStream* masks);

/// --- Reductions -----------------------------------------------------------
/// Sum / mean of all elements into a scalar (rank-0) tensor.
Tensor Sum(const Tensor& x);
Tensor Mean(const Tensor& x);

/// --- Softmax ---------------------------------------------------------------
/// Numerically stable softmax over the last axis. Callers implement masking
/// by adding a large negative value to masked logits beforehand.
Tensor Softmax(const Tensor& x);

/// --- Lookup ----------------------------------------------------------------
/// Rows of `table` ([V, E]) selected by `indices`; result is [n, E].
/// Gradient scatters into the selected rows.
Tensor EmbeddingLookup(const Tensor& table, const std::vector<int>& indices);

/// --- Regularization ----------------------------------------------------------
/// Inverted dropout: during training each element is zeroed with probability
/// p and survivors are scaled by 1/(1-p), the mask being the next site of
/// `masks` (nn/sample_groups.h); identity when `training` is false or p is 0,
/// which takes no site.
Tensor Dropout(const Tensor& x, float p, bool training, DropoutStream* masks);

/// --- Normalization -----------------------------------------------------------
/// Layer normalization over the last axis with learnable gain/bias
/// (both shaped [last_dim]).
Tensor LayerNormOp(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float eps = 1e-5f);

}  // namespace nn
}  // namespace dlinf

#endif  // DLINF_NN_OPS_H_
