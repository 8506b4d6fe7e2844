#ifndef DLINF_NN_MODULE_H_
#define DLINF_NN_MODULE_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "nn/ops.h"
#include "nn/sample_groups.h"
#include "nn/tensor.h"

namespace dlinf {
namespace nn {

/// Per-forward-call context: training mode toggles dropout, whose masks come
/// from `dropout` (one reader per forward; nn/sample_groups.h). Inference
/// uses the default (eval mode).
struct FwdCtx {
  bool training = false;
  DropoutStream* dropout = nullptr;
};

/// Base class for parameterized network components.
///
/// Subclasses register their own tensors with AddParameter and nested
/// modules with AddChild; Parameters() then yields every trainable tensor in
/// the subtree, which is what optimizers and the save/load functions consume.
class Module {
 public:
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable tensors of this module and its descendants, in a stable
  /// registration order.
  std::vector<Tensor> Parameters() const;

  /// Total scalar parameter count (for logging / sanity checks).
  int64_t NumParameters() const;

 protected:
  Module() = default;

  Tensor AddParameter(Tensor parameter);
  void AddChild(Module* child);

 private:
  std::vector<Tensor> own_parameters_;
  std::vector<Module*> children_;
};

/// Fully connected layer: y = x @ w + b, acting on the last axis.
class Linear : public Module {
 public:
  /// Glorot-uniform weight init; zero bias. `bias` = false omits the bias
  /// (used for the attention score projection v in Eq. 3 of the paper).
  Linear(int in_features, int out_features, Rng* rng, bool bias = true);

  /// `x` is [..., in_features]; result is [..., out_features]. Runs as one
  /// fused LinearEx node; `act` folds a ReLU into the GEMM epilogue.
  Tensor Forward(const Tensor& x, Activation act = Activation::kNone) const;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }
  const Tensor& weight() const { return weight_; }
  /// Undefined when constructed with bias = false.
  const Tensor& bias() const { return bias_; }

 private:
  int in_features_;
  int out_features_;
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [out] or undefined.
};

/// Lookup table mapping categorical ids to dense vectors (POI category
/// embedding in LocMatcher).
class Embedding : public Module {
 public:
  Embedding(int vocab_size, int embed_dim, Rng* rng);

  /// Result is [indices.size(), embed_dim].
  Tensor Forward(const std::vector<int>& indices) const;

  int embed_dim() const { return embed_dim_; }

 private:
  int embed_dim_;
  Tensor table_;
};

/// Layer normalization over the last axis with learnable gain and bias.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int features);

  Tensor Forward(const Tensor& x) const;

 private:
  Tensor gamma_;
  Tensor beta_;
};

/// Multi-head self-attention over a set of candidate embeddings.
///
/// Since candidates are a *set*, no positional encoding is used (the paper
/// notes there is no temporal dependency among location candidates).
class MultiHeadSelfAttention : public Module {
 public:
  /// `model_dim` must be divisible by `num_heads`.
  MultiHeadSelfAttention(int model_dim, int num_heads, float dropout,
                         Rng* rng);

  /// `x` is [B, N, model_dim]. `additive_mask` (optional, may be undefined)
  /// is broadcastable to [B, H, N, N] with large negative entries at padded
  /// key positions — build it with MakePaddingMask below.
  Tensor Forward(const Tensor& x, const Tensor& additive_mask,
                 const FwdCtx& ctx) const;

 private:
  int model_dim_;
  int num_heads_;
  int head_dim_;
  float dropout_;
  Linear wq_, wk_, wv_, wo_;
};

/// Builds a [B, 1, 1, N] additive attention mask from per-sample valid
/// lengths: 0 at real positions, -1e9 at padding.
Tensor MakePaddingMask(const std::vector<int>& valid, int n);

/// One post-LN transformer encoder layer: self-attention and a position-wise
/// feed-forward network, each wrapped in residual + layer norm (Section IV-B).
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(int model_dim, int num_heads, int ff_dim,
                          float dropout, Rng* rng);

  Tensor Forward(const Tensor& x, const Tensor& additive_mask,
                 const FwdCtx& ctx) const;

 private:
  float dropout_;
  MultiHeadSelfAttention attention_;
  Linear ff1_, ff2_;
  LayerNorm norm1_, norm2_;
};

/// A stack of encoder layers (N = 3, 2 heads, 32-unit FF in the paper).
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(int num_layers, int model_dim, int num_heads, int ff_dim,
                     float dropout, Rng* rng);

  Tensor Forward(const Tensor& x, const Tensor& additive_mask,
                 const FwdCtx& ctx) const;

 private:
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
};

/// Single-layer LSTM used by the DLInfMA-PN variant (pointer-network style
/// encoder, replacing the transformer as in [18]).
class Lstm : public Module {
 public:
  Lstm(int input_dim, int hidden_dim, Rng* rng);

  /// `x` is [B, N, input_dim]; returns the hidden state sequence
  /// [B, N, hidden_dim]. Zero initial state.
  Tensor Forward(const Tensor& x) const;

  int hidden_dim() const { return hidden_dim_; }

 private:
  int input_dim_;
  int hidden_dim_;
  Tensor w_ih_;  // [input, 4*hidden], gate order: i, f, g, o.
  Tensor w_hh_;  // [hidden, 4*hidden]
  Tensor bias_;  // [4*hidden]
};

/// Plain multi-layer perceptron with ReLU activations between layers (used
/// by DLInfMA-MLP and DLInfMA-RkNet: one hidden layer of 16 units).
class Mlp : public Module {
 public:
  /// `dims` = {in, hidden..., out}; at least {in, out}.
  Mlp(const std::vector<int>& dims, Rng* rng);

  Tensor Forward(const Tensor& x) const;

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
};

}  // namespace nn
}  // namespace dlinf

#endif  // DLINF_NN_MODULE_H_
