#include "nn/module.h"

#include <cmath>

#include "nn/ops.h"

namespace dlinf {
namespace nn {

std::vector<Tensor> Module::Parameters() const {
  std::vector<Tensor> all = own_parameters_;
  for (const Module* child : children_) {
    const std::vector<Tensor> child_params = child->Parameters();
    all.insert(all.end(), child_params.begin(), child_params.end());
  }
  return all;
}

int64_t Module::NumParameters() const {
  int64_t total = 0;
  for (const Tensor& p : Parameters()) total += p.numel();
  return total;
}

Tensor Module::AddParameter(Tensor parameter) {
  CHECK(parameter.defined());
  CHECK(parameter.requires_grad());
  own_parameters_.push_back(parameter);
  return parameter;
}

void Module::AddChild(Module* child) {
  CHECK(child != nullptr);
  children_.push_back(child);
}

Linear::Linear(int in_features, int out_features, Rng* rng, bool bias)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = AddParameter(Tensor::GlorotUniform(in_features, out_features, rng));
  if (bias) {
    bias_ = AddParameter(
        Tensor::Zeros({out_features}, /*requires_grad=*/true));
  }
}

Tensor Linear::Forward(const Tensor& x, Activation act) const {
  CHECK_EQ(x.dim(x.rank() - 1), in_features_);
  return LinearEx(x, weight_, bias_, act);
}

Embedding::Embedding(int vocab_size, int embed_dim, Rng* rng)
    : embed_dim_(embed_dim) {
  // Small uniform init, as is conventional for embedding tables.
  table_ = AddParameter(Tensor::RandomUniform(
      {vocab_size, embed_dim}, -0.05f, 0.05f, rng, /*requires_grad=*/true));
}

Tensor Embedding::Forward(const std::vector<int>& indices) const {
  return EmbeddingLookup(table_, indices);
}

LayerNorm::LayerNorm(int features) {
  gamma_ = AddParameter(Tensor::Full({features}, 1.0f, /*requires_grad=*/true));
  beta_ = AddParameter(Tensor::Zeros({features}, /*requires_grad=*/true));
}

Tensor LayerNorm::Forward(const Tensor& x) const {
  return LayerNormOp(x, gamma_, beta_);
}

MultiHeadSelfAttention::MultiHeadSelfAttention(int model_dim, int num_heads,
                                               float dropout, Rng* rng)
    : model_dim_(model_dim),
      num_heads_(num_heads),
      head_dim_(model_dim / num_heads),
      dropout_(dropout),
      wq_(model_dim, model_dim, rng),
      wk_(model_dim, model_dim, rng),
      wv_(model_dim, model_dim, rng),
      wo_(model_dim, model_dim, rng) {
  CHECK_EQ(head_dim_ * num_heads, model_dim)
      << "model_dim must be divisible by num_heads";
  AddChild(&wq_);
  AddChild(&wk_);
  AddChild(&wv_);
  AddChild(&wo_);
}

Tensor MakePaddingMask(const std::vector<int>& valid, int n) {
  const int batch = static_cast<int>(valid.size());
  std::vector<float> mask(static_cast<size_t>(batch) * n, 0.0f);
  for (int b = 0; b < batch; ++b) {
    CHECK(valid[b] >= 1 && valid[b] <= n);
    for (int j = valid[b]; j < n; ++j) {
      mask[static_cast<size_t>(b) * n + j] = -1e9f;
    }
  }
  return Tensor::FromVector({batch, 1, 1, n}, std::move(mask));
}

Tensor MultiHeadSelfAttention::Forward(const Tensor& x,
                                       const Tensor& additive_mask,
                                       const FwdCtx& ctx) const {
  CHECK_EQ(x.rank(), 3);
  CHECK_EQ(x.dim(2), model_dim_);
  // Whole block — projections, score/softmax/weighted-sum per head, output
  // projection — as one fused autograd node over kernel-layer GEMMs; no
  // split/merge-head Permute copies and no [B,H,N,N] intermediate tensors.
  return FusedSelfAttention(x, wq_.weight(), wq_.bias(), wk_.weight(),
                            wk_.bias(), wv_.weight(), wv_.bias(), wo_.weight(),
                            wo_.bias(), additive_mask, num_heads_, dropout_,
                            ctx.training, ctx.dropout);
}

TransformerEncoderLayer::TransformerEncoderLayer(int model_dim, int num_heads,
                                                 int ff_dim, float dropout,
                                                 Rng* rng)
    : dropout_(dropout),
      attention_(model_dim, num_heads, dropout, rng),
      ff1_(model_dim, ff_dim, rng),
      ff2_(ff_dim, model_dim, rng),
      norm1_(model_dim),
      norm2_(model_dim) {
  AddChild(&attention_);
  AddChild(&ff1_);
  AddChild(&ff2_);
  AddChild(&norm1_);
  AddChild(&norm2_);
}

Tensor TransformerEncoderLayer::Forward(const Tensor& x,
                                        const Tensor& additive_mask,
                                        const FwdCtx& ctx) const {
  Tensor attn_out = attention_.Forward(x, additive_mask, ctx);
  attn_out = Dropout(attn_out, dropout_, ctx.training, ctx.dropout);
  Tensor h = norm1_.Forward(Add(x, attn_out));

  Tensor ff_out = ff2_.Forward(ff1_.Forward(h, Activation::kRelu));
  ff_out = Dropout(ff_out, dropout_, ctx.training, ctx.dropout);
  return norm2_.Forward(Add(h, ff_out));
}

TransformerEncoder::TransformerEncoder(int num_layers, int model_dim,
                                       int num_heads, int ff_dim,
                                       float dropout, Rng* rng) {
  CHECK_GE(num_layers, 1);
  for (int i = 0; i < num_layers; ++i) {
    layers_.push_back(std::make_unique<TransformerEncoderLayer>(
        model_dim, num_heads, ff_dim, dropout, rng));
    AddChild(layers_.back().get());
  }
}

Tensor TransformerEncoder::Forward(const Tensor& x,
                                   const Tensor& additive_mask,
                                   const FwdCtx& ctx) const {
  Tensor h = x;
  for (const auto& layer : layers_) {
    h = layer->Forward(h, additive_mask, ctx);
  }
  return h;
}

Lstm::Lstm(int input_dim, int hidden_dim, Rng* rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  w_ih_ = AddParameter(Tensor::GlorotUniform(input_dim, 4 * hidden_dim, rng));
  w_hh_ = AddParameter(Tensor::GlorotUniform(hidden_dim, 4 * hidden_dim, rng));
  bias_ = AddParameter(Tensor::Zeros({4 * hidden_dim}, /*requires_grad=*/true));
}

Tensor Lstm::Forward(const Tensor& x) const {
  CHECK_EQ(x.rank(), 3);
  const int batch = x.dim(0);
  const int steps = x.dim(1);
  CHECK_EQ(x.dim(2), input_dim_);

  Tensor h = Tensor::Zeros({batch, hidden_dim_});
  Tensor c = Tensor::Zeros({batch, hidden_dim_});
  std::vector<Tensor> outputs;
  outputs.reserve(steps);
  for (int t = 0; t < steps; ++t) {
    const Tensor x_t =
        Reshape(SliceAxis(x, 1, t, 1), {batch, input_dim_});
    Tensor gates = Add(Add(MatMul(x_t, w_ih_), MatMul(h, w_hh_)), bias_);
    const Tensor i_gate =
        Sigmoid(SliceAxis(gates, 1, 0, hidden_dim_));
    const Tensor f_gate =
        Sigmoid(SliceAxis(gates, 1, hidden_dim_, hidden_dim_));
    const Tensor g_gate =
        Tanh(SliceAxis(gates, 1, 2 * hidden_dim_, hidden_dim_));
    const Tensor o_gate =
        Sigmoid(SliceAxis(gates, 1, 3 * hidden_dim_, hidden_dim_));
    c = Add(Mul(f_gate, c), Mul(i_gate, g_gate));
    h = Mul(o_gate, Tanh(c));
    outputs.push_back(Reshape(h, {batch, 1, hidden_dim_}));
  }
  return Concat(outputs, /*axis=*/1);
}

Mlp::Mlp(const std::vector<int>& dims, Rng* rng) {
  CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
    AddChild(layers_.back().get());
  }
}

Tensor Mlp::Forward(const Tensor& x) const {
  Tensor h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool hidden = i + 1 < layers_.size();
    h = layers_[i]->Forward(h,
                            hidden ? Activation::kRelu : Activation::kNone);
  }
  return h;
}

}  // namespace nn
}  // namespace dlinf
