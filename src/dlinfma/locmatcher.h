#ifndef DLINF_DLINFMA_LOCMATCHER_H_
#define DLINF_DLINFMA_LOCMATCHER_H_

#include <functional>
#include <memory>
#include <vector>

#include "dlinfma/features.h"
#include "nn/module.h"

namespace dlinf {
namespace dlinfma {

/// Hyper-parameters of LocMatcher, following the paper's values
/// (Section V-B "Training Details & Hyperparameters"): POI embedding in R^3,
/// r = 3, p = 32, 3 transformer layers with 2 heads and 32 dense units,
/// dropout 0.1. One deliberate deviation: the paper uses z = 8, which
/// severely underfits on the scaled-down synthetic datasets (the candidate
/// embedding must compress 5 scalar features + the r-dim time embedding);
/// z = 16 restores the paper's relative ordering and is the default here
/// (EXPERIMENTS.md discusses the calibration).
struct LocMatcherConfig {
  int time_bins = 24;
  int time_dense_dim = 3;  ///< r: dense projection of the time distribution.
  int model_dim = 16;      ///< z: candidate embedding width (paper: 8).
  int score_dim = 32;      ///< p: attention scoring width (Eq. 3).
  int poi_embed_dim = 3;
  int num_poi_categories = 21;
  int num_layers = 3;
  int num_heads = 2;
  int ff_dim = 32;
  float dropout = 0.1f;

  /// false implements DLInfMA-nA: drop the U*c address-context term of Eq. 3.
  bool use_address_context = true;

  /// kLstm implements DLInfMA-PN (pointer-network-style LSTM encoder [18]
  /// instead of the transformer).
  enum class EncoderKind { kTransformer, kLstm };
  EncoderKind encoder = EncoderKind::kTransformer;
  int lstm_hidden = 32;  ///< Paper: the PN variant's LSTM has 32 units.
};

/// A padded mini-batch of address samples ready for the network.
struct LocMatcherBatch {
  nn::Tensor scalar_features;  ///< [B, N, 5] (TC, LC, dist, dur, couriers).
  nn::Tensor time_dist;        ///< [B, N, 24].
  std::vector<int> poi;        ///< [B] POI category ids.
  nn::Tensor num_deliveries;   ///< [B, 1] log(1+deliveries).
  std::vector<int> valid;      ///< [B] real candidate counts (<= N).
  std::vector<int> labels;     ///< [B] positive indexes; -1 when unlabeled.
};

/// Packs samples into a batch padded to `width` candidates (0: the widest
/// sample's count; otherwise at least that). All samples must be non-empty.
LocMatcherBatch MakeLocMatcherBatch(
    const std::vector<const AddressSample*>& samples, int width = 0);

/// The attention-based address-location matching model (Section IV-B,
/// Figure 8): per-candidate feature encoding, a transformer encoder that
/// models correlations *jointly across all candidates of an address*, and an
/// additive-attention scorer conditioned on the address context vector:
///
///   s_k = v^T tanh(W z_k + U c + b)           (Eq. 3)
///   p_k = softmax_k(s_k)                      (Eq. 4)
class LocMatcher : public nn::Module {
 public:
  LocMatcher(const LocMatcherConfig& config, Rng* rng);

  /// Returns logits [B, N]; apply softmax over the valid prefix (the
  /// masked cross-entropy loss and PredictIndices do this internally).
  nn::Tensor Forward(const LocMatcherBatch& batch, const nn::FwdCtx& ctx) const;

  /// Argmax candidate index for each sample (batched, eval mode).
  std::vector<int> PredictIndices(const std::vector<AddressSample>& samples,
                                  int batch_size = 64) const;

  /// Valid-prefix logits for each sample (length = its candidate count);
  /// used for ensembling and calibration analyses.
  std::vector<std::vector<float>> PredictLogits(
      const std::vector<AddressSample>& samples, int batch_size = 64) const;

  /// Mean masked cross-entropy over `samples` (labels required); eval mode.
  double EvaluateLoss(const std::vector<AddressSample>& samples,
                      int batch_size = 64) const;

  const LocMatcherConfig& config() const { return config_; }

 private:
  /// One batch of scored samples as ForEachLogitsBatch hands it over.
  struct LogitsBatch {
    /// [B, N]: row i's first valid[i] entries are sample indices[i]'s
    /// logits; the rest of the row is 0.
    nn::Tensor logits;
    std::vector<int> valid;
    std::vector<int> labels;
    /// indices[i] = the position in `samples` of row i.
    std::vector<size_t> indices;
  };

  /// Shared batched-inference driver behind PredictIndices / PredictLogits /
  /// EvaluateLoss. Samples are ordered by descending candidate count and
  /// cut into `batch_size` batches; `fn` sees each batch in order on the
  /// calling thread.
  ///
  /// The forward itself runs on ThreadPool::Shared() in chunks of at most
  /// 16 samples of that order, each padded only to its own widest sample,
  /// under nn::NoGradGuard (no tape, no gradient buffers), and each sample's
  /// logits are scattered into its batch. Per-sample logits are invariant to
  /// both padding width and batch mates: positions never mix outside
  /// self-attention, and a padded key's -1e9 additive mask drives its
  /// softmax weight to exactly zero (exp underflow). So the chunking is a
  /// pure speedup with bit-identical results, and so is the pool: no chunk
  /// reads another's state. Small chunks keep the pool busy even when the
  /// widest samples would make one batch dominate.
  void ForEachLogitsBatch(
      const std::vector<AddressSample>& samples, int batch_size,
      const std::function<void(const LogitsBatch&)>& fn) const;

  LocMatcherConfig config_;
  nn::Linear time_dense_;
  nn::Linear input_dense_;
  std::unique_ptr<nn::TransformerEncoder> transformer_;
  std::unique_ptr<nn::Lstm> lstm_;
  std::unique_ptr<nn::Linear> lstm_proj_;  ///< LSTM hidden -> z.
  nn::Embedding poi_embed_;
  nn::Linear score_w_;  ///< W (+ b) of Eq. 3: z -> p.
  nn::Linear score_u_;  ///< U of Eq. 3: m -> p, no bias.
  nn::Linear score_v_;  ///< v of Eq. 3: p -> 1, no bias.
};

}  // namespace dlinfma
}  // namespace dlinf

#endif  // DLINF_DLINFMA_LOCMATCHER_H_
