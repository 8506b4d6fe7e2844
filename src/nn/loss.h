#ifndef DLINF_NN_LOSS_H_
#define DLINF_NN_LOSS_H_

#include <cstdint>
#include <vector>

#include "nn/tensor.h"

namespace dlinf {
namespace nn {

/// Cross-entropy over variable-length candidate sets.
///
/// `logits` is [B, N] where row b scores the candidates of sample b; only the
/// first `valid[b]` positions are real candidates, the rest is padding.
/// `labels[b]` is the index of the positive candidate (< valid[b]).
/// Returns the mean over the batch of -log softmax(logits_b)[label_b], with
/// the softmax normalized over the valid prefix only — exactly the training
/// objective of LocMatcher (Eq. 4 + cross-entropy).
Tensor MaskedCrossEntropy(const Tensor& logits, const std::vector<int>& valid,
                          const std::vector<int>& labels);

/// The same loss for a group of rows of a larger batch of `mean_over`
/// samples: the result and its gradient are those of the rows' part of the
/// batch mean (sum / mean_over). `nll`, when non-null, receives each row's
/// -log p, for a caller that sums every group's rows in sample order — the
/// double sum the whole batch's loss divides.
Tensor MaskedCrossEntropy(const Tensor& logits, const std::vector<int>& valid,
                          const std::vector<int>& labels, int mean_over,
                          std::vector<double>* nll);

/// Mean binary cross-entropy with logits; `targets[i]` in {0, 1} (or soft).
/// `pos_weight` scales the loss of positive targets, implementing the 8:2
/// class weighting the paper applies to the classification variants.
Tensor BceWithLogits(const Tensor& logits, const std::vector<float>& targets,
                     float pos_weight = 1.0f);

}  // namespace nn
}  // namespace dlinf

#endif  // DLINF_NN_LOSS_H_
