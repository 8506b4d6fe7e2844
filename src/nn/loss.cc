#include "nn/loss.h"

#include <cmath>

namespace dlinf {
namespace nn {

Tensor MaskedCrossEntropy(const Tensor& logits, const std::vector<int>& valid,
                          const std::vector<int>& labels) {
  return MaskedCrossEntropy(logits, valid, labels, logits.dim(0), nullptr);
}

Tensor MaskedCrossEntropy(const Tensor& logits, const std::vector<int>& valid,
                          const std::vector<int>& labels, int mean_over,
                          std::vector<double>* nll) {
  CHECK_EQ(logits.rank(), 2);
  const int batch = logits.dim(0);
  const int n = logits.dim(1);
  CHECK_EQ(static_cast<int>(valid.size()), batch);
  CHECK_EQ(static_cast<int>(labels.size()), batch);
  CHECK_GE(mean_over, batch);
  if (nll != nullptr) nll->clear();

  Tensor out = MakeResult({}, {logits});
  const std::vector<float>& lv = logits.data();
  // Cache the valid-prefix softmax for the backward pass.
  std::vector<float> probs(logits.numel(), 0.0f);
  double total = 0.0;
  for (int b = 0; b < batch; ++b) {
    const int nb = valid[b];
    CHECK(nb >= 1 && nb <= n);
    CHECK(labels[b] >= 0 && labels[b] < nb);
    const float* row = lv.data() + static_cast<int64_t>(b) * n;
    float* prow = probs.data() + static_cast<int64_t>(b) * n;
    float max_v = row[0];
    for (int j = 1; j < nb; ++j) max_v = std::max(max_v, row[j]);
    double denom = 0.0;
    for (int j = 0; j < nb; ++j) {
      prow[j] = std::exp(row[j] - max_v);
      denom += prow[j];
    }
    for (int j = 0; j < nb; ++j) prow[j] = static_cast<float>(prow[j] / denom);
    const double row_nll =
        -std::log(std::max(1e-12, static_cast<double>(prow[labels[b]])));
    total += row_nll;
    if (nll != nullptr) nll->push_back(row_nll);
  }
  out.data()[0] = static_cast<float>(total / mean_over);

  if (out.requires_grad()) {
    auto out_impl = out.impl();
    auto logits_impl = logits.impl();
    internal::TensorImpl* const self = out_impl.get();
    out_impl->backward_fn = [self, logits_impl, valid, labels, batch, n,
                             mean_over, probs = std::move(probs)]() {
      const float g = self->grad[0] / static_cast<float>(mean_over);
      for (int b = 0; b < batch; ++b) {
        float* grow = logits_impl->grad.data() + static_cast<int64_t>(b) * n;
        const float* prow = probs.data() + static_cast<int64_t>(b) * n;
        for (int j = 0; j < valid[b]; ++j) {
          grow[j] += g * (prow[j] - (j == labels[b] ? 1.0f : 0.0f));
        }
      }
    };
  }
  return out;
}

Tensor BceWithLogits(const Tensor& logits, const std::vector<float>& targets,
                     float pos_weight) {
  CHECK_EQ(logits.numel(), static_cast<int64_t>(targets.size()));
  CHECK_GT(pos_weight, 0.0f);
  const int64_t n = logits.numel();
  CHECK_GT(n, 0);

  Tensor out = MakeResult({}, {logits});
  const std::vector<float>& lv = logits.data();
  std::vector<float> sig(n);
  double total = 0.0;
  double weight_sum = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double s = 1.0 / (1.0 + std::exp(-static_cast<double>(lv[i])));
    sig[i] = static_cast<float>(s);
    const double t = targets[i];
    const double w = t * pos_weight + (1.0 - t);
    weight_sum += w;
    total += -w * (t * std::log(std::max(1e-12, s)) +
                   (1.0 - t) * std::log(std::max(1e-12, 1.0 - s)));
  }
  out.data()[0] = static_cast<float>(total / weight_sum);

  if (out.requires_grad()) {
    auto out_impl = out.impl();
    auto logits_impl = logits.impl();
    internal::TensorImpl* const self = out_impl.get();
    out_impl->backward_fn = [self, logits_impl, targets, pos_weight, n,
                             weight_sum, sig = std::move(sig)]() {
      const float g = self->grad[0] / static_cast<float>(weight_sum);
      for (int64_t i = 0; i < n; ++i) {
        const float t = targets[i];
        const float w = t * pos_weight + (1.0f - t);
        logits_impl->grad[i] += g * w * (sig[i] - t);
      }
    };
  }
  return out;
}

}  // namespace nn
}  // namespace dlinf
