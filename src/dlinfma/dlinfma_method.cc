#include "dlinfma/dlinfma_method.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dlinf {
namespace dlinfma {

DlInfMaMethod::DlInfMaMethod(std::string name,
                             const LocMatcherConfig& model_config,
                             const TrainConfig& train_config,
                             int ensemble_size)
    : name_(std::move(name)),
      model_config_(model_config),
      train_config_(train_config),
      ensemble_size_(ensemble_size) {
  CHECK_GE(ensemble_size, 1);
}

void DlInfMaMethod::Fit(const Dataset& data, const SampleSet& samples) {
  (void)data;
  models_.clear();
  for (int k = 0; k < ensemble_size_; ++k) {
    TrainConfig config = train_config_;
    config.seed = train_config_.seed + 1000ull * static_cast<uint64_t>(k);
    if (k > 0) {
      // Checkpoint/resume state describes exactly one training run; the
      // extra ensemble members train from their own seeds and neither write
      // to nor resume from the member-0 checkpoint.
      config.checkpoint_every_epochs = 0;
      config.checkpoint_sink = nullptr;
      config.resume = nullptr;
    }
    Rng rng(config.seed);
    auto model = std::make_unique<LocMatcher>(model_config_, &rng);
    const TrainResult result =
        TrainLocMatcher(model.get(), samples.train, samples.val, config);
    if (k == 0) {
      train_result_ = result;
    } else {
      train_result_.train_seconds += result.train_seconds;
    }
    models_.push_back(std::move(model));
  }
}

std::string DlInfMaMethod::ExportParameters() const {
  if (models_.size() != 1) return std::string();
  return nn::EncodeParameters(models_.front()->Parameters());
}

bool DlInfMaMethod::RestoreModel(const std::string& parameter_blob) {
  if (ensemble_size_ != 1) return false;
  Rng rng(train_config_.seed);
  auto fresh = std::make_unique<LocMatcher>(model_config_, &rng);
  std::vector<nn::Tensor> params = fresh->Parameters();
  if (!nn::DecodeParameters(parameter_blob, &params)) return false;
  models_.clear();
  models_.push_back(std::move(fresh));
  return true;
}

std::vector<Point> DlInfMaMethod::InferAll(
    const Dataset& data, const std::vector<AddressSample>& samples) {
  return std::as_const(*this).InferAll(data, samples);
}

std::vector<Point> DlInfMaMethod::InferAll(
    const Dataset& data, const std::vector<AddressSample>& samples) const {
  CHECK(!models_.empty()) << "Fit must run before InferAll";
  obs::Span span("locmatcher_scoring");
  obs::MetricsRegistry::Global()
      .GetCounter("locmatcher.samples_scored")
      ->Add(static_cast<int64_t>(samples.size()));

  std::vector<int> indices;
  if (models_.size() == 1) {
    indices = models_.front()->PredictIndices(samples);
  } else {
    // Average per-candidate probabilities over the ensemble.
    std::vector<std::vector<double>> probs(samples.size());
    for (const auto& model : models_) {
      const std::vector<std::vector<float>> logits =
          model->PredictLogits(samples);
      for (size_t i = 0; i < samples.size(); ++i) {
        // Stable softmax over the valid prefix.
        float max_v = logits[i][0];
        for (float v : logits[i]) max_v = std::max(max_v, v);
        double denom = 0.0;
        std::vector<double> p(logits[i].size());
        for (size_t j = 0; j < logits[i].size(); ++j) {
          p[j] = std::exp(static_cast<double>(logits[i][j] - max_v));
          denom += p[j];
        }
        if (probs[i].empty()) probs[i].assign(logits[i].size(), 0.0);
        for (size_t j = 0; j < p.size(); ++j) probs[i][j] += p[j] / denom;
      }
    }
    indices.reserve(samples.size());
    for (const std::vector<double>& p : probs) {
      indices.push_back(static_cast<int>(
          std::max_element(p.begin(), p.end()) - p.begin()));
    }
  }

  std::vector<Point> locations;
  locations.reserve(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    const int64_t candidate_id = samples[i].candidate_ids[indices[i]];
    locations.push_back(data.gen->candidate(candidate_id).location);
  }
  return locations;
}

}  // namespace dlinfma
}  // namespace dlinf
