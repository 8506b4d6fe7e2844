#ifndef DLINF_DLINFMA_DLINFMA_METHOD_H_
#define DLINF_DLINFMA_DLINFMA_METHOD_H_

#include <memory>
#include <string>

#include "dlinfma/inferrer.h"
#include "dlinfma/locmatcher.h"
#include "dlinfma/trainer.h"

namespace dlinf {
namespace dlinfma {

/// The full DLInfMA method as an Inferrer: candidate generation + features
/// are supplied through the Dataset/SampleSet, this class owns the
/// LocMatcher model, its training, and candidate selection.
///
/// Variants (DLInfMA-PN, DLInfMA-nA, ...) are expressed through the model
/// config and/or the feature config of the SampleSet used to fit it.
class DlInfMaMethod : public Inferrer {
 public:
  /// `ensemble_size` > 1 trains that many LocMatchers from different seeds
  /// and averages their candidate probabilities at inference — a standard
  /// variance reducer for production deployments (not part of the paper's
  /// evaluation; Table II uses the default single model).
  explicit DlInfMaMethod(std::string name = "DLInfMA",
                         const LocMatcherConfig& model_config = {},
                         const TrainConfig& train_config = {},
                         int ensemble_size = 1);

  std::string name() const override { return name_; }

  /// Trains the model(s). Honors the TrainConfig's crash-safe checkpoint
  /// hooks (checkpoint_every_epochs / checkpoint_sink / resume, see
  /// trainer.h) for the first ensemble member only; extra members always
  /// train from scratch under their own derived seeds.
  void Fit(const Dataset& data, const SampleSet& samples) override;

  std::vector<Point> InferAll(
      const Dataset& data,
      const std::vector<AddressSample>& samples) override;
  /// The same answers from a const method (scoring changes no state); the
  /// bundle writer scores through it.
  std::vector<Point> InferAll(const Dataset& data,
                              const std::vector<AddressSample>& samples) const;

  const TrainResult& train_result() const { return train_result_; }

  /// The (first) trained model; nullptr before Fit/RestoreModel.
  LocMatcher* model() {
    return models_.empty() ? nullptr : models_.front().get();
  }
  int ensemble_size() const { return ensemble_size_; }
  const LocMatcherConfig& model_config() const { return model_config_; }
  const TrainConfig& train_config() const { return train_config_; }

  /// Whether the method can infer right now (Fit or RestoreModel ran).
  bool has_model() const { return !models_.empty(); }

  /// Serializes the trained model's parameters to an in-memory blob (see
  /// nn::EncodeParameters); empty on ensembles or before training. The
  /// artifact layer (src/io) embeds this blob in model artifacts.
  std::string ExportParameters() const;

  /// Warm-start path: replaces the model with a freshly constructed one and
  /// installs `parameter_blob` (an ExportParameters/nn::EncodeParameters
  /// blob). After success the method infers without Fit. Returns false on
  /// ensemble methods or any shape mismatch in the blob.
  bool RestoreModel(const std::string& parameter_blob);

 private:
  std::string name_;
  LocMatcherConfig model_config_;
  TrainConfig train_config_;
  int ensemble_size_;
  std::vector<std::unique_ptr<LocMatcher>> models_;
  TrainResult train_result_;
};

}  // namespace dlinfma
}  // namespace dlinf

#endif  // DLINF_DLINFMA_DLINFMA_METHOD_H_
