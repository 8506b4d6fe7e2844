#include "stream/online_trainer.h"

#include <filesystem>
#include <system_error>
#include <utility>

#include "common/check.h"
#include "common/random.h"
#include "fault/fault.h"
#include "io/bundle.h"
#include "io/checkpoint.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/structured_log.h"
#include "obs/trace.h"

namespace dlinf {
namespace stream {

bool PublishBundle(const sim::World& world, const dlinfma::Dataset& data,
                   const dlinfma::SampleSet& samples,
                   const dlinfma::DlInfMaMethod& method,
                   const std::string& publish_dir, std::string* error) {
  obs::Span span("stream_publish");
  obs::Counter* failures =
      obs::MetricsRegistry::Global().GetCounter("stream.publish.failures");
  auto fail = [&](const std::string& why) {
    failures->Add(1);
    if (error != nullptr) *error = why;
    obs::LogLine(obs::LogSeverity::kWarn, "stream.publish")
        .Str("dir", publish_dir)
        .Str("error", why);
    return false;
  };

  if (fault::Hit("stream.publish.fail")) {
    return fail("injected publish failure (stream.publish.fail)");
  }

  // Stage the whole bundle beside the destination so the renames below are
  // same-filesystem (atomic) moves.
  const std::string staging = publish_dir + ".staging";
  std::error_code ec;
  std::filesystem::remove_all(staging, ec);
  std::string save_error;
  if (!io::SaveBundle(staging, world, data, samples, method, &save_error)) {
    std::filesystem::remove_all(staging, ec);
    return fail("staging save failed: " + save_error);
  }
  std::filesystem::create_directories(publish_dir, ec);
  if (ec) {
    std::filesystem::remove_all(staging, ec);
    return fail("cannot create publish dir " + publish_dir);
  }
  // In write order, answers.art last: serving reads and watches only that
  // one file, so a watcher that fires mid-publish sees either the previous
  // publish or this one, never a mix.
  for (const char* name : io::kBundleFiles) {
    std::filesystem::rename(staging + "/" + name, publish_dir + "/" + name,
                            ec);
    if (ec) {
      std::filesystem::remove_all(staging, ec);
      return fail(std::string("cannot move ") + name + " into " + publish_dir);
    }
  }
  std::filesystem::remove_all(staging, ec);
  obs::MetricsRegistry::Global().GetCounter("stream.publish.success")->Add(1);
  obs::LogLine(obs::LogSeverity::kInfo, "stream.publish")
      .Str("dir", publish_dir)
      .Int("addresses", static_cast<int64_t>(world.addresses.size()))
      .Int("candidates",
           static_cast<int64_t>(data.gen->candidates().size()));
  return true;
}

OnlineTrainer::RoundResult OnlineTrainer::Retrain(
    const sim::World& world, dlinfma::CandidateGeneration generation,
    const dlinfma::TrainCheckpoint* resume) {
  obs::Span span("stream_retrain");
  RoundResult result;
  result.round = rounds_ + 1;

  // Wrap the snapshot in a Dataset: no re-mining.
  const dlinfma::Dataset data =
      dlinfma::MakeDataset(world, std::move(generation));
  const dlinfma::SampleSet samples = dlinfma::ExtractSamples(data, {});
  result.train_samples = samples.train.size();
  result.val_samples = samples.val.size();
  if (samples.train.empty() || samples.val.empty()) {
    result.skip_reason = samples.train.empty()
                             ? "no labeled train samples yet"
                             : "no labeled val samples yet";
    obs::MetricsRegistry::Global()
        .GetCounter("stream.retrain.skipped")
        ->Add(1);
    obs::LogLine(obs::LogSeverity::kInfo, "stream.retrain")
        .Int("round", result.round)
        .Str("skipped", result.skip_reason);
    return result;
  }
  result.error = dlinfma::PoiCategoryError(samples, options_.model);
  if (!result.error.empty()) {
    obs::MetricsRegistry::Global()
        .GetCounter("stream.retrain.failures")
        ->Add(1);
    obs::LogLine(obs::LogSeverity::kWarn, "stream.retrain")
        .Int("round", result.round)
        .Str("error", result.error);
    return result;
  }

  dlinfma::TrainConfig config = options_.train;
  if (!options_.checkpoint_path.empty() &&
      options_.checkpoint_every_epochs > 0) {
    config.checkpoint_every_epochs = options_.checkpoint_every_epochs;
    const std::string path = options_.checkpoint_path;
    config.checkpoint_sink = [path](const dlinfma::TrainCheckpoint& ck) {
      return io::SaveCheckpointArtifact(ck, path);
    };
  }
  config.resume = resume;

  Rng rng(config.seed);
  dlinfma::LocMatcher model(options_.model, &rng);
  std::vector<nn::Tensor> params = model.Parameters();
  if (options_.warm_start && !warm_params_.empty() && resume == nullptr) {
    // Carry the previous round's parameters; the fresh optimizer/schedule
    // state is intentional (see class comment).
    CHECK(nn::DecodeParameters(warm_params_, &params))
        << "warm-start blob does not match the model configuration";
    obs::MetricsRegistry::Global()
        .GetCounter("stream.retrain.warm_starts")
        ->Add(1);
  }
  result.train =
      dlinfma::TrainLocMatcher(&model, samples.train, samples.val, config);
  warm_params_ = nn::EncodeParameters(model.Parameters());

  method_ = std::make_unique<dlinfma::DlInfMaMethod>(
      "DLInfMA-online", options_.model, options_.train);
  CHECK(method_->RestoreModel(warm_params_));
  ++rounds_;
  result.trained = true;
  obs::MetricsRegistry::Global().GetCounter("stream.retrain.rounds")->Add(1);
  obs::LogLine(obs::LogSeverity::kInfo, "stream.retrain")
      .Int("round", result.round)
      .Int("epochs", result.train.epochs_run)
      .Num("train_loss", result.train.final_train_loss)
      .Num("best_val_loss", result.train.best_val_loss)
      .Int("train_samples", static_cast<int64_t>(result.train_samples))
      .Int("val_samples", static_cast<int64_t>(result.val_samples));

  if (!options_.publish_dir.empty()) {
    result.published = PublishBundle(world, data, samples, *method_,
                                     options_.publish_dir,
                                     &result.publish_error);
  }
  return result;
}

}  // namespace stream
}  // namespace dlinf
