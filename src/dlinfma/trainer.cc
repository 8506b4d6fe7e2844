#include "dlinfma/trainer.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/check.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sample_groups.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/structured_log.h"
#include "obs/trace.h"
#include "obs/trace_log.h"

namespace dlinf {
namespace dlinfma {
namespace {

/// Snapshots the complete between-epoch training state (DESIGN.md §9).
/// `epochs_done` epochs have completed; the resumed run starts there.
TrainCheckpoint Capture(int epochs_done, const TrainConfig& config,
                        const std::vector<nn::Tensor>& params,
                        const nn::Adam& adam, const nn::HalvingSchedule& sched,
                        Rng& rng, const std::vector<int>& order,
                        double best_val, int epochs_without_improvement,
                        const std::vector<std::vector<float>>& best_params,
                        double final_train_loss) {
  TrainCheckpoint ck;
  ck.next_epoch = epochs_done;
  ck.seed = config.seed;
  ck.learning_rate = adam.learning_rate();
  ck.schedule_epoch = sched.epoch();
  nn::AdamState adam_state = adam.ExportState();
  ck.adam_step = adam_state.step;
  ck.adam_m = std::move(adam_state.m);
  ck.adam_v = std::move(adam_state.v);
  std::ostringstream engine_text;
  engine_text << rng.engine();
  ck.rng_state = engine_text.str();
  ck.best_val_loss = best_val;
  ck.epochs_without_improvement = epochs_without_improvement;
  ck.final_train_loss = final_train_loss;
  ck.sample_order.assign(order.begin(), order.end());
  ck.params.reserve(params.size());
  for (const nn::Tensor& p : params) ck.params.push_back(p.data());
  ck.best_params = best_params;
  return ck;
}

/// Samples per group of a training step (the last group of a step may be
/// smaller). Any size gives the same bytes; four samples make four groups
/// of a 16-sample step.
constexpr int kStepGroupSize = 4;

/// One optimizer step over `chunk`, run as groups of `group_size`
/// consecutive samples on the shared pool (DESIGN.md §9). Each group is
/// padded to the whole chunk's width, draws its dropout masks from one
/// stream over the chunk and writes the parameter gradients in turn, so the
/// step's bytes are those of one forward and backward over the whole chunk.
/// Returns the chunk's mean loss, rounded to float as a loss tensor is.
float TrainStep(const LocMatcher& model,
                const std::vector<const AddressSample*>& chunk,
                int group_size, const std::vector<nn::Tensor>& params,
                nn::Adam* adam, Rng* rng) {
  const int batch = static_cast<int>(chunk.size());
  int width = 0;
  for (const AddressSample* sample : chunk) {
    width = std::max(width, static_cast<int>(sample->features.size()));
  }
  const int num_groups = (batch + group_size - 1) / group_size;
  nn::DropoutStream masks(rng, batch);
  nn::GradTurns turns(params, num_groups);
  // Each group's graph lives until every group's parameter writes ran.
  std::vector<nn::Tensor> losses(num_groups);
  std::vector<std::vector<double>> nll(num_groups);
  adam->ZeroGrad();
  ThreadPool::Shared().ParallelFor(num_groups, [&](int64_t g) {
    const int begin = static_cast<int>(g) * group_size;
    const int end = std::min(batch, begin + group_size);
    const LocMatcherBatch rows = MakeLocMatcherBatch(
        {chunk.begin() + begin, chunk.begin() + end}, width);
    nn::DropoutStream row_masks = masks.Rows(begin, end);
    nn::GradTurns::Group group(&turns, static_cast<int>(g));
    losses[g] = nn::MaskedCrossEntropy(
        model.Forward(rows, nn::FwdCtx{/*training=*/true, &row_masks}),
        rows.valid, rows.labels, batch, &nll[g]);
    losses[g].Backward();
    // This thread's buffer pool takes the graph back, unless a write of the
    // group still waits for its turn.
    if (turns.QueuedWrites(static_cast<int>(g)) == 0) losses[g] = nn::Tensor();
  });
  adam->Step();
  double total = 0.0;
  for (const std::vector<double>& group_nll : nll) {
    for (double v : group_nll) total += v;
  }
  return static_cast<float>(total / batch);
}

}  // namespace

TrainResult TrainLocMatcher(LocMatcher* model,
                            const std::vector<AddressSample>& train,
                            const std::vector<AddressSample>& val,
                            const TrainConfig& config) {
  return internal::TrainLocMatcherInGroups(model, train, val, config,
                                           kStepGroupSize);
}

namespace internal {

TrainResult TrainLocMatcherInGroups(LocMatcher* model,
                                    const std::vector<AddressSample>& train,
                                    const std::vector<AddressSample>& val,
                                    const TrainConfig& config,
                                    int group_size) {
  CHECK(model != nullptr);
  CHECK_GE(group_size, 1);
  CHECK(!train.empty());
  CHECK(!val.empty());
  for (const AddressSample& sample : train) CHECK_GE(sample.label, 0);

  // Attribute this thread's samples/tracks to the trainer in profiles and
  // trace exports (idempotent; the CLI may already have named it "main").
  obs::prof::RegisterCurrentThread("trainer");
  // The whole run is one trace: epoch spans, checkpoint writes and the
  // train.epoch log lines below all correlate under its id.
  obs::TraceScope trace;
  obs::Span span("train_locmatcher");
  obs::Histogram* epoch_seconds =
      obs::MetricsRegistry::Global().GetHistogram("locmatcher.epoch_seconds");
  obs::Counter* epochs_run =
      obs::MetricsRegistry::Global().GetCounter("locmatcher.train_epochs");
  obs::Counter* ckpt_writes =
      obs::MetricsRegistry::Global().GetCounter("train.checkpoint.writes");
  obs::Counter* ckpt_failures =
      obs::MetricsRegistry::Global().GetCounter("train.checkpoint.failures");

  Stopwatch watch;
  Rng rng(config.seed);
  std::vector<nn::Tensor> params = model->Parameters();
  nn::Adam adam(params, config.learning_rate);
  nn::HalvingSchedule schedule(&adam, config.lr_halve_epochs);

  std::vector<int> order(train.size());
  std::iota(order.begin(), order.end(), 0);

  TrainResult result;
  double best_val = 1e30;
  int epochs_without_improvement = 0;
  std::vector<std::vector<float>> best_params;
  int start_epoch = 0;

  if (config.resume != nullptr) {
    // Restoring an incompatible checkpoint (wrong seed, wrong model shape,
    // wrong dataset size) is an upstream bug: callers validate user-supplied
    // checkpoints before handing them here (io/checkpoint.h decodes only
    // structurally sound files; the CLI cross-checks seed and shapes).
    const TrainCheckpoint& ck = *config.resume;
    CHECK_EQ(ck.seed, config.seed)
        << "checkpoint seed does not match the training config";
    CHECK_EQ(ck.params.size(), params.size());
    for (size_t i = 0; i < params.size(); ++i) {
      CHECK_EQ(ck.params[i].size(), params[i].data().size());
      params[i].data() = ck.params[i];
    }
    nn::AdamState adam_state;
    adam_state.step = ck.adam_step;
    adam_state.m = ck.adam_m;
    adam_state.v = ck.adam_v;
    CHECK(adam.RestoreState(adam_state))
        << "checkpoint optimizer state does not match the model";
    adam.set_learning_rate(ck.learning_rate);
    schedule.set_epoch(ck.schedule_epoch);
    std::istringstream engine_text(ck.rng_state);
    engine_text >> rng.engine();
    CHECK(!engine_text.fail()) << "corrupt RNG state in checkpoint";
    CHECK_EQ(ck.sample_order.size(), order.size())
        << "checkpoint was written for a different training set";
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<int>(ck.sample_order[i]);
    }
    best_val = ck.best_val_loss;
    epochs_without_improvement = ck.epochs_without_improvement;
    best_params = ck.best_params;
    result.final_train_loss = ck.final_train_loss;
    result.epochs_run = ck.next_epoch;
    start_epoch = ck.next_epoch;
    obs::MetricsRegistry::Global().GetCounter("train.resumes")->Add(1);
  }

  int last_checkpointed_epoch = start_epoch;
  auto emit_checkpoint = [&](int epochs_done) {
    if (config.checkpoint_every_epochs <= 0 || !config.checkpoint_sink) {
      return;
    }
    const TrainCheckpoint ck = Capture(
        epochs_done, config, params, adam, schedule, rng, order, best_val,
        epochs_without_improvement, best_params, result.final_train_loss);
    if (config.checkpoint_sink(ck)) {
      ckpt_writes->Add(1);
    } else {
      // A lost checkpoint only widens the replay window; the previous one
      // is still intact on disk (atomic temp+rename), so keep training.
      ckpt_failures->Add(1);
    }
    last_checkpointed_epoch = epochs_done;
  };

  for (int epoch = start_epoch; epoch < config.max_epochs; ++epoch) {
    // A resumed run whose checkpoint already exhausted the patience budget
    // must stop immediately, exactly as the uninterrupted run did.
    if (epochs_without_improvement >= config.early_stop_patience) break;
    obs::ScopedTimer epoch_timer(epoch_seconds);
    obs::TraceSpan epoch_span("train.epoch");
    Stopwatch epoch_watch;
    epochs_run->Add(1);
    rng.Shuffle(&order);
    // Chunk a length-sorted view of the shuffled order so no batch pads past
    // its own widest sample (candidate counts vary ~2-30; mixed batches pad
    // nearly everything to the epoch max, roughly doubling the attention
    // work). The stable sort keeps the shuffle's randomness within each
    // length, so batch composition still varies per epoch. Unlike the
    // inference-side bucketing (LocMatcher::ForEachLogitsBatch), this does
    // change which samples share a batch — a batching-policy change that
    // perturbs the SGD trajectory like any reshuffle, absorbed by the
    // golden pipeline test's tolerance band.
    std::vector<int> bucketed = order;
    std::stable_sort(bucketed.begin(), bucketed.end(), [&](int a, int b) {
      return train[a].features.size() > train[b].features.size();
    });
    double epoch_loss = 0.0;
    int num_batches = 0;
    for (size_t begin = 0; begin < bucketed.size();
         begin += static_cast<size_t>(config.batch_size)) {
      const size_t end = std::min(
          bucketed.size(), begin + static_cast<size_t>(config.batch_size));
      std::vector<const AddressSample*> chunk;
      for (size_t i = begin; i < end; ++i) chunk.push_back(&train[bucketed[i]]);
      epoch_loss += TrainStep(*model, chunk, group_size, params, &adam, &rng);
      ++num_batches;
    }
    schedule.OnEpochEnd();
    result.final_train_loss = epoch_loss / std::max(1, num_batches);

    const double val_loss = model->EvaluateLoss(val);
    if (config.verbose) {
      LOG_INFO << "epoch" << epoch << "train_loss" << result.final_train_loss
               << "val_loss" << val_loss << "lr" << adam.learning_rate();
    }
    obs::LogLine(obs::LogSeverity::kInfo, "train.epoch")
        .Int("epoch", epoch)
        .Num("train_loss", result.final_train_loss)
        .Num("val_loss", val_loss)
        .Num("lr", adam.learning_rate())
        .Num("epoch_seconds", epoch_watch.ElapsedSeconds());
    result.epochs_run = epoch + 1;
    if (val_loss < best_val - 1e-5) {
      best_val = val_loss;
      epochs_without_improvement = 0;
      best_params.clear();
      for (const nn::Tensor& p : params) best_params.push_back(p.data());
    } else {
      ++epochs_without_improvement;
    }

    if (config.checkpoint_every_epochs > 0 &&
        (epoch + 1) % config.checkpoint_every_epochs == 0) {
      emit_checkpoint(epoch + 1);
    }
  }

  // Terminal checkpoint: a finished run always leaves a resumable artifact
  // whose resume is a no-op (zero further epochs), so `--resume` after
  // normal completion reproduces the same model instead of retraining.
  if (last_checkpointed_epoch != result.epochs_run) {
    emit_checkpoint(result.epochs_run);
  }

  // Restore the best validation checkpoint.
  if (!best_params.empty()) {
    for (size_t i = 0; i < params.size(); ++i) {
      params[i].data() = best_params[i];
    }
  }
  result.best_val_loss = best_val;
  result.train_seconds = watch.ElapsedSeconds();
  obs::LogLine(obs::LogSeverity::kInfo, "train.done")
      .Int("epochs_run", result.epochs_run)
      .Num("final_train_loss", result.final_train_loss)
      .Num("best_val_loss", result.best_val_loss)
      .Num("train_seconds", result.train_seconds);
  return result;
}

}  // namespace internal
}  // namespace dlinfma
}  // namespace dlinf
