#ifndef DLINF_DLINFMA_TRAINER_H_
#define DLINF_DLINFMA_TRAINER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dlinfma/features.h"
#include "dlinfma/locmatcher.h"

namespace dlinf {
namespace dlinfma {

/// Complete resumable state of a training run at an epoch boundary —
/// everything TrainLocMatcher mutates between epochs, captured so that a run
/// killed at any checkpointed boundary finishes **bit-identical** to an
/// uninterrupted run (DESIGN.md §9):
///
///  - the model parameters and the Adam first/second moments + step count,
///  - the HalvingSchedule epoch and the current learning rate,
///  - the exact Mt19937_64 engine state driving shuffles and dropout,
///  - the best-validation snapshot with its loss and early-stop counters.
///
/// The struct itself is I/O-free; src/io/checkpoint.h persists it as a
/// checksummed CKPT artifact.
struct TrainCheckpoint {
  /// The epoch the resumed run executes first (== epochs completed so far).
  int32_t next_epoch = 0;
  uint64_t seed = 0;  ///< TrainConfig::seed; resume rejects a mismatch.

  float learning_rate = 0.0f;    ///< Current (possibly halved) rate.
  int32_t schedule_epoch = 0;    ///< HalvingSchedule::epoch().
  int64_t adam_step = 0;         ///< Adam t.
  /// The Rng's Mt19937_64 state in std::mt19937_64's operator<< text form:
  /// 312 state words then the position in [0, 312], space-separated, so
  /// strings written by either engine load into the other. Restored
  /// bit-exactly via operator>>; io::LoadCheckpointArtifact refuses any
  /// string that does not parse as exactly one such state.
  std::string rng_state;

  double best_val_loss = 1e30;
  int32_t epochs_without_improvement = 0;
  double final_train_loss = 0.0;

  /// The cumulative shuffle permutation over training samples. The trainer
  /// shuffles in place epoch over epoch, so the permutation at a boundary is
  /// part of the state the next epoch's batches depend on.
  std::vector<int64_t> sample_order;

  std::vector<std::vector<float>> params;       ///< Live model parameters.
  std::vector<std::vector<float>> adam_m;       ///< First moments.
  std::vector<std::vector<float>> adam_v;       ///< Second moments.
  /// Best-validation parameter snapshot; empty while no epoch improved.
  std::vector<std::vector<float>> best_params;
};

/// Training configuration for LocMatcher.
///
/// The paper trains with Adam (beta1=0.9, beta2=0.999), batch size 16, a
/// learning rate of 1e-4 halved every 5 epochs, stopping when validation
/// loss no longer decreases. With the scaled-down synthetic datasets (two
/// orders of magnitude fewer gradient steps per epoch than JD-scale data)
/// the same schedule under-trains, so the defaults keep the optimizer /
/// batch size / halving schedule / early stopping but use a proportionally
/// larger base rate; EXPERIMENTS.md documents this substitution.
struct TrainConfig {
  float learning_rate = 2e-3f;
  int batch_size = 16;
  int lr_halve_epochs = 12;
  int max_epochs = 150;
  int early_stop_patience = 15;
  uint64_t seed = 7;
  bool verbose = false;

  /// --- Crash-safe checkpointing (DESIGN.md §9) ----------------------------
  /// When > 0, `checkpoint_sink` is invoked with a full TrainCheckpoint
  /// every this many completed epochs (and once more after the final epoch,
  /// so a finished run always leaves a terminal checkpoint). 0 disables.
  int checkpoint_every_epochs = 0;
  /// Receives each checkpoint; returns false on write failure. A failed
  /// write never aborts training — it is counted on
  /// `train.checkpoint.failures` and training continues (the previous
  /// checkpoint stays valid on disk thanks to atomic temp+rename).
  std::function<bool(const TrainCheckpoint&)> checkpoint_sink;
  /// Non-null resumes from this state instead of starting at epoch 0. The
  /// checkpoint's seed and parameter shapes must match (CHECKed): resuming
  /// an incompatible run is a programming error upstream — the CLI validates
  /// user input before getting here.
  const TrainCheckpoint* resume = nullptr;
};

struct TrainResult {
  int epochs_run = 0;
  double best_val_loss = 0.0;
  double final_train_loss = 0.0;
  double train_seconds = 0.0;
};

/// Trains the model in place with masked cross-entropy over candidate sets,
/// restoring the best-validation-loss parameters before returning.
/// All samples must carry labels.
///
/// With `config.resume` set, training continues from the checkpointed epoch
/// with the exact optimizer/schedule/RNG state, so (same data, same config)
/// the final model is bit-identical to a run that was never interrupted.
TrainResult TrainLocMatcher(LocMatcher* model,
                            const std::vector<AddressSample>& train,
                            const std::vector<AddressSample>& val,
                            const TrainConfig& config);

namespace internal {

/// TrainLocMatcher with each step's samples run as groups of `group_size`
/// consecutive samples (the last group may be smaller; a size of at least
/// the batch size runs each step as one group). The size never changes a
/// byte of the result (DESIGN.md §9); TrainLocMatcher uses 4, and tests
/// compare sizes through this.
TrainResult TrainLocMatcherInGroups(LocMatcher* model,
                                    const std::vector<AddressSample>& train,
                                    const std::vector<AddressSample>& val,
                                    const TrainConfig& config,
                                    int group_size);

}  // namespace internal
}  // namespace dlinfma
}  // namespace dlinf

#endif  // DLINF_DLINFMA_TRAINER_H_
