#ifndef DLINF_STREAM_ONLINE_TRAINER_H_
#define DLINF_STREAM_ONLINE_TRAINER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "dlinfma/candidate_generation.h"
#include "dlinfma/dlinfma_method.h"
#include "dlinfma/inferrer.h"
#include "dlinfma/locmatcher.h"
#include "dlinfma/trainer.h"
#include "sim/world.h"

namespace dlinf {
namespace stream {

/// Publishes a trained pipeline as a DLAB bundle into `publish_dir` using
/// the hot-reload-safe protocol (DESIGN.md §13): the bundle is written into
/// a staging directory first, then its artifacts are renamed into place with
/// answers.art last — the one file apps::BundleManager reads and watches, so
/// a watcher never stages a torn or mixed push. The `stream.publish.fail`
/// fault point fails the publication deterministically; outcomes feed the
/// `stream.publish.{success,failures}` counters.
bool PublishBundle(const sim::World& world, const dlinfma::Dataset& data,
                   const dlinfma::SampleSet& samples,
                   const dlinfma::DlInfMaMethod& method,
                   const std::string& publish_dir, std::string* error);

/// Periodic incremental retraining over accumulated streamed samples
/// (DESIGN.md §13). Each Retrain round takes a CandidateIndexUpdater
/// snapshot, extracts features, trains a LocMatcher and (optionally)
/// publishes the resulting bundle:
///
///  - **Warm start**: rounds after the first initialize the model from the
///    previous round's parameters (optimizer state restarts fresh — the
///    sample set changed, so the PR 4 full-state resume contract does not
///    apply across rounds).
///  - **Crash safety within a round**: with a checkpoint path configured,
///    the PR 4 machinery (trainer checkpoint_sink -> io CKPT artifact)
///    runs inside every round; a round killed mid-training resumes
///    bit-identical via `resume` (valid because the round's sample set is
///    fixed), losing no accumulated samples.
///
/// Rounds with an empty train or validation split (early in a stream, the
/// spatial splits may not all be populated yet) are skipped and counted on
/// `stream.retrain.skipped`; completed rounds feed `stream.retrain.rounds`.
/// A round whose samples this model cannot train on (a POI category outside
/// its embedding) fails instead of aborting: it trains and publishes
/// nothing, keeps the previous round's model, and counts on
/// `stream.retrain.failures`.
class OnlineTrainer {
 public:
  struct Options {
    dlinfma::LocMatcherConfig model;
    dlinfma::TrainConfig train;  ///< Per-round budget (seed fixed per round).
    bool warm_start = true;
    /// Non-empty: write a CKPT artifact here every
    /// `checkpoint_every_epochs` epochs during each round.
    std::string checkpoint_path;
    int checkpoint_every_epochs = 0;
    /// Non-empty: publish a bundle after every completed round.
    std::string publish_dir;
  };

  struct RoundResult {
    int round = 0;        ///< 1-based index of this retrain round.
    bool trained = false; ///< False when the round was skipped or failed.
    std::string skip_reason;
    /// Why the round failed: its samples cannot train this model (a POI
    /// category outside the embedding). Empty otherwise.
    std::string error;
    dlinfma::TrainResult train;
    size_t train_samples = 0;
    size_t val_samples = 0;
    bool published = false;
    std::string publish_error;
  };

  explicit OnlineTrainer(const Options& options) : options_(options) {}

  /// Runs one retrain round over a candidate snapshot. `world` must contain
  /// the streamed trips backing the snapshot and outlives the call. Pass
  /// `resume` to continue a round that was killed mid-training (same
  /// accumulated snapshot; the trainer CHECKs the sample-count match).
  RoundResult Retrain(const sim::World& world,
                      dlinfma::CandidateGeneration generation,
                      const dlinfma::TrainCheckpoint* resume = nullptr);

  /// The most recently trained method; nullptr before the first completed
  /// round. Valid until the next Retrain call.
  const dlinfma::DlInfMaMethod* method() const { return method_.get(); }
  dlinfma::DlInfMaMethod* method() { return method_.get(); }

  int rounds_completed() const { return rounds_; }

 private:
  Options options_;
  int rounds_ = 0;
  std::string warm_params_;  ///< EncodeParameters blob of the last round.
  std::unique_ptr<dlinfma::DlInfMaMethod> method_;
};

}  // namespace stream
}  // namespace dlinf

#endif  // DLINF_STREAM_ONLINE_TRAINER_H_
