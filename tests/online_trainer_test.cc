// Online learning loop (src/stream/online_trainer.h): streamed ingest →
// periodic retrain → bundle publication must (1) land within a golden
// tolerance of the batch pipeline on the same world, (2) round-trip through
// the hot-reload path with a clean swap, and (3) survive a mid-round kill —
// resuming from the CKPT artifact finishes bit-identical to an
// uninterrupted round with no accumulated sample lost.

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/bundle_manager.h"
#include "apps/location_service.h"
#include "dlinfma/candidate_generation.h"
#include "dlinfma/dlinfma_method.h"
#include "dlinfma/inferrer.h"
#include "dlinfma/trainer.h"
#include "geo/point.h"
#include "gtest/gtest.h"
#include "io/bundle.h"
#include "io/checkpoint.h"
#include "obs/metrics.h"
#include "scratch_dir.h"
#include "sim/generator.h"
#include "sim/world.h"
#include "stream/online_trainer.h"
#include "stream/stream_pipeline.h"

namespace dlinf {
namespace {

using ::testing::TempDir;

// Pid-suffixed scratch dir, removed at exit: parallel ctest invocations of
// this binary must not clobber each other's bundle/checkpoint fixtures.
std::string StreamPath(const std::string& name) {
  static const ScopedTempDir dir("online_trainer_test");
  return dir.Child(name);
}

// One shared fixed-seed world: deterministic, small enough that a quick
// training round stays in the tens-of-milliseconds range.
const sim::World& FixedWorld() {
  static const sim::World* world = [] {
    sim::SimConfig config = sim::SynDowBJConfig();
    config.num_days = 2;
    config.num_communities = 5;
    return new sim::World(sim::GenerateWorld(config));
  }();
  return *world;
}

// Per-round budget for every trainer in this file: small but long enough to
// leave room for a mid-round checkpoint boundary.
dlinfma::TrainConfig QuickTrain() {
  dlinfma::TrainConfig config;
  config.max_epochs = 8;
  config.early_stop_patience = 8;
  return config;
}

// Replays every recorded trip of `world` through the streaming front end.
std::unique_ptr<stream::StreamIngestor> IngestAll(const sim::World& world) {
  auto ingestor = std::make_unique<stream::StreamIngestor>(
      world, dlinfma::CandidateGeneration::Options{});
  for (const sim::DeliveryTrip& trip : world.trips) {
    ingestor->ReplayTrip(trip);
  }
  return ingestor;
}

double MeanError(const std::vector<Point>& predicted,
                 const std::vector<Point>& truth) {
  EXPECT_EQ(predicted.size(), truth.size());
  EXPECT_FALSE(predicted.empty());
  double total = 0.0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    total += Distance(predicted[i], truth[i]);
  }
  return total / static_cast<double>(predicted.size());
}

// --- Equivalence against the batch pipeline --------------------------------

// Stream-ingesting the whole world and retraining online must land within a
// golden tolerance of the batch pipeline trained on the same world with the
// same budget: the stay points are bit-identical (stream_test.cc), cluster
// *identity* may differ (insertion-order greedy vs closest-pair), so the
// end-to-end contract is test-split accuracy, not parameter equality.
TEST(OnlineTrainerTest, StreamedRetrainMatchesBatchWithinGoldenTolerance) {
  const sim::World& world = FixedWorld();

  // Batch reference: mine, extract, train, score the test split.
  dlinfma::Dataset batch_data = dlinfma::BuildDataset(world, {});
  const dlinfma::SampleSet batch_samples =
      dlinfma::ExtractSamples(batch_data, {});
  ASSERT_FALSE(batch_samples.test.empty());
  dlinfma::DlInfMaMethod batch_method("DLInfMA", {}, QuickTrain());
  batch_method.Fit(batch_data, batch_samples);
  const double batch_error =
      MeanError(batch_method.InferAll(batch_data, batch_samples.test),
                dlinfma::GroundTruthOf(world, batch_samples.test));

  // Streamed: replay point-at-a-time, retrain over the incremental index.
  auto ingestor = IngestAll(world);
  stream::OnlineTrainer::Options options;
  options.train = QuickTrain();
  stream::OnlineTrainer trainer(options);
  const stream::OnlineTrainer::RoundResult round =
      trainer.Retrain(ingestor->world(), ingestor->Snapshot());
  ASSERT_TRUE(round.trained) << round.skip_reason;
  ASSERT_NE(trainer.method(), nullptr);
  EXPECT_GT(round.train_samples, 0u);
  EXPECT_GT(round.val_samples, 0u);

  dlinfma::Dataset stream_data =
      dlinfma::MakeDataset(ingestor->world(), ingestor->Snapshot());
  const dlinfma::SampleSet stream_samples =
      dlinfma::ExtractSamples(stream_data, {});
  ASSERT_EQ(stream_samples.test.size(), batch_samples.test.size());
  const double stream_error =
      MeanError(trainer.method()->InferAll(stream_data, stream_samples.test),
                dlinfma::GroundTruthOf(world, stream_samples.test));

  // Golden tolerance: the online model must be in the same accuracy regime
  // as the batch model — no better than a candidate-diameter apart — and
  // both must beat the trivial all-candidates spread.
  EXPECT_TRUE(std::isfinite(stream_error));
  EXPECT_LT(stream_error, batch_error + 20.0)
      << "stream " << stream_error << " m vs batch " << batch_error << " m";
  EXPECT_LT(stream_error, 60.0);
  EXPECT_LT(batch_error, 60.0);
}

// --- Publication + hot reload ----------------------------------------------

// Fixed-seed loop: stream → retrain → publish → hot reload. The published
// bundle must load standalone, boot a BundleManager, and a second online
// round must swap cleanly (generation + 1) with the service still answering
// every query.
TEST(OnlineTrainerTest, PublishedBundleHotReloadsAcrossRounds) {
  const sim::World& world = FixedWorld();
  const std::string publish_dir = StreamPath("publish_bundle");
  auto ingestor = IngestAll(world);

  stream::OnlineTrainer::Options options;
  options.train = QuickTrain();
  options.publish_dir = publish_dir;
  stream::OnlineTrainer trainer(options);

  const stream::OnlineTrainer::RoundResult first =
      trainer.Retrain(ingestor->world(), ingestor->Snapshot());
  ASSERT_TRUE(first.trained) << first.skip_reason;
  ASSERT_TRUE(first.published) << first.publish_error;

  // The published bundle loads whole: the model and the answers it scored.
  std::string error;
  auto loaded = io::LoadBundle(publish_dir, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->method->has_model());
  EXPECT_FALSE(loaded->answers.addresses.empty());

  // Online rounds are retrained on shifting sample sets, so the reload
  // gate's live-vs-candidate agreement threshold is relaxed; structural
  // validation (envelopes, CRC, bounds sanity) stays on.
  apps::BundleManager::Config manager_config;
  manager_config.dir = publish_dir;
  manager_config.min_agree_fraction = 0.0;
  auto manager = apps::BundleManager::Create(manager_config, &error);
  ASSERT_NE(manager, nullptr) << error;
  EXPECT_EQ(manager->generation(), 0u);

  // Round 2 (warm-started) publishes over the same directory; the manager
  // must swap to the new generation without degrading.
  const stream::OnlineTrainer::RoundResult second =
      trainer.Retrain(ingestor->world(), ingestor->Snapshot());
  ASSERT_TRUE(second.trained) << second.skip_reason;
  ASSERT_TRUE(second.published) << second.publish_error;
  EXPECT_EQ(trainer.rounds_completed(), 2);

  EXPECT_EQ(manager->ReloadNow(&error),
            apps::BundleManager::ReloadOutcome::kSwapped)
      << error;
  EXPECT_EQ(manager->generation(), 1u);
  EXPECT_FALSE(manager->reload_degraded());

  // Zero dropped queries: every inventory address still answers finitely.
  auto state = manager->state();
  ASSERT_NE(state, nullptr);
  ASSERT_FALSE(state->delivered.empty());
  const std::vector<int64_t>& ids = state->delivered;
  const auto answers = state->service->QueryBatch(ids);
  ASSERT_EQ(answers.size(), ids.size());
  for (const auto& answer : answers) {
    EXPECT_TRUE(std::isfinite(answer.location.x));
    EXPECT_TRUE(std::isfinite(answer.location.y));
    EXPECT_FALSE(answer.degraded);
  }
}

// --- Crash safety within a round -------------------------------------------

// A round killed mid-training (simulated: a run whose epoch budget ends at
// the checkpoint boundary K — bit-identical to the state a SIGTERM at epoch
// K leaves on disk, since per-epoch work never depends on max_epochs) must
// resume via the CKPT artifact and finish with parameters bit-identical to
// an uninterrupted round. The checkpoint's shuffle permutation must cover
// every accumulated training sample: no sample loss across the kill.
TEST(OnlineTrainerTest, MidRoundCheckpointResumeIsBitIdenticalNoSampleLoss) {
  const sim::World& world = FixedWorld();
  const std::string ckpt_path = StreamPath("midround.ckpt.art");
  constexpr int kKillEpoch = 3;
  auto ingestor = IngestAll(world);

  // Golden: one uninterrupted round.
  stream::OnlineTrainer::Options golden_options;
  golden_options.train = QuickTrain();
  stream::OnlineTrainer golden(golden_options);
  const stream::OnlineTrainer::RoundResult golden_round =
      golden.Retrain(ingestor->world(), ingestor->Snapshot());
  ASSERT_TRUE(golden_round.trained) << golden_round.skip_reason;
  ASSERT_GT(golden_round.train.epochs_run, kKillEpoch);
  const std::string golden_params = golden.method()->ExportParameters();
  ASSERT_FALSE(golden_params.empty());

  // Interrupted: identical configuration, killed at the epoch-K checkpoint
  // boundary. The terminal CKPT this run leaves behind is exactly the
  // artifact the golden run's sink wrote at epoch K.
  stream::OnlineTrainer::Options killed_options;
  killed_options.train = QuickTrain();
  killed_options.train.max_epochs = kKillEpoch;
  killed_options.checkpoint_path = ckpt_path;
  killed_options.checkpoint_every_epochs = kKillEpoch;
  stream::OnlineTrainer killed(killed_options);
  const stream::OnlineTrainer::RoundResult killed_round =
      killed.Retrain(ingestor->world(), ingestor->Snapshot());
  ASSERT_TRUE(killed_round.trained) << killed_round.skip_reason;

  std::string error;
  auto checkpoint = io::LoadCheckpointArtifact(ckpt_path, &error);
  ASSERT_TRUE(checkpoint.has_value()) << error;
  EXPECT_EQ(checkpoint->next_epoch, kKillEpoch);
  // No sample loss: the checkpointed shuffle permutation spans the full
  // accumulated training set of the round.
  EXPECT_EQ(checkpoint->sample_order.size(), killed_round.train_samples);
  EXPECT_EQ(killed_round.train_samples, golden_round.train_samples);

  // Resume: a fresh trainer continues the round from the artifact and must
  // reproduce the uninterrupted parameters bit for bit.
  stream::OnlineTrainer::Options resumed_options;
  resumed_options.train = QuickTrain();
  stream::OnlineTrainer resumed(resumed_options);
  const stream::OnlineTrainer::RoundResult resumed_round =
      resumed.Retrain(ingestor->world(), ingestor->Snapshot(), &*checkpoint);
  ASSERT_TRUE(resumed_round.trained) << resumed_round.skip_reason;
  // epochs_run is cumulative across a resume: totals must line up.
  EXPECT_EQ(resumed_round.train.epochs_run, golden_round.train.epochs_run);
  EXPECT_EQ(resumed.method()->ExportParameters(), golden_params);
}

// --- Skip contract ---------------------------------------------------------

// Before any trip has streamed in there is nothing to train on: the round
// is skipped with a reason, completes no round, and trains no model.
TEST(OnlineTrainerTest, EmptyStreamSkipsTheRound) {
  sim::World city = FixedWorld();
  city.trips.clear();
  stream::StreamIngestor ingestor(city, {});

  stream::OnlineTrainer::Options options;
  options.train = QuickTrain();
  stream::OnlineTrainer trainer(options);
  const stream::OnlineTrainer::RoundResult round =
      trainer.Retrain(ingestor.world(), ingestor.Snapshot());
  EXPECT_FALSE(round.trained);
  EXPECT_FALSE(round.skip_reason.empty());
  EXPECT_EQ(trainer.rounds_completed(), 0);
  EXPECT_EQ(trainer.method(), nullptr);
}

// A streamed city whose address has a POI category the model cannot embed
// fails the round (counted, nothing trained or published) instead of
// aborting the node; the trainer's next usable round still trains.
TEST(OnlineTrainerTest, OutOfVocabularyPoiCategoryFailsTheRound) {
  sim::World city = FixedWorld();
  for (sim::Address& address : city.addresses) address.poi_category = 99;
  auto bad = IngestAll(city);
  auto good = IngestAll(FixedWorld());

  stream::OnlineTrainer::Options options;
  options.train = QuickTrain();
  options.train.max_epochs = 1;
  options.publish_dir = StreamPath("poi99_bundle");
  stream::OnlineTrainer trainer(options);
  obs::Counter* failures =
      obs::MetricsRegistry::Global().GetCounter("stream.retrain.failures");
  const int64_t failures_before = failures->value();
  const stream::OnlineTrainer::RoundResult failed =
      trainer.Retrain(bad->world(), bad->Snapshot());
  EXPECT_FALSE(failed.trained);
  EXPECT_FALSE(failed.published);
  EXPECT_NE(failed.error.find("POI category 99"), std::string::npos)
      << failed.error;
  EXPECT_EQ(failures->value(), failures_before + 1);
  EXPECT_EQ(trainer.rounds_completed(), 0);
  EXPECT_EQ(trainer.method(), nullptr);
  EXPECT_FALSE(std::filesystem::exists(options.publish_dir));

  const stream::OnlineTrainer::RoundResult next =
      trainer.Retrain(good->world(), good->Snapshot());
  EXPECT_TRUE(next.trained) << next.skip_reason << next.error;
  EXPECT_TRUE(next.error.empty());
  EXPECT_EQ(trainer.rounds_completed(), 1);
}

}  // namespace
}  // namespace dlinf
