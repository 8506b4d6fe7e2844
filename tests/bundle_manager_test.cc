// BundleManager hot-reload tests (src/apps/bundle_manager.h, DESIGN.md §9):
// boot from answers.art alone, the watch->stage->validate->swap state
// machine (a poll between a publish's renames included), every rollback
// trigger (injected corruption, real on-disk corruption of answers.art,
// shadow-validation veto, agreement threshold), answers equal to warm-start
// scoring, RCU semantics for pinned generations, and the reload counters +
// degraded-health flag. Two drills churn reloads (offline
// pushes, then online publications) while a thread runs QueryBatch on the
// pinned state, so a TSan build checks the swap for races.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stop_token>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "apps/bundle_manager.h"
#include "common/check.h"
#include "dlinfma/dlinfma_method.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "io/bundle.h"
#include "obs/metrics.h"
#include "sim/generator.h"
#include "stream/online_trainer.h"
#include "stream/stream_pipeline.h"

namespace dlinf {
namespace apps {
namespace {

using ::testing::TempDir;

int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out << bytes;
}

/// Flips one byte in the middle of `path`: a push whose CRC fails to load.
void FlipMiddleByte(const std::string& path) {
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 64u) << path;
  bytes[bytes.size() / 2] ^= 0x01;
  WriteFileBytes(path, bytes);
}

/// A pid-suffixed scratch path: under `ctest -j` each test case is a
/// separate process, and several of them mutate or corrupt bundle files —
/// a shared fixed path makes concurrent cases clobber each other's bundles.
std::string ScratchPath(const std::string& name) {
  return TempDir() + name + "." + std::to_string(::getpid());
}

/// One small trained pipeline saved as an on-disk bundle, shared by every
/// test; tests that mutate bundle files restore them afterwards.
struct BundleFixture {
  BundleFixture() {
    sim::SimConfig config = sim::SynDowBJConfig();
    config.num_days = 3;
    config.num_communities = 5;
    world = sim::GenerateWorld(config);
    data = dlinfma::BuildDataset(world, {});
    samples = dlinfma::ExtractSamples(data, {});
    dlinfma::TrainConfig train_config;
    train_config.max_epochs = 2;
    train_config.early_stop_patience = 2;
    method = std::make_unique<dlinfma::DlInfMaMethod>(
        "DLInfMA", dlinfma::LocMatcherConfig{}, train_config);
    method->Fit(data, samples);
    dir = ScratchPath("manager_bundle");
    std::string error;
    CHECK(io::SaveBundle(dir, world, data, samples, *method, &error)) << error;
  }

  sim::World world;
  dlinfma::Dataset data;
  dlinfma::SampleSet samples;
  std::unique_ptr<dlinfma::DlInfMaMethod> method;
  std::string dir;
};

BundleFixture& Fixture() {
  static BundleFixture* fixture = new BundleFixture();
  return *fixture;
}

std::unique_ptr<BundleManager> MakeManager(BundleManager::Config config = {}) {
  config.dir = Fixture().dir;
  std::string error;
  std::unique_ptr<BundleManager> manager =
      BundleManager::Create(config, &error);
  EXPECT_NE(manager, nullptr) << error;
  return manager;
}

/// Continuous QueryBatch load on a background thread over the first 64
/// addresses `manager` serves. Each batch pins one generation (state()), as
/// each engine request does, so every answer must be present and finite
/// whatever the control thread does to the bundle.
class QueryBatchLoad {
 public:
  explicit QueryBatchLoad(const BundleManager* manager) {
    const std::vector<int64_t>& delivered = manager->state()->delivered;
    const std::vector<int64_t> ids(
        delivered.begin(),
        delivered.begin() + std::min<size_t>(64, delivered.size()));
    thread_ = std::jthread([this, manager, ids](std::stop_token stop) {
      while (!stop.stop_requested()) {
        const std::shared_ptr<const BundleManager::ServingState> pinned =
            manager->state();
        const std::vector<DeliveryLocationService::Answer> answers =
            pinned->service->QueryBatch(ids);
        if (answers.size() != ids.size()) bad_answers_.fetch_add(1);
        for (const DeliveryLocationService::Answer& answer : answers) {
          if (!std::isfinite(answer.location.x) ||
              !std::isfinite(answer.location.y)) {
            bad_answers_.fetch_add(1);
          }
          answered_.fetch_add(1);
        }
      }
    });
    // Return once the load is answering, so what the caller does next runs
    // under it even when the thread is slow to be scheduled (a loaded host).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (answered_.load() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }

  /// Stops the load and checks that it answered, and never badly.
  void StopAndExpectClean() {
    thread_.request_stop();
    thread_.join();
    EXPECT_GT(answered_.load(), 0);
    EXPECT_EQ(bad_answers_.load(), 0) << "dropped or non-finite answers";
  }

 private:
  std::atomic<int64_t> answered_{0};
  std::atomic<int64_t> bad_answers_{0};
  std::jthread thread_;  ///< Declared last: joined before the counters go.
};

TEST(BundleManagerTest, BootsAndServes) {
  std::unique_ptr<BundleManager> manager = MakeManager();
  ASSERT_NE(manager, nullptr);
  EXPECT_EQ(manager->generation(), 0u);
  EXPECT_FALSE(manager->reload_degraded());

  const std::shared_ptr<const BundleManager::ServingState> state =
      manager->state();
  ASSERT_NE(state, nullptr);
  ASSERT_FALSE(state->delivered.empty());
  const DeliveryLocationService::Answer answer =
      state->service->Query(state->delivered.front());
  EXPECT_TRUE(std::isfinite(answer.location.x));
  EXPECT_TRUE(std::isfinite(answer.location.y));
}

TEST(BundleManagerTest, BootFailureReturnsNullWithReason) {
  BundleManager::Config config;
  config.dir = TempDir() + "no_such_bundle_dir";
  std::string error;
  EXPECT_EQ(BundleManager::Create(config, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(BundleManagerTest, PollWithoutPushIsUnchanged) {
  std::unique_ptr<BundleManager> manager = MakeManager();
  ASSERT_NE(manager, nullptr);
  const int64_t attempts_before = CounterValue("service.reload.attempts");
  EXPECT_EQ(manager->Poll(), BundleManager::ReloadOutcome::kUnchanged);
  EXPECT_EQ(manager->Poll(), BundleManager::ReloadOutcome::kUnchanged);
  // Unchanged polls never enter the reload machinery.
  EXPECT_EQ(CounterValue("service.reload.attempts"), attempts_before);
}

TEST(BundleManagerTest, PollDetectsFreshPushAndSwaps) {
  std::unique_ptr<BundleManager> manager = MakeManager();
  ASSERT_NE(manager, nullptr);
  // A push bumps the answers.art mtime; set it explicitly rather than
  // relying on filesystem timestamp granularity.
  const std::filesystem::path answers =
      std::filesystem::path(Fixture().dir) / io::kAnswersFile;
  std::filesystem::last_write_time(
      answers, std::filesystem::last_write_time(answers) +
                   std::chrono::seconds(2));
  std::string error;
  EXPECT_EQ(manager->Poll(&error), BundleManager::ReloadOutcome::kSwapped)
      << error;
  EXPECT_EQ(manager->generation(), 1u);
  // The same stamp again: nothing new.
  EXPECT_EQ(manager->Poll(), BundleManager::ReloadOutcome::kUnchanged);
}

TEST(BundleManagerTest, PollDuringMidPushManifestGapIsUnchanged) {
  std::unique_ptr<BundleManager> manager = MakeManager();
  ASSERT_NE(manager, nullptr);
  // A pusher writes answers.art last; while it is absent the directory is
  // mid-push and must be left alone.
  const std::filesystem::path answers =
      std::filesystem::path(Fixture().dir) / io::kAnswersFile;
  const std::string bytes = ReadFileBytes(answers.string());
  std::filesystem::remove(answers);
  EXPECT_EQ(manager->Poll(), BundleManager::ReloadOutcome::kUnchanged);
  EXPECT_EQ(manager->generation(), 0u);
  WriteFileBytes(answers.string(), bytes);
}

// A poll that lands between a publish's renames sees the previous publish:
// serving reads only answers.art, which a publish renames last, so the
// files renamed before it change nothing, and answers.art then swaps in
// cleanly.
TEST(BundleManagerTest, PollBetweenPublishRenamesIsUnchangedThenSwaps) {
  std::unique_ptr<BundleManager> manager = MakeManager();
  ASSERT_NE(manager, nullptr);
  const BundleFixture& fx = Fixture();
  const std::string next = ScratchPath("next_publish");
  std::filesystem::remove_all(next);
  std::string error;
  ASSERT_TRUE(io::SaveBundle(next, fx.world, fx.data, fx.samples, *fx.method,
                             &error))
      << error;
  const int64_t attempts_before = CounterValue("service.reload.attempts");
  const int64_t rollbacks_before = CounterValue("service.reload.rollbacks");
  for (const char* name : io::kBundleFiles) {
    if (std::string_view(name) == io::kAnswersFile) break;
    std::filesystem::rename(next + "/" + name, fx.dir + "/" + name);
  }
  EXPECT_EQ(manager->Poll(&error), BundleManager::ReloadOutcome::kUnchanged)
      << error;
  EXPECT_EQ(manager->generation(), 0u);
  EXPECT_FALSE(manager->reload_degraded());
  EXPECT_EQ(CounterValue("service.reload.attempts"), attempts_before);

  // A fresh stamp even where the filesystem's timestamps are coarse.
  const std::filesystem::path answers =
      std::filesystem::path(next) / io::kAnswersFile;
  std::filesystem::last_write_time(
      answers, std::filesystem::last_write_time(
                   std::filesystem::path(fx.dir) / io::kAnswersFile) +
                   std::chrono::seconds(2));
  std::filesystem::rename(answers,
                          std::filesystem::path(fx.dir) / io::kAnswersFile);
  EXPECT_EQ(manager->Poll(&error), BundleManager::ReloadOutcome::kSwapped)
      << error;
  EXPECT_EQ(manager->generation(), 1u);
  EXPECT_EQ(CounterValue("service.reload.rollbacks"), rollbacks_before);
  std::filesystem::remove_all(next);
}

// Serving never opens the model: with model.art absent the manager boots
// from answers.art alone and answers every delivered id.
TEST(BundleManagerTest, BootsFromAnswersAlone) {
  const std::string dir = ScratchPath("answers_only");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::filesystem::copy_file(
      std::filesystem::path(Fixture().dir) / io::kAnswersFile,
      std::filesystem::path(dir) / io::kAnswersFile);
  BundleManager::Config config;
  config.dir = dir;
  std::string error;
  std::unique_ptr<BundleManager> manager =
      BundleManager::Create(config, &error);
  ASSERT_NE(manager, nullptr) << error;
  const std::shared_ptr<const BundleManager::ServingState> state =
      manager->state();
  ASSERT_FALSE(state->delivered.empty());
  for (const DeliveryLocationService::Answer& answer :
       state->service->QueryBatch(state->delivered)) {
    EXPECT_TRUE(std::isfinite(answer.location.x));
    EXPECT_TRUE(std::isfinite(answer.location.y));
  }
  std::filesystem::remove_all(dir);
}

// The served answer table is the one the trained model scores: for every
// address of the city, the answers.art service's Lookup equals a service
// built from the fixture's in-memory method + InferAll + Build (same tier,
// bit-equal point), and reload validation draws the same probes from
// either.
TEST(BundleManagerTest, AnswersEqualWarmStartScoringForEveryAddress) {
  std::unique_ptr<BundleManager> manager = MakeManager();
  ASSERT_NE(manager, nullptr);
  const BundleFixture& fx = Fixture();
  const std::vector<dlinfma::AddressSample> all = io::AllSamples(fx.samples);
  const std::vector<Point> locations = fx.method->InferAll(fx.data, all);
  std::unordered_map<int64_t, Point> inferred;
  inferred.reserve(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    inferred[all[i].address_id] = locations[i];
  }
  const DeliveryLocationService reference =
      DeliveryLocationService::Build(fx.world, inferred);

  const std::shared_ptr<const BundleManager::ServingState> state =
      manager->state();
  ASSERT_EQ(state->city->addresses.size(), fx.world.addresses.size());
  for (int64_t id = 0; id < static_cast<int64_t>(fx.world.addresses.size());
       ++id) {
    const DeliveryLocationService::Answer served = state->service->Lookup(id);
    const DeliveryLocationService::Answer want = reference.Lookup(id);
    EXPECT_EQ(served.source, want.source) << "address " << id;
    EXPECT_EQ(served.location.x, want.location.x) << "address " << id;
    EXPECT_EQ(served.location.y, want.location.y) << "address " << id;
  }

  const std::vector<int64_t> delivered = fx.world.DeliveredAddressIds();
  EXPECT_EQ(state->delivered, delivered);
  const auto live_count = static_cast<int64_t>(fx.world.addresses.size());
  const std::vector<int64_t> probes =
      BundleManager::ProbeIds(state->delivered, live_count, 64);
  EXPECT_FALSE(probes.empty());
  EXPECT_EQ(probes, BundleManager::ProbeIds(delivered, live_count, 64));
}

TEST(BundleManagerTest, InjectedCorruptPushRollsBack) {
  std::unique_ptr<BundleManager> manager = MakeManager();
  ASSERT_NE(manager, nullptr);
  const int64_t rollbacks_before = CounterValue("service.reload.rollbacks");
  const std::shared_ptr<const BundleManager::ServingState> before =
      manager->state();

  fault::ScopedFaultPlan armed(
      fault::FaultPlan().FailAlways("service.reload.corrupt"), /*seed=*/1);
  std::string error;
  EXPECT_EQ(manager->ReloadNow(&error),
            BundleManager::ReloadOutcome::kRolledBack);
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(manager->reload_degraded());
  EXPECT_EQ(manager->state(), before);  // Same generation object, untouched.
  EXPECT_EQ(CounterValue("service.reload.rollbacks") - rollbacks_before, 1);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetGauge("service.reload.degraded")
                ->value(),
            1.0);
}

TEST(BundleManagerTest, RealOnDiskCorruptionRollsBack) {
  std::unique_ptr<BundleManager> manager = MakeManager();
  ASSERT_NE(manager, nullptr);
  const std::string answers_path = Fixture().dir + "/" + io::kAnswersFile;
  const std::string valid = ReadFileBytes(answers_path);
  FlipMiddleByte(answers_path);

  std::string error;
  EXPECT_EQ(manager->ReloadNow(&error),
            BundleManager::ReloadOutcome::kRolledBack);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(manager->generation(), 0u);
  WriteFileBytes(answers_path, valid);
}

TEST(BundleManagerTest, ValidationVetoRollsBackThenHealthySwapRecovers) {
  std::unique_ptr<BundleManager> manager = MakeManager();
  ASSERT_NE(manager, nullptr);
  {
    fault::ScopedFaultPlan armed(
        fault::FaultPlan().FailAlways("service.reload.validation_fail"),
        /*seed=*/1);
    std::string error;
    EXPECT_EQ(manager->ReloadNow(&error),
              BundleManager::ReloadOutcome::kRolledBack);
    EXPECT_TRUE(manager->reload_degraded());
  }
  // The next (healthy) push swaps and clears the degraded flag.
  const int64_t success_before = CounterValue("service.reload.success");
  std::string error;
  EXPECT_EQ(manager->ReloadNow(&error),
            BundleManager::ReloadOutcome::kSwapped)
      << error;
  EXPECT_EQ(manager->generation(), 1u);
  EXPECT_FALSE(manager->reload_degraded());
  EXPECT_EQ(CounterValue("service.reload.success") - success_before, 1);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetGauge("service.reload.degraded")
                ->value(),
            0.0);
}

TEST(BundleManagerTest, AgreementThresholdRejectsDivergentCandidate) {
  // An impossible agreement tolerance makes every probe "disagree": the
  // same bundle pushed back at itself must now fail shadow validation.
  BundleManager::Config config;
  config.agree_tolerance_m = -1.0;
  std::unique_ptr<BundleManager> manager = MakeManager(config);
  ASSERT_NE(manager, nullptr);
  std::string error;
  EXPECT_EQ(manager->ReloadNow(&error),
            BundleManager::ReloadOutcome::kRolledBack);
  EXPECT_NE(error.find("agree"), std::string::npos) << error;
}

// The shadow-validation probes are not served queries: a reload with no
// traffic moves neither the tier-hit counters nor the query histogram.
TEST(BundleManagerTest, ReloadProbesAreNotCountedAsServedQueries) {
  std::unique_ptr<BundleManager> manager = MakeManager();
  ASSERT_NE(manager, nullptr);
  const char* const kHits[] = {"service.query.hits.address",
                               "service.query.hits.building",
                               "service.query.hits.geocode"};
  int64_t hits_before[3];
  for (int i = 0; i < 3; ++i) hits_before[i] = CounterValue(kHits[i]);
  const obs::Histogram* latency = obs::MetricsRegistry::Global().GetHistogram(
      "service.query.latency_seconds");
  const int64_t latency_before = latency->count();

  std::string error;
  ASSERT_EQ(manager->ReloadNow(&error), BundleManager::ReloadOutcome::kSwapped)
      << error;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(CounterValue(kHits[i]), hits_before[i]) << kHits[i];
  }
  EXPECT_EQ(latency->count(), latency_before);
}

TEST(BundleManagerTest, PinnedGenerationSurvivesSwap) {
  std::unique_ptr<BundleManager> manager = MakeManager();
  ASSERT_NE(manager, nullptr);
  const std::shared_ptr<const BundleManager::ServingState> pinned =
      manager->state();
  ASSERT_FALSE(pinned->delivered.empty());
  const int64_t probe_id = pinned->delivered.front();
  const DeliveryLocationService::Answer before =
      pinned->service->Query(probe_id);

  std::string error;
  ASSERT_EQ(manager->ReloadNow(&error),
            BundleManager::ReloadOutcome::kSwapped)
      << error;
  EXPECT_EQ(manager->generation(), 1u);
  EXPECT_EQ(pinned->generation, 0u);

  // The old generation, still pinned by an "in-flight query", keeps
  // answering exactly as before the swap.
  const DeliveryLocationService::Answer after =
      pinned->service->Query(probe_id);
  EXPECT_EQ(after.location.x, before.location.x);
  EXPECT_EQ(after.location.y, before.location.y);
}

// Four pushes while QueryBatch runs on pinned state: an injected torn push,
// a validation veto and real on-disk corruption each roll back and keep
// the degraded flag up; a healthy push then swaps and clears it. No query
// is dropped and every counter moves by exactly its push count.
TEST(BundleManagerTest, PushSequenceUnderQueryBatchLoadDropsNothing) {
  std::unique_ptr<BundleManager> manager = MakeManager();
  ASSERT_NE(manager, nullptr);
  const int64_t attempts_before = CounterValue("service.reload.attempts");
  const int64_t rollbacks_before = CounterValue("service.reload.rollbacks");
  const int64_t success_before = CounterValue("service.reload.success");
  QueryBatchLoad load(manager.get());

  std::string error;
  for (const char* point :
       {"service.reload.corrupt", "service.reload.validation_fail"}) {
    fault::ScopedFaultPlan armed(fault::FaultPlan().FailAlways(point),
                                 /*seed=*/20240807);
    EXPECT_EQ(manager->ReloadNow(&error),
              BundleManager::ReloadOutcome::kRolledBack)
        << point;
    EXPECT_FALSE(error.empty()) << point;
    EXPECT_EQ(manager->generation(), 0u) << point;
    EXPECT_TRUE(manager->reload_degraded()) << point;
  }

  const std::string answers_path = Fixture().dir + "/" + io::kAnswersFile;
  const std::string answers_bytes = ReadFileBytes(answers_path);
  FlipMiddleByte(answers_path);
  error.clear();
  EXPECT_EQ(manager->ReloadNow(&error),
            BundleManager::ReloadOutcome::kRolledBack);
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(manager->reload_degraded());
  WriteFileBytes(answers_path, answers_bytes);

  EXPECT_EQ(manager->ReloadNow(&error),
            BundleManager::ReloadOutcome::kSwapped)
      << error;
  EXPECT_EQ(manager->generation(), 1u);
  EXPECT_FALSE(manager->reload_degraded());

  load.StopAndExpectClean();
  EXPECT_EQ(CounterValue("service.reload.attempts") - attempts_before, 4);
  EXPECT_EQ(CounterValue("service.reload.rollbacks") - rollbacks_before, 3);
  EXPECT_EQ(CounterValue("service.reload.success") - success_before, 1);
}

// The online publication path into the hot-reload watcher honours the same
// contract under QueryBatch load: a healthy round swaps, a corrupt
// publication rolls back and fails the health check, an injected
// `stream.publish.fail` is a counted typed error that leaves the bad push
// in place, and healing the push swaps and restores health.
TEST(BundleManagerTest, OnlinePublicationsRollBackUnderQueryBatchLoad) {
  const BundleFixture& fx = Fixture();
  const std::string dir = ScratchPath("stream_publish");
  std::filesystem::remove_all(dir);
  stream::StreamIngestor ingestor(fx.world, {});
  for (const sim::DeliveryTrip& trip : fx.world.trips) {
    ingestor.ReplayTrip(trip);
  }
  stream::OnlineTrainer::Options trainer_options;
  trainer_options.train.max_epochs = 2;
  trainer_options.train.early_stop_patience = 2;
  trainer_options.publish_dir = dir;
  stream::OnlineTrainer trainer(trainer_options);
  auto retrain = [&] {
    return trainer.Retrain(ingestor.world(), ingestor.Snapshot());
  };
  {
    const stream::OnlineTrainer::RoundResult boot = retrain();
    ASSERT_TRUE(boot.trained) << boot.skip_reason;
    ASSERT_TRUE(boot.published) << boot.publish_error;
  }

  // Online rounds legitimately drift from the boot generation, so the
  // shadow probes gate only on sanity (finite, in bounds), not agreement.
  BundleManager::Config config;
  config.dir = dir;
  config.min_agree_fraction = 0.0;
  std::string error;
  std::unique_ptr<BundleManager> manager =
      BundleManager::Create(config, &error);
  ASSERT_NE(manager, nullptr) << error;
  const HealthProvider health = BundleManagerHealth("bundle", manager.get());
  EXPECT_TRUE(health().ok);

  const int64_t attempts_before = CounterValue("service.reload.attempts");
  const int64_t success_before = CounterValue("service.reload.success");
  const int64_t rollbacks_before = CounterValue("service.reload.rollbacks");
  const int64_t publish_failures_before =
      CounterValue("stream.publish.failures");
  QueryBatchLoad load(manager.get());

  {
    const stream::OnlineTrainer::RoundResult round = retrain();
    EXPECT_TRUE(round.trained && round.published)
        << round.skip_reason << round.publish_error;
  }
  EXPECT_EQ(manager->ReloadNow(&error),
            BundleManager::ReloadOutcome::kSwapped)
      << error;
  EXPECT_EQ(manager->generation(), 1u);
  EXPECT_TRUE(health().ok);

  const std::string answers_path = dir + "/" + io::kAnswersFile;
  const std::string answers_bytes = ReadFileBytes(answers_path);
  FlipMiddleByte(answers_path);
  EXPECT_EQ(manager->ReloadNow(&error),
            BundleManager::ReloadOutcome::kRolledBack);
  EXPECT_TRUE(manager->reload_degraded());
  EXPECT_FALSE(health().ok);

  {
    fault::ScopedFaultPlan armed(
        fault::FaultPlan().FailAlways("stream.publish.fail"),
        /*seed=*/20240807);
    const stream::OnlineTrainer::RoundResult round = retrain();
    EXPECT_TRUE(round.trained) << round.skip_reason;
    EXPECT_FALSE(round.published);
    EXPECT_FALSE(round.publish_error.empty());
  }
  EXPECT_EQ(CounterValue("stream.publish.failures") - publish_failures_before,
            1);
  EXPECT_FALSE(health().ok) << "the last push is still the corrupt one";

  WriteFileBytes(answers_path, answers_bytes);
  EXPECT_EQ(manager->ReloadNow(&error),
            BundleManager::ReloadOutcome::kSwapped)
      << error;
  EXPECT_FALSE(manager->reload_degraded());
  EXPECT_TRUE(health().ok);

  load.StopAndExpectClean();
  EXPECT_EQ(CounterValue("service.reload.attempts") - attempts_before, 3);
  EXPECT_EQ(CounterValue("service.reload.success") - success_before, 2);
  EXPECT_EQ(CounterValue("service.reload.rollbacks") - rollbacks_before, 1);
}

}  // namespace
}  // namespace apps
}  // namespace dlinf
