// CKPT artifact codec tests (src/io/checkpoint.h, DESIGN.md §9): exact
// round-trips (including a byte-identical save->load->save cycle), typed
// failures for every corruption class, the injected write-fail fault, and
// the golden resume contract — a training run killed at a checkpoint
// boundary and resumed through the on-disk artifact finishes bit-identical
// to an uninterrupted run, and so does a run whose every checkpoint write
// fails. The CLI cases also pin `dlinf_cli`'s world path (`generate` writes
// exactly the world artifact, and an unloadable --world exits 1 with the
// codec's typed reason) and its one serve path (`serve` boots the query
// engine; a removed or out-of-range flag exits 2).

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "dlinfma/dlinfma_method.h"
#include "dlinfma/trainer.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "io/artifact.h"
#include "io/bundle.h"
#include "io/checkpoint.h"
#include "io/codecs.h"
#include "obs/metrics.h"
#include "scratch_dir.h"
#include "sim/generator.h"

namespace dlinf {
namespace io {
namespace {

using ::testing::TempDir;

// Pid-suffixed scratch dir, removed at exit: parallel ctest invocations of
// this binary must not clobber each other's fixture files.
std::string CkptPath(const std::string& name) {
  static const ScopedTempDir dir("checkpoint_test");
  return dir.Child(name);
}

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

/// A representative checkpoint with every field populated and nontrivial.
dlinfma::TrainCheckpoint MakeCheckpoint() {
  dlinfma::TrainCheckpoint ck;
  ck.next_epoch = 12;
  ck.seed = 0x1234567890abcdefull;
  ck.learning_rate = 5e-4f;
  ck.schedule_epoch = 12;
  ck.adam_step = 731;
  std::mt19937_64 engine(42);
  engine.discard(1000);
  std::ostringstream rng_text;
  rng_text << engine;
  ck.rng_state = rng_text.str();
  ck.best_val_loss = 0.731;
  ck.epochs_without_improvement = 3;
  ck.final_train_loss = 0.642;
  ck.sample_order = {4, 0, 3, 1, 2};
  ck.params = {{1.5f, -2.25f, 0.0f}, {3.75f}};
  ck.adam_m = {{0.1f, 0.2f, -0.3f}, {0.4f}};
  ck.adam_v = {{0.01f, 0.02f, 0.03f}, {0.04f}};
  ck.best_params = {{1.0f, -2.0f, 0.5f}, {3.5f}};
  return ck;
}

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void ExpectCheckpointsEqual(const dlinfma::TrainCheckpoint& got,
                            const dlinfma::TrainCheckpoint& want) {
  EXPECT_EQ(got.next_epoch, want.next_epoch);
  EXPECT_EQ(got.seed, want.seed);
  EXPECT_EQ(got.learning_rate, want.learning_rate);
  EXPECT_EQ(got.schedule_epoch, want.schedule_epoch);
  EXPECT_EQ(got.adam_step, want.adam_step);
  EXPECT_EQ(got.rng_state, want.rng_state);
  EXPECT_EQ(got.best_val_loss, want.best_val_loss);
  EXPECT_EQ(got.epochs_without_improvement, want.epochs_without_improvement);
  EXPECT_EQ(got.final_train_loss, want.final_train_loss);
  EXPECT_EQ(got.sample_order, want.sample_order);
  ASSERT_EQ(got.params.size(), want.params.size());
  ASSERT_EQ(got.adam_m.size(), want.adam_m.size());
  ASSERT_EQ(got.adam_v.size(), want.adam_v.size());
  ASSERT_EQ(got.best_params.size(), want.best_params.size());
  for (size_t i = 0; i < want.params.size(); ++i) {
    EXPECT_TRUE(BitEqual(got.params[i], want.params[i])) << "params " << i;
    EXPECT_TRUE(BitEqual(got.adam_m[i], want.adam_m[i])) << "adam_m " << i;
    EXPECT_TRUE(BitEqual(got.adam_v[i], want.adam_v[i])) << "adam_v " << i;
  }
  for (size_t i = 0; i < want.best_params.size(); ++i) {
    EXPECT_TRUE(BitEqual(got.best_params[i], want.best_params[i]))
        << "best_params " << i;
  }
}

TEST(CheckpointCodecTest, RoundTripsEveryField) {
  const std::string path = CkptPath("ckpt_roundtrip.art");
  const dlinfma::TrainCheckpoint original = MakeCheckpoint();
  ASSERT_TRUE(SaveCheckpointArtifact(original, path));

  std::string error;
  const std::optional<dlinfma::TrainCheckpoint> loaded =
      LoadCheckpointArtifact(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ExpectCheckpointsEqual(*loaded, original);
}

TEST(CheckpointCodecTest, SaveLoadSaveIsByteIdentical) {
  const std::string first = CkptPath("ckpt_bytes_1.art");
  const std::string second = CkptPath("ckpt_bytes_2.art");
  const dlinfma::TrainCheckpoint original = MakeCheckpoint();
  ASSERT_TRUE(SaveCheckpointArtifact(original, first));

  std::string error;
  const std::optional<dlinfma::TrainCheckpoint> loaded =
      LoadCheckpointArtifact(first, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_TRUE(SaveCheckpointArtifact(*loaded, second));
  EXPECT_EQ(ReadFileBytes(first), ReadFileBytes(second));
}

TEST(CheckpointCodecTest, EmptyBestParamsRoundTrips) {
  // No epoch improved yet: best_params is legitimately empty.
  const std::string path = CkptPath("ckpt_no_best.art");
  dlinfma::TrainCheckpoint original = MakeCheckpoint();
  original.best_params.clear();
  ASSERT_TRUE(SaveCheckpointArtifact(original, path));

  std::string error;
  const std::optional<dlinfma::TrainCheckpoint> loaded =
      LoadCheckpointArtifact(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->best_params.empty());
}

TEST(CheckpointCodecTest, CorruptionFailsWithTypedError) {
  const std::string valid_path = CkptPath("ckpt_valid.art");
  ASSERT_TRUE(SaveCheckpointArtifact(MakeCheckpoint(), valid_path));
  const std::string valid = ReadFileBytes(valid_path);
  const std::string path = CkptPath("ckpt_corrupt.art");

  auto expect_load_fails = [&](const std::string& label) {
    std::string error;
    EXPECT_FALSE(LoadCheckpointArtifact(path, &error).has_value()) << label;
    EXPECT_FALSE(error.empty()) << label;
  };

  std::string bytes = valid;
  bytes[0] ^= 0x5a;  // Bad magic.
  WriteFileBytes(path, bytes);
  expect_load_fails("bad magic");

  bytes = valid;
  bytes[20 + (bytes.size() - 24) / 2] ^= 0x01;  // Payload bit rot.
  WriteFileBytes(path, bytes);
  expect_load_fails("payload bit flip");

  WriteFileBytes(path, valid.substr(0, valid.size() / 2));  // Truncation.
  expect_load_fails("truncation");

  std::string missing_error;
  EXPECT_FALSE(LoadCheckpointArtifact(CkptPath("ckpt_nonexistent.art"),
                                      &missing_error)
                   .has_value());
  EXPECT_FALSE(missing_error.empty());
}

TEST(CheckpointCodecTest, RejectsWrongArtifactKind) {
  // A structurally valid artifact of a different kind must be refused by
  // the envelope's kind check, not half-decoded.
  const std::string path = CkptPath("ckpt_wrong_kind.art");
  {
    ArtifactWriter writer(ArtifactKind::kWorld);
    writer.WriteI32(7);
    ASSERT_TRUE(writer.Finish(path));
  }
  std::string error;
  EXPECT_FALSE(LoadCheckpointArtifact(path, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointCodecTest, RejectsStructurallyUnsoundPayload) {
  // Well-formed envelope, malformed content: adam moments whose shapes do
  // not match the parameters.
  const std::string path = CkptPath("ckpt_unsound.art");
  dlinfma::TrainCheckpoint bad = MakeCheckpoint();
  bad.adam_m.pop_back();
  ASSERT_TRUE(SaveCheckpointArtifact(bad, path));
  std::string error;
  EXPECT_FALSE(LoadCheckpointArtifact(path, &error).has_value());
  EXPECT_FALSE(error.empty());
}

/// Variants of `good` that pass the envelope's CRC but whose resume state
/// the trainer would parse or index unchecked: each must be refused at load.
std::vector<std::pair<std::string, dlinfma::TrainCheckpoint>>
MalformedResumeStates(const dlinfma::TrainCheckpoint& good) {
  const std::string words = good.rng_state.substr(0, good.rng_state.rfind(' '));
  std::vector<std::pair<std::string, dlinfma::TrainCheckpoint>> out;
  auto add = [&](const std::string& label, auto mutate) {
    dlinfma::TrainCheckpoint ck = good;
    mutate(&ck);
    out.emplace_back(label, std::move(ck));
  };
  add("rng garbage", [](dlinfma::TrainCheckpoint* ck) {
    ck->rng_state = "1 2 3 not-an-engine";
  });
  add("rng 311 words", [&](dlinfma::TrainCheckpoint* ck) {
    ck->rng_state = words.substr(0, words.rfind(' ')) + " 5";
  });
  add("rng position 313",
      [&](dlinfma::TrainCheckpoint* ck) { ck->rng_state = words + " 313"; });
  add("rng trailing token", [&](dlinfma::TrainCheckpoint* ck) {
    ck->rng_state = good.rng_state + " 7";
  });
  add("order out of range",
      [](dlinfma::TrainCheckpoint* ck) { ck->sample_order[0] = 100000000; });
  add("order negative",
      [](dlinfma::TrainCheckpoint* ck) { ck->sample_order[2] = -1; });
  add("order duplicate", [](dlinfma::TrainCheckpoint* ck) {
    ck->sample_order[1] = ck->sample_order[0];
  });
  return out;
}

TEST(CheckpointCodecTest, RejectsMalformedResumeState) {
  const std::string path = CkptPath("ckpt_bad_resume_state.art");
  for (const auto& [label, bad] : MalformedResumeStates(MakeCheckpoint())) {
    ASSERT_TRUE(SaveCheckpointArtifact(bad, path)) << label;
    std::string error;
    EXPECT_FALSE(LoadCheckpointArtifact(path, &error).has_value()) << label;
    EXPECT_NE(error.find("malformed checkpoint payload"), std::string::npos)
        << label << ": " << error;
  }
  // The boundary positions and a trailing newline are still sound.
  const dlinfma::TrainCheckpoint good = MakeCheckpoint();
  const std::string words = good.rng_state.substr(0, good.rng_state.rfind(' '));
  for (const std::string& rng_state :
       {words + " 0", words + " 312", good.rng_state + "\n"}) {
    dlinfma::TrainCheckpoint ck = good;
    ck.rng_state = rng_state;
    ASSERT_TRUE(SaveCheckpointArtifact(ck, path));
    std::string error;
    EXPECT_TRUE(LoadCheckpointArtifact(path, &error).has_value()) << error;
  }
}

TEST(CheckpointCodecTest, InjectedWriteFailureLeavesNoFile) {
  const std::string path = CkptPath("ckpt_write_fail.art");
  std::filesystem::remove(path);
  fault::ScopedFaultPlan armed(
      fault::FaultPlan().FailAlways("train.checkpoint.write_fail"),
      /*seed=*/1);
  EXPECT_FALSE(SaveCheckpointArtifact(MakeCheckpoint(), path));
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(fault::FireCount("train.checkpoint.write_fail"), 1);
}

TEST(CheckpointCodecTest, FailedOverwriteKeepsPreviousCheckpoint) {
  // The atomic temp+rename contract: a failed write must not clobber the
  // checkpoint already on disk.
  const std::string path = CkptPath("ckpt_keep_previous.art");
  const dlinfma::TrainCheckpoint original = MakeCheckpoint();
  ASSERT_TRUE(SaveCheckpointArtifact(original, path));
  const std::string before = ReadFileBytes(path);

  {
    fault::ScopedFaultPlan armed(
        fault::FaultPlan().FailAlways("train.checkpoint.write_fail"),
        /*seed=*/1);
    dlinfma::TrainCheckpoint newer = MakeCheckpoint();
    newer.next_epoch = 99;
    EXPECT_FALSE(SaveCheckpointArtifact(newer, path));
  }
  EXPECT_EQ(ReadFileBytes(path), before);
  std::string error;
  const std::optional<dlinfma::TrainCheckpoint> loaded =
      LoadCheckpointArtifact(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->next_epoch, original.next_epoch);
}

// --- Golden resume: kill at a boundary, resume, finish bit-identical ------

struct TrainFixture {
  TrainFixture() {
    sim::SimConfig config = sim::SynDowBJConfig();
    config.num_days = 3;
    config.num_communities = 5;
    world = sim::GenerateWorld(config);
    data = dlinfma::BuildDataset(world, {});
    samples = dlinfma::ExtractSamples(data, {});
  }

  sim::World world;
  dlinfma::Dataset data;
  dlinfma::SampleSet samples;
};

TrainFixture& Fixture() {
  static TrainFixture* fixture = new TrainFixture();
  return *fixture;
}

std::vector<std::vector<float>> Snapshot(const dlinfma::LocMatcher& model) {
  std::vector<std::vector<float>> out;
  for (const nn::Tensor& t : model.Parameters()) out.push_back(t.data());
  return out;
}

TEST(CheckpointResumeTest, ResumedRunIsBitIdenticalToUninterrupted) {
  TrainFixture& fx = Fixture();
  dlinfma::TrainConfig base;
  base.max_epochs = 6;
  base.early_stop_patience = 6;
  base.lr_halve_epochs = 2;  // Halvings land on both sides of the boundary.
  base.seed = 11;

  auto fresh_model = [&] {
    Rng rng(base.seed);
    return std::make_unique<dlinfma::LocMatcher>(dlinfma::LocMatcherConfig{},
                                                 &rng);
  };

  // Golden run, capturing the epoch-3 boundary checkpoint.
  std::optional<dlinfma::TrainCheckpoint> at_kill;
  std::vector<std::vector<float>> golden;
  {
    dlinfma::TrainConfig config = base;
    config.checkpoint_every_epochs = 3;
    config.checkpoint_sink = [&](const dlinfma::TrainCheckpoint& ck) {
      if (ck.next_epoch == 3) at_kill = ck;
      return true;
    };
    auto model = fresh_model();
    dlinfma::TrainLocMatcher(model.get(), fx.samples.train, fx.samples.val,
                             config);
    golden = Snapshot(*model);
  }
  ASSERT_TRUE(at_kill.has_value());

  // Kill -> restart through the on-disk artifact.
  const std::string path = CkptPath("ckpt_resume.art");
  ASSERT_TRUE(SaveCheckpointArtifact(*at_kill, path));
  std::string error;
  const std::optional<dlinfma::TrainCheckpoint> restored =
      LoadCheckpointArtifact(path, &error);
  ASSERT_TRUE(restored.has_value()) << error;

  const int64_t resumes_before = CounterValue("train.resumes");
  dlinfma::TrainConfig config = base;
  config.resume = &*restored;
  auto model = fresh_model();
  const dlinfma::TrainResult result = dlinfma::TrainLocMatcher(
      model.get(), fx.samples.train, fx.samples.val, config);
  EXPECT_EQ(result.epochs_run, base.max_epochs);
  EXPECT_EQ(CounterValue("train.resumes") - resumes_before, 1);

  const std::vector<std::vector<float>> resumed = Snapshot(*model);
  ASSERT_EQ(resumed.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_TRUE(BitEqual(resumed[i], golden[i]))
        << "parameter tensor " << i << " diverged after resume";
  }

  // Every checkpoint write fails: training carries on to the same model,
  // counts both lost emissions (epoch 3 and the terminal epoch 6) and
  // leaves no file behind.
  const int64_t failures_before = CounterValue("train.checkpoint.failures");
  const int64_t writes_before = CounterValue("train.checkpoint.writes");
  const std::string lost_path = CkptPath("ckpt_every_write_fails.art");
  std::filesystem::remove(lost_path);
  {
    fault::ScopedFaultPlan armed(
        fault::FaultPlan().FailAlways("train.checkpoint.write_fail"),
        /*seed=*/20240807);
    dlinfma::TrainConfig failing = base;
    failing.checkpoint_every_epochs = 3;
    failing.checkpoint_sink = [&](const dlinfma::TrainCheckpoint& ck) {
      return SaveCheckpointArtifact(ck, lost_path);
    };
    auto unlucky = fresh_model();
    dlinfma::TrainLocMatcher(unlucky.get(), fx.samples.train, fx.samples.val,
                             failing);
    const std::vector<std::vector<float>> params = Snapshot(*unlucky);
    ASSERT_EQ(params.size(), golden.size());
    for (size_t i = 0; i < golden.size(); ++i) {
      EXPECT_TRUE(BitEqual(params[i], golden[i]))
          << "parameter tensor " << i << " changed by failed checkpoints";
    }
  }
  EXPECT_FALSE(std::filesystem::exists(lost_path));
  EXPECT_EQ(CounterValue("train.checkpoint.failures") - failures_before, 2);
  EXPECT_EQ(CounterValue("train.checkpoint.writes") - writes_before, 0);
}

TEST(CheckpointResumeTest, TerminalCheckpointResumesToSameModel) {
  // Resuming the checkpoint a *finished* run leaves behind must run zero
  // epochs and reproduce the same final parameters.
  TrainFixture& fx = Fixture();
  dlinfma::TrainConfig base;
  base.max_epochs = 4;
  base.early_stop_patience = 4;
  base.seed = 12;

  auto fresh_model = [&] {
    Rng rng(base.seed);
    return std::make_unique<dlinfma::LocMatcher>(dlinfma::LocMatcherConfig{},
                                                 &rng);
  };

  std::optional<dlinfma::TrainCheckpoint> terminal;
  std::vector<std::vector<float>> golden;
  {
    dlinfma::TrainConfig config = base;
    config.checkpoint_every_epochs = 10;  // Only the terminal emission fires.
    config.checkpoint_sink = [&](const dlinfma::TrainCheckpoint& ck) {
      terminal = ck;
      return true;
    };
    auto model = fresh_model();
    dlinfma::TrainLocMatcher(model.get(), fx.samples.train, fx.samples.val,
                             config);
    golden = Snapshot(*model);
  }
  ASSERT_TRUE(terminal.has_value());
  EXPECT_EQ(terminal->next_epoch, base.max_epochs);

  dlinfma::TrainConfig config = base;
  config.resume = &*terminal;
  auto model = fresh_model();
  const dlinfma::TrainResult result = dlinfma::TrainLocMatcher(
      model.get(), fx.samples.train, fx.samples.val, config);
  EXPECT_EQ(result.epochs_run, base.max_epochs);

  const std::vector<std::vector<float>> resumed = Snapshot(*model);
  ASSERT_EQ(resumed.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_TRUE(BitEqual(resumed[i], golden[i])) << "tensor " << i;
  }
}

// --- Sample groups: every partition of a step trains the same bytes -------

/// What a fit leaves behind, for comparing two partitions of its steps.
struct GroupedFit {
  dlinfma::TrainResult result;
  std::vector<std::vector<float>> params;
  std::string rng_state;        ///< The engine at the end of the fit.
  std::string checkpoint;       ///< The terminal checkpoint's file bytes.
  std::string resumed;          ///< Same, for a run resumed at epoch 1.
};

/// Fits `model_config` for 3 epochs with each step run as groups of
/// `group_size` samples (16: one group, the batched graph), then resumes
/// `resume_from` (a checkpoint at epoch 1) with the same group size.
/// `in_pool_task` runs both fits inside a shared-pool task, where the
/// groups run one after another on one thread.
GroupedFit FitInGroups(const dlinfma::LocMatcherConfig& model_config,
                       int group_size, bool in_pool_task,
                       const dlinfma::TrainCheckpoint* resume_from,
                       std::optional<dlinfma::TrainCheckpoint>* at_epoch1) {
  TrainFixture& fx = Fixture();
  dlinfma::TrainConfig base;
  base.max_epochs = 3;
  base.early_stop_patience = 3;
  base.lr_halve_epochs = 2;
  base.seed = 13;
  base.checkpoint_every_epochs = 1;
  GroupedFit fit;
  const std::string name = "grouped_" + std::to_string(group_size) +
                           (in_pool_task ? "_inline" : "") + ".art";
  auto run = [&](dlinfma::TrainConfig config, std::string* bytes,
                 std::vector<std::vector<float>>* params) {
    std::optional<dlinfma::TrainCheckpoint> last;
    config.checkpoint_sink = [&](const dlinfma::TrainCheckpoint& ck) {
      if (ck.next_epoch == 1 && at_epoch1 != nullptr) *at_epoch1 = ck;
      last = ck;
      return true;
    };
    Rng rng(base.seed);
    dlinfma::LocMatcher model(model_config, &rng);
    auto fit_model = [&] {
      fit.result = dlinfma::internal::TrainLocMatcherInGroups(
          &model, fx.samples.train, fx.samples.val, config, group_size);
    };
    if (in_pool_task) {
      std::promise<void> done;
      ThreadPool::Shared().Submit([&] {
        fit_model();
        done.set_value();
      });
      done.get_future().wait();
    } else {
      fit_model();
    }
    if (params != nullptr) *params = Snapshot(model);
    ASSERT_TRUE(last.has_value());
    fit.rng_state = last->rng_state;
    const std::string path = CkptPath(name);
    ASSERT_TRUE(SaveCheckpointArtifact(*last, path));
    *bytes = ReadFileBytes(path);
  };
  run(base, &fit.checkpoint, &fit.params);
  if (resume_from != nullptr) {
    dlinfma::TrainConfig resumed = base;
    resumed.resume = resume_from;
    at_epoch1 = nullptr;
    run(resumed, &fit.resumed, nullptr);
  }
  return fit;
}

/// A step run as groups of consecutive samples on the pool is the step run
/// over the whole batch, bit for bit (DESIGN.md §9): parameters, the RNG's
/// end state, both losses and the checkpoints, of a fresh and of a resumed
/// run, for the transformer, the PN (LSTM) encoder and DLInfMA-nA.
TEST(SampleGroupTest, EveryStepPartitionTrainsTheSameBytes) {
  dlinfma::LocMatcherConfig lstm;
  lstm.encoder = dlinfma::LocMatcherConfig::EncoderKind::kLstm;
  dlinfma::LocMatcherConfig no_context;
  no_context.use_address_context = false;
  const struct {
    const char* name;
    dlinfma::LocMatcherConfig config;
  } models[] = {{"transformer", dlinfma::LocMatcherConfig{}},
                {"pn", lstm},
                {"na", no_context}};
  for (const auto& model : models) {
    SCOPED_TRACE(model.name);
    std::optional<dlinfma::TrainCheckpoint> at_epoch1;
    const GroupedFit whole =
        FitInGroups(model.config, 16, false, nullptr, &at_epoch1);
    ASSERT_TRUE(at_epoch1.has_value());
    const GroupedFit batched =
        FitInGroups(model.config, 16, false, &*at_epoch1, nullptr);
    for (const auto& [group_size, in_pool_task] :
         {std::pair{4, false}, std::pair{1, false}, std::pair{4, true}}) {
      SCOPED_TRACE("group size " + std::to_string(group_size) +
                   (in_pool_task ? " inside a pool task" : ""));
      const GroupedFit grouped = FitInGroups(model.config, group_size,
                                             in_pool_task, &*at_epoch1,
                                             nullptr);
      ASSERT_EQ(grouped.params.size(), whole.params.size());
      for (size_t i = 0; i < whole.params.size(); ++i) {
        EXPECT_TRUE(BitEqual(grouped.params[i], whole.params[i]))
            << "parameter tensor " << i;
      }
      EXPECT_EQ(grouped.rng_state, whole.rng_state);
      EXPECT_EQ(grouped.result.final_train_loss, whole.result.final_train_loss);
      EXPECT_EQ(grouped.result.best_val_loss, whole.result.best_val_loss);
      EXPECT_TRUE(grouped.checkpoint == whole.checkpoint);
      EXPECT_TRUE(grouped.resumed == batched.resumed);
      EXPECT_TRUE(grouped.resumed == whole.checkpoint);
    }
  }
}

/// Runs `dlinf_cli` with `args`; the wait status. The child's stderr and
/// stdout go to `stderr_text` and `stdout_text` when given, else to
/// /dev/null.
int RunCli(const std::string& args, std::string* stderr_text = nullptr,
           std::string* stdout_text = nullptr) {
  const std::string stderr_path = CkptPath("cli_stderr.txt");
  const std::string stdout_path = CkptPath("cli_stdout.txt");
  const std::string command =
      std::string(DLINF_CLI_PATH) + " " + args + " > " +
      (stdout_text != nullptr ? stdout_path : std::string("/dev/null")) +
      " 2> " +
      (stderr_text != nullptr ? stderr_path : std::string("/dev/null"));
  const int status = std::system(command.c_str());
  if (stderr_text != nullptr) *stderr_text = ReadFileBytes(stderr_path);
  if (stdout_text != nullptr) *stdout_text = ReadFileBytes(stdout_path);
  return status;
}

/// Runs `dlinf_cli train` on `world_path` with extra flags; the wait status.
int RunCliTrain(const std::string& world_path, const std::string& flags,
                std::string* stderr_text = nullptr) {
  return RunCli("train --world " + world_path + " --bundle " +
                    CkptPath("cli_bundle") + " --quick " + flags,
                stderr_text);
}

TEST(CheckpointCliTest, GenerateWritesTheWorldArtifact) {
  const std::string path = CkptPath("cli_generated.art");
  const int status =
      RunCli("generate --preset dowbj --days 2 --seed 3 --out " + path);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  sim::SimConfig config = sim::SynDowBJConfig();
  config.num_days = 2;
  config.seed = 3;
  const std::string expected = CkptPath("cli_expected.art");
  ASSERT_TRUE(SaveWorldArtifact(sim::GenerateWorld(config), expected));
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(expected));
}

/// A one-epoch model of the fixture world, fit once per process and shared
/// by every case that needs a model artifact or a bundle.
const dlinfma::DlInfMaMethod& OneEpochMethod() {
  static const dlinfma::DlInfMaMethod* method = [] {
    dlinfma::TrainConfig train_config;
    train_config.max_epochs = 1;
    auto* fit = new dlinfma::DlInfMaMethod(
        "DLInfMA", dlinfma::LocMatcherConfig{}, train_config);
    fit->Fit(Fixture().data, Fixture().samples);
    return fit;
  }();
  return *method;
}

TEST(CheckpointCliTest, UnloadableWorldExitsWithTypedError) {
  // The old CSV world layout: a directory, not an artifact file.
  const std::string dir = CkptPath("cli_csv_world");
  std::filesystem::create_directories(dir);
  WriteFileBytes(dir + "/meta.csv", "key,value\nname,SynDowBJ\n");

  const std::string world_path = CkptPath("cli_whole.art");
  ASSERT_TRUE(SaveWorldArtifact(Fixture().world, world_path));
  const std::string truncated = CkptPath("cli_truncated.art");
  const std::string bytes = ReadFileBytes(world_path);
  WriteFileBytes(truncated, bytes.substr(0, bytes.size() / 2));

  // A bundle's model.art: a sound artifact of the wrong kind.
  const std::string model_path = CkptPath("cli_model.art");
  ASSERT_TRUE(SaveModelArtifact(OneEpochMethod(), model_path));

  for (const auto& [path, reason] :
       std::vector<std::pair<std::string, std::string>>{
           {dir, "is a directory"},
           {truncated, "truncated payload"},
           {model_path, "artifact kind mismatch"}}) {
    std::string stderr_text;
    const int status = RunCliTrain(path, "", &stderr_text);
    ASSERT_TRUE(WIFEXITED(status)) << path << ": killed by a signal";
    EXPECT_EQ(WEXITSTATUS(status), 1) << path;
    EXPECT_NE(stderr_text.find(reason), std::string::npos)
        << path << ": " << stderr_text;
  }
}

TEST(CheckpointCliTest, WorldNamingAnUnknownAddressExitsWithTypedError) {
  // Checksum-valid, but a waybill names an address the world lacks: stats
  // must refuse it at load with one error line and exit 1, never reach
  // World::address's CHECK in candidate generation (an abort, 134).
  sim::World world = Fixture().world;
  ASSERT_FALSE(world.trips.empty());
  ASSERT_FALSE(world.trips.front().waybills.empty());
  world.trips.front().waybills.front().address_id = 99999;
  const std::string path = CkptPath("cli_unknown_address.art");
  ASSERT_TRUE(SaveWorldArtifact(world, path));
  std::string stderr_text;
  const int status = RunCli("stats --world " + path, &stderr_text);
  ASSERT_TRUE(WIFEXITED(status)) << "killed by a signal";
  EXPECT_EQ(WEXITSTATUS(status), 1);
  EXPECT_NE(stderr_text.find("names address 99999"), std::string::npos)
      << stderr_text;
  EXPECT_EQ(std::count(stderr_text.begin(), stderr_text.end(), '\n'), 1)
      << stderr_text;
}

TEST(CheckpointCliTest, MalformedResumeStateExitsWithTypedError) {
  // A real checkpoint of this world, so seed, shapes and training-set size
  // all pass the CLI's own checks and only the corrupted field is wrong.
  const std::string world_path = CkptPath("cli_world.art");
  ASSERT_TRUE(SaveWorldArtifact(Fixture().world, world_path));
  const std::string good_path = CkptPath("ckpt_cli_good.art");
  const int trained =
      RunCliTrain(world_path, "--ckpt " + good_path + " --ckpt-every 1");
  ASSERT_TRUE(WIFEXITED(trained) && WEXITSTATUS(trained) == 0);
  std::string error;
  std::optional<dlinfma::TrainCheckpoint> good =
      LoadCheckpointArtifact(good_path, &error);
  ASSERT_TRUE(good.has_value()) << error;
  ASSERT_GE(good->sample_order.size(), 3u);
  // Rewind the terminal checkpoint so the resumed run trains again and
  // actually uses the engine state and the sample order.
  good->next_epoch = 1;
  good->epochs_without_improvement = 0;
  ASSERT_TRUE(SaveCheckpointArtifact(*good, good_path));
  const int resumed = RunCliTrain(world_path, "--resume " + good_path);
  ASSERT_TRUE(WIFEXITED(resumed) && WEXITSTATUS(resumed) == 0);

  // Each malformed variant: a typed error and exit 1, never an abort (134)
  // or a segfault (139).
  const std::string path = CkptPath("ckpt_cli_bad.art");
  for (const auto& [label, bad] : MalformedResumeStates(*good)) {
    ASSERT_TRUE(SaveCheckpointArtifact(bad, path)) << label;
    const int status = RunCliTrain(world_path, "--resume " + path);
    ASSERT_TRUE(WIFEXITED(status)) << label << ": killed by a signal";
    EXPECT_EQ(WEXITSTATUS(status), 1) << label;
  }
}

TEST(CheckpointCliTest, SampleLessWorldExitsWithTypedError) {
  // A city-only world has no labeled samples in any split: training and
  // evaluation must refuse it with one error line and exit 1, never reach
  // a CHECK in the trainer or the metrics (an abort, 134).
  const std::string city = CkptPath("cli_city.art");
  const int generated =
      RunCli("generate --preset dowbj --days 0 --out " + city);
  ASSERT_TRUE(WIFEXITED(generated) && WEXITSTATUS(generated) == 0);
  for (const std::string& command :
       {"train --world " + city + " --bundle " + CkptPath("cli_city_bundle") +
            " --quick",
        "evaluate --world " + city + " --quick"}) {
    std::string stderr_text;
    const int status = RunCli(command, &stderr_text);
    ASSERT_TRUE(WIFEXITED(status)) << command << ": killed by a signal";
    EXPECT_EQ(WEXITSTATUS(status), 1) << command;
    EXPECT_TRUE(stderr_text.starts_with("error: ")) << stderr_text;
    EXPECT_EQ(std::count(stderr_text.begin(), stderr_text.end(), '\n'), 1)
        << command << ": " << stderr_text;
  }
  EXPECT_FALSE(std::filesystem::exists(CkptPath("cli_city_bundle")));
}

TEST(CheckpointCliTest, OutOfVocabularyPoiCategoryExitsWithTypedError) {
  // A checksum-valid world whose training address has POI category 99
  // (LocMatcher embeds 21): training and evaluation must name the address
  // in one error line and exit 1, never abort in the embedding lookup.
  sim::World world = Fixture().world;
  const int64_t address_id = Fixture().samples.train.front().address_id;
  for (sim::Address& address : world.addresses) {
    if (address.id == address_id) address.poi_category = 99;
  }
  const std::string path = CkptPath("cli_poi99.art");
  ASSERT_TRUE(SaveWorldArtifact(world, path));
  for (const std::string& command :
       {"train --world " + path + " --bundle " + CkptPath("cli_poi99_bundle") +
            " --quick",
        "evaluate --world " + path + " --quick"}) {
    std::string stderr_text;
    const int status = RunCli(command, &stderr_text);
    ASSERT_TRUE(WIFEXITED(status)) << command << ": killed by a signal";
    EXPECT_EQ(WEXITSTATUS(status), 1) << command;
    EXPECT_TRUE(stderr_text.starts_with("error: ")) << stderr_text;
    EXPECT_NE(stderr_text.find("address " + std::to_string(address_id) +
                               " has POI category 99"),
              std::string::npos)
        << command << ": " << stderr_text;
    EXPECT_EQ(std::count(stderr_text.begin(), stderr_text.end(), '\n'), 1)
        << command << ": " << stderr_text;
  }
  EXPECT_FALSE(std::filesystem::exists(CkptPath("cli_poi99_bundle")));
}

TEST(CheckpointCliTest, ServeBootsTheQueryEngine) {
  const std::string bundle = CkptPath("cli_serve_bundle");
  std::string error;
  ASSERT_TRUE(SaveBundle(bundle, Fixture().world, Fixture().data,
                         Fixture().samples, OneEpochMethod(), &error))
      << error;
  std::string stdout_text;
  const int status =
      RunCli("serve --bundle " + bundle + " --port 0 --serve-seconds 0.3",
             nullptr, &stdout_text);
  ASSERT_TRUE(WIFEXITED(status)) << "killed by a signal";
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_NE(stdout_text.find("query engine up"), std::string::npos)
      << stdout_text;
}

TEST(CheckpointCliTest, ServeRejectsBadFlagsWithExit2) {
  // A removed flag and each out-of-range value: one line naming the flag
  // and exit 2, never a clamp to a default or an abort. Both are rejected
  // before --bundle is read, so the bundle path need not exist.
  for (const auto& [flags, name] :
       std::vector<std::pair<std::string, std::string>>{
           {"--queries 10", "--queries"},
           {"--shards 0", "--shards"},
           {"--shards -3", "--shards"},
           {"--poll-every 0", "--poll-every"},
           {"--trace-sample 5", "--trace-sample"},
           {"--trace-sample -0.5", "--trace-sample"}}) {
    std::string stderr_text;
    const int status = RunCli("serve --bundle " + CkptPath("no_bundle") +
                                  " --port 0 --serve-seconds 0.3 " + flags,
                              &stderr_text);
    ASSERT_TRUE(WIFEXITED(status)) << flags << ": killed by a signal";
    EXPECT_EQ(WEXITSTATUS(status), 2) << flags;
    EXPECT_NE(stderr_text.find(name), std::string::npos)
        << flags << ": " << stderr_text;
    EXPECT_EQ(std::count(stderr_text.begin(), stderr_text.end(), '\n'), 1)
        << flags << ": " << stderr_text;
  }
}

TEST(CheckpointCliTest, RejectsOutOfRangeFlagsWithExit2) {
  // Each command's flag specs carry its numeric bounds: a value outside
  // them is one line naming the flag and exit 2, before any file is read or
  // written — never a silent clamp, a cast to 2^64-1 or an empty world.
  // A listener row that got past the check would serve only 0.3 s.
  const std::string scratch = CkptPath("cli_out_of_range");
  const std::string listen = " --serve-seconds 0.3 --wal-dir " + scratch;
  for (const auto& [flags, name] :
       std::vector<std::pair<std::string, std::string>>{
           {"generate --days -3 --out " + scratch + ".art", "--days"},
           {"train --world " + scratch + ".art --bundle " + scratch +
                " --ckpt " + scratch + ".ckpt --ckpt-every 0",
            "--ckpt-every"},
           {"stream --listen 0 --wal-dir " + scratch + " --publish-dir " +
                scratch + " --ckpt " + scratch + ".ckpt --ckpt-every 0",
            "--ckpt-every"},
           {"stream --listen -1" + listen, "--listen"},
           {"stream --listen 0 --segment-bytes -1" + listen,
            "--segment-bytes"},
           {"stream --listen 0 --snapshot-every -1" + listen,
            "--snapshot-every"}}) {
    std::string stderr_text;
    const int status = RunCli(flags, &stderr_text);
    ASSERT_TRUE(WIFEXITED(status)) << flags << ": killed by a signal";
    EXPECT_EQ(WEXITSTATUS(status), 2) << flags;
    EXPECT_NE(stderr_text.find(name), std::string::npos)
        << flags << ": " << stderr_text;
    EXPECT_EQ(std::count(stderr_text.begin(), stderr_text.end(), '\n'), 1)
        << flags << ": " << stderr_text;
  }
  EXPECT_FALSE(std::filesystem::exists(scratch + ".art"));
  EXPECT_FALSE(std::filesystem::exists(scratch));

  // The bound is inclusive: zero days is a valid, city-only world.
  const int status =
      RunCli("generate --preset dowbj --days 0 --out " + scratch + ".art");
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  std::string error;
  const std::optional<sim::World> world =
      LoadWorldArtifact(scratch + ".art", &error);
  ASSERT_TRUE(world.has_value()) << error;
  EXPECT_TRUE(world->trips.empty());
  EXPECT_FALSE(world->addresses.empty());
}

}  // namespace
}  // namespace io
}  // namespace dlinf
