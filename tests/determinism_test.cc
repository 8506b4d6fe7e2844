// Determinism regression: the candidate pipeline, feature extraction and
// batched LocMatcher scoring must produce bit-identical results regardless
// of the thread count used for the parallel stages (Section V-F
// parallelizes stay-point extraction at trajectory level; clustering
// windows and inference batches run on the shared pool). A call made from
// inside a shared-pool task runs its pool work inline, on one thread, so
// comparing it with a top-level call compares one thread with all of them.
// Guards future parallelism PRs against silently introducing
// thread-count-dependent output.

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "dlinfma/dlinfma_method.h"
#include "dlinfma/inferrer.h"
#include "gtest/gtest.h"
#include "sim/generator.h"

namespace dlinf {
namespace dlinfma {
namespace {

sim::World SmallWorld() {
  sim::SimConfig config = sim::SynDowBJConfig();
  config.num_days = 3;
  config.num_communities = 6;
  return sim::GenerateWorld(config);
}

/// Exact (bit-identical) equality over every field of a sample, doubles
/// compared with ==.
void ExpectSamplesIdentical(const std::vector<AddressSample>& a,
                            const std::vector<AddressSample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    EXPECT_EQ(a[i].address_id, b[i].address_id);
    EXPECT_EQ(a[i].candidate_ids, b[i].candidate_ids);
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].address.log_num_deliveries, b[i].address.log_num_deliveries);
    EXPECT_EQ(a[i].address.poi_category, b[i].address.poi_category);
    ASSERT_EQ(a[i].features.size(), b[i].features.size());
    for (size_t j = 0; j < a[i].features.size(); ++j) {
      const CandidateFeatureVector& fa = a[i].features[j];
      const CandidateFeatureVector& fb = b[i].features[j];
      EXPECT_EQ(fa.trip_coverage, fb.trip_coverage);
      EXPECT_EQ(fa.location_commonality, fb.location_commonality);
      EXPECT_EQ(fa.distance, fb.distance);
      EXPECT_EQ(fa.avg_duration, fb.avg_duration);
      EXPECT_EQ(fa.num_couriers, fb.num_couriers);
      EXPECT_EQ(fa.time_distribution, fb.time_distribution);
    }
  }
}

void ExpectSampleSetsIdentical(const SampleSet& a, const SampleSet& b) {
  {
    SCOPED_TRACE("train");
    ExpectSamplesIdentical(a.train, b.train);
  }
  {
    SCOPED_TRACE("val");
    ExpectSamplesIdentical(a.val, b.val);
  }
  {
    SCOPED_TRACE("test");
    ExpectSamplesIdentical(a.test, b.test);
  }
}

TEST(DeterminismTest, PipelineIsThreadCountInvariant) {
  const sim::World world = SmallWorld();

  ThreadPool pool1(1);
  const Dataset data1 = BuildDataset(world, {}, &pool1);
  const SampleSet samples1 = ExtractSamples(data1, {});

  ThreadPool pool8(8);
  const Dataset data8 = BuildDataset(world, {}, &pool8);
  const SampleSet samples8 = ExtractSamples(data8, {});

  EXPECT_EQ(data1.train_ids, data8.train_ids);
  EXPECT_EQ(data1.val_ids, data8.val_ids);
  EXPECT_EQ(data1.test_ids, data8.test_ids);
  EXPECT_EQ(data1.gen->stay_points().size(), data8.gen->stay_points().size());
  EXPECT_EQ(data1.gen->candidates().size(), data8.gen->candidates().size());
  ExpectSampleSetsIdentical(samples1, samples8);
}

TEST(DeterminismTest, ParallelMatchesSerialPipeline) {
  const sim::World world = SmallWorld();

  const Dataset serial = BuildDataset(world, {}, /*pool=*/nullptr);
  const SampleSet serial_samples = ExtractSamples(serial, {});

  ThreadPool pool(8);
  const Dataset parallel = BuildDataset(world, {}, &pool);
  const SampleSet parallel_samples = ExtractSamples(parallel, {});

  ExpectSampleSetsIdentical(serial_samples, parallel_samples);
}

TEST(DeterminismTest, RepeatedRunsAreIdentical) {
  const sim::World world = SmallWorld();
  ThreadPool pool(4);
  const Dataset a = BuildDataset(world, {}, &pool);
  const Dataset b = BuildDataset(world, {}, &pool);
  ExpectSampleSetsIdentical(ExtractSamples(a, {}), ExtractSamples(b, {}));
}

/// Runs `fn` inside one task of the shared pool, where any ParallelFor it
/// makes on that pool runs inline.
template <typename Fn>
void InSharedPoolTask(const Fn& fn) {
  ThreadPool::Shared().ParallelFor(1, [&fn](int64_t) { fn(); });
}

TEST(DeterminismTest, CandidateBuildIsIdenticalInsideAPoolTask) {
  const sim::World world = SmallWorld();
  const Dataset top = BuildDataset(world, {});
  std::unique_ptr<Dataset> inline_data;
  InSharedPoolTask([&] {
    inline_data = std::make_unique<Dataset>(BuildDataset(world, {}));
  });
  const std::vector<LocationCandidate>& a = top.gen->candidates();
  const std::vector<LocationCandidate>& b = inline_data->gen->candidates();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].location.x, b[i].location.x) << "candidate " << i;
    EXPECT_EQ(a[i].location.y, b[i].location.y) << "candidate " << i;
    EXPECT_EQ(a[i].num_stay_points, b[i].num_stay_points) << "candidate " << i;
  }
  ExpectSampleSetsIdentical(ExtractSamples(top, {}),
                            ExtractSamples(*inline_data, {}));
}

TEST(DeterminismTest, ScoringIsIdenticalInsideAPoolTask) {
  const sim::World world = SmallWorld();
  const Dataset data = BuildDataset(world, {});
  const SampleSet samples = ExtractSamples(data, {});
  TrainConfig train_config;
  train_config.max_epochs = 1;
  DlInfMaMethod method("DLInfMA", LocMatcherConfig{}, train_config);
  method.Fit(data, samples);
  // Small batches, so even this world spans several of them.
  const LocMatcher& model = *method.model();
  const double loss = model.EvaluateLoss(samples.train, /*batch_size=*/8);
  const std::vector<Point> answers = method.InferAll(data, samples.train);

  double inline_loss = 0.0;
  std::vector<Point> inline_answers;
  InSharedPoolTask([&] {
    inline_loss = model.EvaluateLoss(samples.train, /*batch_size=*/8);
    inline_answers = method.InferAll(data, samples.train);
  });
  EXPECT_EQ(loss, inline_loss);
  ASSERT_EQ(answers.size(), inline_answers.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(answers[i].x, inline_answers[i].x) << "sample " << i;
    EXPECT_EQ(answers[i].y, inline_answers[i].y) << "sample " << i;
  }
}

// The fit's validation losses run on the pool too: a fit whose every
// EvaluateLoss runs inline on one thread ends on the same parameters.
TEST(DeterminismTest, FitIsIdenticalInsideAPoolTask) {
  const sim::World world = SmallWorld();
  const Dataset data = BuildDataset(world, {});
  const SampleSet samples = ExtractSamples(data, {});
  TrainConfig train_config;
  train_config.max_epochs = 2;
  DlInfMaMethod top("DLInfMA", LocMatcherConfig{}, train_config);
  top.Fit(data, samples);
  DlInfMaMethod inline_fit("DLInfMA", LocMatcherConfig{}, train_config);
  InSharedPoolTask([&] { inline_fit.Fit(data, samples); });
  EXPECT_EQ(top.train_result().best_val_loss,
            inline_fit.train_result().best_val_loss);
  EXPECT_TRUE(top.ExportParameters() == inline_fit.ExportParameters());
}

}  // namespace
}  // namespace dlinfma
}  // namespace dlinf
