#include "dlinfma/dlinfma_method.h"

#include "gtest/gtest.h"
#include "sim/generator.h"

namespace dlinf {
namespace dlinfma {
namespace {

class DlInfMaMethodTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::SimConfig config = sim::SynDowBJConfig();
    config.num_days = 8;
    config.num_communities = 8;
    world_ = new sim::World(sim::GenerateWorld(config));
    data_ = new Dataset(BuildDataset(*world_, {}));
    samples_ = new SampleSet(ExtractSamples(*data_, FeatureConfig{}));
  }
  static void TearDownTestSuite() {
    delete samples_;
    delete data_;
    delete world_;
  }
  static sim::World* world_;
  static Dataset* data_;
  static SampleSet* samples_;
};

sim::World* DlInfMaMethodTest::world_ = nullptr;
Dataset* DlInfMaMethodTest::data_ = nullptr;
SampleSet* DlInfMaMethodTest::samples_ = nullptr;

TEST_F(DlInfMaMethodTest, FitInferAndPersistRoundTrip) {
  TrainConfig train_config;
  train_config.max_epochs = 15;
  train_config.early_stop_patience = 15;
  DlInfMaMethod method("DLInfMA", LocMatcherConfig{}, train_config);
  method.Fit(*data_, *samples_);
  EXPECT_GT(method.train_result().epochs_run, 0);

  const std::vector<Point> before = method.InferAll(*data_, samples_->test);
  ASSERT_EQ(before.size(), samples_->test.size());

  const std::string blob = method.ExportParameters();
  ASSERT_FALSE(blob.empty());

  // A fresh method restores the exported weights and reproduces the
  // predictions exactly (the deployed-system path: infer without
  // retraining).
  DlInfMaMethod restored("DLInfMA", LocMatcherConfig{}, train_config);
  ASSERT_TRUE(restored.RestoreModel(blob));
  const std::vector<Point> after = restored.InferAll(*data_, samples_->test);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << "sample " << i;
  }
}

TEST_F(DlInfMaMethodTest, RestoreModelRejectsWrongArchitecture) {
  TrainConfig train_config;
  train_config.max_epochs = 2;
  DlInfMaMethod small("DLInfMA", LocMatcherConfig{}, train_config);
  small.Fit(*data_, *samples_);
  const std::string blob = small.ExportParameters();
  ASSERT_FALSE(blob.empty());

  LocMatcherConfig bigger;
  bigger.model_dim = 32;
  DlInfMaMethod other("DLInfMA", bigger, train_config);
  EXPECT_FALSE(other.RestoreModel(blob));
  EXPECT_FALSE(other.has_model());
}

TEST_F(DlInfMaMethodTest, ExportWithoutFitIsEmpty) {
  DlInfMaMethod method;
  EXPECT_TRUE(method.ExportParameters().empty());
}

TEST_F(DlInfMaMethodTest, EnsembleAveragesModels) {
  TrainConfig train_config;
  train_config.max_epochs = 5;
  train_config.early_stop_patience = 5;
  DlInfMaMethod ensemble("DLInfMA-E3", LocMatcherConfig{}, train_config,
                         /*ensemble_size=*/3);
  ensemble.Fit(*data_, *samples_);
  EXPECT_EQ(ensemble.ensemble_size(), 3);
  const std::vector<Point> out = ensemble.InferAll(*data_, samples_->test);
  ASSERT_EQ(out.size(), samples_->test.size());
  // Every prediction comes from the sample's candidate set.
  for (size_t i = 0; i < out.size(); ++i) {
    bool from_candidates = false;
    for (int64_t id : samples_->test[i].candidate_ids) {
      if (data_->gen->candidate(id).location == out[i]) from_candidates = true;
    }
    EXPECT_TRUE(from_candidates);
  }
  // Persistence is single-model-only by contract.
  EXPECT_TRUE(ensemble.ExportParameters().empty());
}

TEST_F(DlInfMaMethodTest, DeterministicAcrossRuns) {
  TrainConfig train_config;
  train_config.max_epochs = 6;
  DlInfMaMethod a("DLInfMA", LocMatcherConfig{}, train_config);
  DlInfMaMethod b("DLInfMA", LocMatcherConfig{}, train_config);
  a.Fit(*data_, *samples_);
  b.Fit(*data_, *samples_);
  const std::vector<Point> pa = a.InferAll(*data_, samples_->test);
  const std::vector<Point> pb = b.InferAll(*data_, samples_->test);
  for (size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

}  // namespace
}  // namespace dlinfma
}  // namespace dlinf
