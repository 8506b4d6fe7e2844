#include "dlinfma/locmatcher.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "dlinfma/trainer.h"
#include "gtest/gtest.h"
#include "nn/loss.h"

namespace dlinf {
namespace dlinfma {
namespace {

/// Synthetic samples where the positive candidate is identified by high TC
/// and low LC (and a mild duration cue), mimicking the real feature signal.
std::vector<AddressSample> MakeSyntheticSamples(int count, int max_candidates,
                                                Rng* rng) {
  std::vector<AddressSample> samples;
  for (int s = 0; s < count; ++s) {
    AddressSample sample;
    sample.address_id = s;
    const int n = static_cast<int>(rng->UniformInt(2, max_candidates));
    sample.label = static_cast<int>(rng->UniformInt(0, n - 1));
    for (int i = 0; i < n; ++i) {
      CandidateFeatureVector f;
      const bool positive = i == sample.label;
      f.trip_coverage =
          positive ? rng->Uniform(0.85, 1.0) : rng->Uniform(0.1, 0.9);
      f.location_commonality =
          positive ? rng->Uniform(0.0, 0.1) : rng->Uniform(0.0, 0.6);
      f.distance = rng->Uniform(0.0, 3.0);
      f.avg_duration = positive ? rng->Uniform(1.0, 2.5) : rng->Uniform(0.3, 2.0);
      f.num_couriers = rng->Uniform(1.0, 3.0);
      for (int h = 0; h < 24; ++h) f.time_distribution[h] = 0.0;
      f.time_distribution[static_cast<int>(rng->UniformInt(8, 20))] = 1.0;
      sample.features.push_back(f);
      sample.candidate_ids.push_back(i);
    }
    sample.address.log_num_deliveries = rng->Uniform(0.5, 2.5);
    sample.address.poi_category = static_cast<int>(rng->UniformInt(0, 20));
    samples.push_back(std::move(sample));
  }
  return samples;
}

TEST(BatchTest, PadsToMaxCandidates) {
  Rng rng(1);
  std::vector<AddressSample> samples = MakeSyntheticSamples(3, 6, &rng);
  samples[0].features.resize(2);
  samples[0].candidate_ids.resize(2);
  samples[0].label = 0;
  std::vector<const AddressSample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);
  const LocMatcherBatch batch = MakeLocMatcherBatch(ptrs);
  const int max_n = batch.scalar_features.dim(1);
  EXPECT_EQ(batch.scalar_features.dim(0), 3);
  EXPECT_EQ(batch.scalar_features.dim(2), kNumScalarCandidateFeatures);
  EXPECT_EQ(batch.time_dist.shape(),
            (nn::Shape{3, max_n, 24}));
  EXPECT_EQ(batch.valid[0], 2);
  // Padding slots are zero.
  for (int j = 2; j < max_n; ++j) {
    for (int f = 0; f < kNumScalarCandidateFeatures; ++f) {
      EXPECT_EQ(
          batch.scalar_features
              .data()[(0 * max_n + j) * kNumScalarCandidateFeatures + f],
          0.0f);
    }
  }
}

TEST(LocMatcherTest, ForwardShapeAndFiniteness) {
  Rng rng(2);
  LocMatcher model(LocMatcherConfig{}, &rng);
  std::vector<AddressSample> samples = MakeSyntheticSamples(4, 8, &rng);
  std::vector<const AddressSample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);
  const LocMatcherBatch batch = MakeLocMatcherBatch(ptrs);
  nn::FwdCtx ctx;
  const nn::Tensor logits = model.Forward(batch, ctx);
  EXPECT_EQ(logits.dim(0), 4);
  EXPECT_EQ(logits.dim(1), batch.scalar_features.dim(1));
  for (float v : logits.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(LocMatcherTest, PaddingInvariance) {
  // A sample's valid logits must not change, bit for bit, when it is
  // batched with wider samples (the attention padding mask) at any row
  // position: ForEachLogitsBatch's length bucketing relies on it. Batch
  // sizes 2..6 and widths up to 33 put the sample in every row of a 4-row
  // GEMM tile and its tail, and its columns in masked tail strips.
  Rng rng(3);
  LocMatcher model(LocMatcherConfig{}, &rng);
  std::vector<AddressSample> sample = MakeSyntheticSamples(1, 5, &rng);
  sample[0].features.resize(3);
  sample[0].candidate_ids.resize(3);
  sample[0].label = 0;
  nn::FwdCtx ctx;
  const nn::Tensor solo_logits =
      model.Forward(MakeLocMatcherBatch({&sample[0]}), ctx);
  ASSERT_EQ(solo_logits.dim(1), 3);
  auto bits = [](float v) {
    uint32_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  for (const int width : {3, 4, 9, 17, 33}) {
    for (int batch_size = 2; batch_size <= 6; ++batch_size) {
      std::vector<AddressSample> mates =
          MakeSyntheticSamples(batch_size - 1, width, &rng);
      // The first mate sets the padded width.
      while (static_cast<int>(mates[0].features.size()) < width) {
        mates[0].features.push_back(mates[0].features.back());
        mates[0].candidate_ids.push_back(
            static_cast<int>(mates[0].candidate_ids.size()));
      }
      for (int pos = 0; pos < batch_size; ++pos) {
        std::vector<const AddressSample*> batch;
        for (int i = 0, m = 0; i < batch_size; ++i) {
          batch.push_back(i == pos ? &sample[0] : &mates[m++]);
        }
        const nn::Tensor logits =
            model.Forward(MakeLocMatcherBatch(batch), ctx);
        ASSERT_EQ(logits.dim(1), width);
        for (int j = 0; j < 3; ++j) {
          EXPECT_EQ(bits(logits.data()[pos * width + j]),
                    bits(solo_logits.data()[j]))
              << "width " << width << " batch " << batch_size << " row "
              << pos << " candidate " << j;
        }
      }
    }
  }
}

// Scoring runs the forward in small length-sorted chunks on the pool and
// scatters each sample's logits into the 64-sample batches EvaluateLoss
// averages over: losses and logits are bit-equal to a forward per 64-sample
// batch, whatever the set's size.
TEST(LocMatcherTest, ChunkedScoringMatchesAForwardPerBatch) {
  Rng rng(17);
  LocMatcher model(LocMatcherConfig{}, &rng);
  for (const int count : {1, 63, 64, 65, 130}) {
    SCOPED_TRACE("samples: " + std::to_string(count));
    const std::vector<AddressSample> samples =
        MakeSyntheticSamples(count, 30, &rng);
    std::vector<size_t> order(samples.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return samples[a].features.size() > samples[b].features.size();
    });
    std::vector<std::vector<float>> want_logits(samples.size());
    double total = 0.0;
    nn::NoGradGuard no_grad;
    for (size_t begin = 0; begin < order.size(); begin += 64) {
      const size_t end = std::min(order.size(), begin + 64);
      std::vector<const AddressSample*> chunk;
      for (size_t i = begin; i < end; ++i) chunk.push_back(&samples[order[i]]);
      const LocMatcherBatch batch = MakeLocMatcherBatch(chunk);
      const nn::Tensor logits = model.Forward(batch, nn::FwdCtx{});
      const int n = logits.dim(1);
      for (size_t i = begin; i < end; ++i) {
        const float* row = logits.data().data() + (i - begin) * n;
        want_logits[order[i]].assign(row, row + batch.valid[i - begin]);
      }
      total += nn::MaskedCrossEntropy(logits, batch.valid, batch.labels)
                   .item() *
               static_cast<double>(end - begin);
    }
    const double want_loss = total / static_cast<double>(samples.size());

    EXPECT_EQ(model.EvaluateLoss(samples), want_loss);
    const std::vector<std::vector<float>> logits = model.PredictLogits(samples);
    ASSERT_EQ(logits.size(), want_logits.size());
    for (size_t i = 0; i < logits.size(); ++i) {
      ASSERT_EQ(logits[i].size(), want_logits[i].size()) << "sample " << i;
      EXPECT_EQ(std::memcmp(logits[i].data(), want_logits[i].data(),
                            logits[i].size() * sizeof(float)),
                0)
          << "sample " << i;
    }
  }
}

TEST(LocMatcherTest, PredictIndicesRespectsValidPrefix) {
  Rng rng(4);
  LocMatcher model(LocMatcherConfig{}, &rng);
  std::vector<AddressSample> samples = MakeSyntheticSamples(20, 7, &rng);
  const std::vector<int> picks = model.PredictIndices(samples, /*batch=*/6);
  ASSERT_EQ(picks.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_GE(picks[i], 0);
    EXPECT_LT(picks[i], static_cast<int>(samples[i].features.size()));
  }
}

TEST(LocMatcherTest, TrainingLearnsTheSyntheticRule) {
  Rng rng(5);
  std::vector<AddressSample> train = MakeSyntheticSamples(300, 10, &rng);
  std::vector<AddressSample> val = MakeSyntheticSamples(60, 10, &rng);
  std::vector<AddressSample> test = MakeSyntheticSamples(100, 10, &rng);

  Rng model_rng(6);
  LocMatcher model(LocMatcherConfig{}, &model_rng);
  TrainConfig config;
  config.max_epochs = 30;
  config.early_stop_patience = 30;  // Fixed-budget run.
  const TrainResult result = TrainLocMatcher(&model, train, val, config);
  EXPECT_GT(result.epochs_run, 0);
  EXPECT_LT(result.best_val_loss, 1.2);

  const std::vector<int> picks = model.PredictIndices(test);
  int correct = 0;
  for (size_t i = 0; i < test.size(); ++i) {
    if (picks[i] == test[i].label) ++correct;
  }
  // Signal is noisy by construction; well above the ~1/6 random baseline.
  EXPECT_GT(correct, 55);
}

TEST(LocMatcherTest, EvaluateLossMatchesUniformAtInit) {
  // With random init the loss should be around log(n) for n candidates.
  Rng rng(7);
  LocMatcher model(LocMatcherConfig{}, &rng);
  std::vector<AddressSample> samples = MakeSyntheticSamples(50, 8, &rng);
  const double loss = model.EvaluateLoss(samples);
  EXPECT_GT(loss, 0.5);
  EXPECT_LT(loss, 3.0);
}

TEST(LocMatcherTest, VariantConfigsConstructAndRun) {
  Rng rng(8);
  std::vector<AddressSample> samples = MakeSyntheticSamples(4, 6, &rng);

  LocMatcherConfig no_context;
  no_context.use_address_context = false;
  LocMatcher na(no_context, &rng);
  EXPECT_EQ(na.PredictIndices(samples).size(), samples.size());

  LocMatcherConfig lstm;
  lstm.encoder = LocMatcherConfig::EncoderKind::kLstm;
  LocMatcher pn(lstm, &rng);
  EXPECT_EQ(pn.PredictIndices(samples).size(), samples.size());
}

TEST(LocMatcherTest, ParameterCountsReflectConfig) {
  Rng rng(9);
  LocMatcher small(LocMatcherConfig{}, &rng);
  LocMatcherConfig big;
  big.num_layers = 5;
  LocMatcher bigger(big, &rng);
  EXPECT_GT(bigger.NumParameters(), small.NumParameters());
}

}  // namespace
}  // namespace dlinfma
}  // namespace dlinf
