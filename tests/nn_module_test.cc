#include "nn/module.h"

#include <cmath>
#include <vector>

#include "grad_check.h"
#include "gtest/gtest.h"
#include "nn/loss.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace dlinf {
namespace nn {
namespace {

Tensor Randn(const Shape& shape, Rng* rng, float scale = 1.0f) {
  std::vector<float> values(NumElements(shape));
  for (float& v : values) v = static_cast<float>(rng->Normal(0.0, scale));
  return Tensor::FromVector(shape, std::move(values), /*requires_grad=*/true);
}

TEST(LinearTest, ShapesAndParameterCount) {
  Rng rng(1);
  Linear layer(5, 3, &rng);
  EXPECT_EQ(layer.NumParameters(), 5 * 3 + 3);
  Tensor x = Tensor::Zeros({4, 7, 5});
  Tensor y = layer.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{4, 7, 3}));
}

TEST(LinearTest, NoBiasVariant) {
  Rng rng(1);
  Linear layer(5, 1, &rng, /*bias=*/false);
  EXPECT_EQ(layer.NumParameters(), 5);
}

TEST(LinearTest, GradientFlowsToParameters) {
  Rng rng(2);
  Linear layer(3, 2, &rng);
  Tensor x = Randn({4, 3}, &rng);
  std::vector<Tensor> inputs = layer.Parameters();
  inputs.push_back(x);
  ExpectGradientsMatch(
      [&] {
        Tensor y = layer.Forward(x);
        return Sum(Mul(y, y));
      },
      inputs);
}

TEST(EmbeddingTest, LookupShape) {
  Rng rng(3);
  Embedding embed(21, 3, &rng);  // 21 POI categories -> R^3 as in the paper.
  Tensor e = embed.Forward({0, 20, 5});
  EXPECT_EQ(e.shape(), (Shape{3, 3}));
  EXPECT_EQ(embed.NumParameters(), 21 * 3);
}

TEST(LayerNormTest, NormalizesRows) {
  Rng rng(4);
  LayerNorm norm(6);
  Tensor x = Randn({5, 6}, &rng, 4.0f);
  Tensor y = norm.Forward(x);
  for (int r = 0; r < 5; ++r) {
    double mean = 0.0;
    for (int j = 0; j < 6; ++j) mean += y.data()[r * 6 + j];
    mean /= 6;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    double var = 0.0;
    for (int j = 0; j < 6; ++j) {
      var += (y.data()[r * 6 + j] - mean) * (y.data()[r * 6 + j] - mean);
    }
    EXPECT_NEAR(var / 6, 1.0, 1e-2);
  }
}

TEST(AttentionTest, OutputShapeAndMaskInvariance) {
  Rng rng(5);
  MultiHeadSelfAttention mha(8, 2, /*dropout=*/0.0f, &rng);
  FwdCtx ctx;  // Eval mode.

  // Two samples, 4 slots; sample 0 has 2 valid candidates, sample 1 has 4.
  Tensor x = Randn({2, 4, 8}, &rng);
  const std::vector<int> valid = {2, 4};
  Tensor mask = MakePaddingMask(valid, 4);
  Tensor y = mha.Forward(x, mask, ctx);
  EXPECT_EQ(y.shape(), (Shape{2, 4, 8}));

  // Changing a padded slot's features must not change valid outputs.
  Tensor x2 = Tensor::FromVector({2, 4, 8}, x.data());
  for (int j = 0; j < 8; ++j) x2.data()[2 * 8 + j] += 100.0f;  // Slot 2 of sample 0.
  Tensor y2 = mha.Forward(x2, mask, ctx);
  for (int slot = 0; slot < 2; ++slot) {
    for (int j = 0; j < 8; ++j) {
      EXPECT_NEAR(y.data()[slot * 8 + j], y2.data()[slot * 8 + j], 1e-4f)
          << "sample 0 slot " << slot;
    }
  }
}

TEST(AttentionTest, GradientsFlowThroughAllProjections) {
  Rng rng(6);
  MultiHeadSelfAttention mha(4, 2, 0.0f, &rng);
  FwdCtx ctx;
  Tensor x = Randn({1, 3, 4}, &rng, 0.5f);
  std::vector<Tensor> inputs = mha.Parameters();
  inputs.push_back(x);
  ExpectGradientsMatch(
      [&] {
        Tensor y = mha.Forward(x, Tensor(), ctx);
        return Sum(Mul(y, y));
      },
      inputs, 1e-2f, 5e-2f, 5e-3f);
}

TEST(TransformerTest, EncoderShapeAndDeterminismInEval) {
  Rng rng(7);
  TransformerEncoder encoder(3, 8, 2, 32, /*dropout=*/0.1f, &rng);
  FwdCtx eval_ctx;  // Dropout disabled.
  Tensor x = Randn({2, 5, 8}, &rng);
  Tensor mask = MakePaddingMask({3, 5}, 5);
  Tensor y1 = encoder.Forward(x, mask, eval_ctx);
  Tensor y2 = encoder.Forward(x, mask, eval_ctx);
  EXPECT_EQ(y1.shape(), (Shape{2, 5, 8}));
  EXPECT_EQ(y1.data(), y2.data());
}

TEST(TransformerTest, TrainModeDropoutPerturbs) {
  Rng rng(8);
  TransformerEncoder encoder(1, 8, 2, 16, /*dropout=*/0.5f, &rng);
  Tensor x = Randn({1, 4, 8}, &rng);
  DropoutStream masks(&rng, 1);
  FwdCtx train_ctx{/*training=*/true, &masks};
  Tensor y1 = encoder.Forward(x, Tensor(), train_ctx);
  Tensor y2 = encoder.Forward(x, Tensor(), train_ctx);
  EXPECT_NE(y1.data(), y2.data());
}

TEST(LstmTest, ShapeAndGradients) {
  Rng rng(9);
  Lstm lstm(3, 4, &rng);
  Tensor x = Randn({2, 5, 3}, &rng, 0.5f);
  Tensor y = lstm.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 5, 4}));

  std::vector<Tensor> inputs = lstm.Parameters();
  ExpectGradientsMatch(
      [&] {
        Tensor out = lstm.Forward(x);
        return Sum(Mul(out, out));
      },
      inputs, 1e-2f, 5e-2f, 5e-3f);
}

TEST(LstmTest, LaterOutputsDependOnEarlierInputs) {
  Rng rng(10);
  Lstm lstm(2, 3, &rng);
  Tensor x = Randn({1, 4, 2}, &rng);
  Tensor y = lstm.Forward(x);
  Tensor x2 = Tensor::FromVector({1, 4, 2}, x.data());
  x2.data()[0] += 1.0f;  // Perturb t = 0.
  Tensor y2 = lstm.Forward(x2);
  // The last step's output must differ (state carries forward).
  bool changed = false;
  for (int j = 0; j < 3; ++j) {
    if (std::fabs(y.data()[3 * 3 + j] - y2.data()[3 * 3 + j]) > 1e-6f) {
      changed = true;
    }
  }
  EXPECT_TRUE(changed);
}

TEST(MlpTest, HiddenReluTopology) {
  Rng rng(11);
  Mlp mlp({6, 16, 1}, &rng);
  EXPECT_EQ(mlp.NumParameters(), 6 * 16 + 16 + 16 * 1 + 1);
  Tensor x = Randn({3, 6}, &rng);
  EXPECT_EQ(mlp.Forward(x).shape(), (Shape{3, 1}));
}

TEST(OptimizerTest, SgdDescendsQuadratic) {
  Tensor x = Tensor::FromVector({1}, {5.0f}, true);
  Sgd sgd({x}, 0.1f);
  for (int i = 0; i < 100; ++i) {
    sgd.ZeroGrad();
    Sum(Mul(x, x)).Backward();
    sgd.Step();
  }
  EXPECT_NEAR(x.data()[0], 0.0f, 1e-4f);
}

TEST(OptimizerTest, AdamDescendsQuadratic) {
  Tensor x = Tensor::FromVector({2}, {3.0f, -4.0f}, true);
  Adam adam({x}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    adam.ZeroGrad();
    Sum(Mul(x, x)).Backward();
    adam.Step();
  }
  EXPECT_NEAR(x.data()[0], 0.0f, 1e-2f);
  EXPECT_NEAR(x.data()[1], 0.0f, 1e-2f);
}

TEST(OptimizerTest, HalvingScheduleHalvesEveryKEpochs) {
  Tensor x = Tensor::FromVector({1}, {1.0f}, true);
  Adam adam({x}, 1e-4f);
  HalvingSchedule schedule(&adam, 5);
  for (int epoch = 0; epoch < 4; ++epoch) schedule.OnEpochEnd();
  EXPECT_FLOAT_EQ(adam.learning_rate(), 1e-4f);
  schedule.OnEpochEnd();  // Epoch 5.
  EXPECT_FLOAT_EQ(adam.learning_rate(), 5e-5f);
  for (int epoch = 0; epoch < 5; ++epoch) schedule.OnEpochEnd();
  EXPECT_FLOAT_EQ(adam.learning_rate(), 2.5e-5f);
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  Rng rng(12);
  Mlp mlp({4, 8, 2}, &rng);
  std::vector<Tensor> params = mlp.Parameters();
  const std::string blob = EncodeParameters(params);

  // Scramble, decode, verify restoration.
  std::vector<std::vector<float>> original;
  for (const Tensor& p : params) original.push_back(p.data());
  for (Tensor& p : params) {
    for (float& v : p.data()) v = -1234.5f;
  }
  ASSERT_TRUE(DecodeParameters(blob, &params));
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(params[i].data(), original[i]);
  }
}

TEST(SerializeTest, LoadRejectsShapeMismatch) {
  Rng rng(13);
  Mlp small({4, 2}, &rng);
  Mlp big({4, 3}, &rng);
  const std::string blob = EncodeParameters(small.Parameters());
  std::vector<Tensor> big_params = big.Parameters();
  EXPECT_FALSE(DecodeParameters(blob, &big_params));
}

TEST(TrainingTest, TinyNetworkLearnsXor) {
  // End-to-end sanity check of the full stack: a 2-16-1 MLP learns XOR.
  Rng rng(14);
  Mlp mlp({2, 16, 1}, &rng);
  Adam adam(mlp.Parameters(), 0.02f);
  const std::vector<std::vector<float>> inputs = {
      {0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<float> targets = {0, 1, 1, 0};
  Tensor x = Tensor::FromVector(
      {4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  for (int step = 0; step < 800; ++step) {
    adam.ZeroGrad();
    Tensor logits = Reshape(mlp.Forward(x), {4});
    Tensor loss = BceWithLogits(logits, targets);
    loss.Backward();
    adam.Step();
  }
  Tensor logits = Reshape(mlp.Forward(x), {4});
  for (int i = 0; i < 4; ++i) {
    const float p = 1.0f / (1.0f + std::exp(-logits.data()[i]));
    EXPECT_NEAR(p, targets[i], 0.2f) << "sample " << i;
  }
}

}  // namespace
}  // namespace nn
}  // namespace dlinf
