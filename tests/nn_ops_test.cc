#include "nn/ops.h"

#include <cmath>
#include <vector>

#include "grad_check.h"
#include "gtest/gtest.h"
#include "nn/conv.h"
#include "nn/loss.h"
#include "nn/sample_groups.h"
#include "nn/tensor.h"

namespace dlinf {
namespace nn {
namespace {

Tensor Randn(const Shape& shape, Rng* rng, float scale = 1.0f) {
  std::vector<float> values(NumElements(shape));
  for (float& v : values) v = static_cast<float>(rng->Normal(0.0, scale));
  return Tensor::FromVector(shape, std::move(values), /*requires_grad=*/true);
}

TEST(TensorTest, FactoriesAndShape) {
  Tensor z = Tensor::Zeros({2, 3});
  EXPECT_EQ(z.rank(), 2);
  EXPECT_EQ(z.numel(), 6);
  EXPECT_EQ(z.dim(0), 2);
  EXPECT_EQ(z.dim(1), 3);
  for (float v : z.data()) EXPECT_EQ(v, 0.0f);

  Tensor f = Tensor::Full({4}, 2.5f);
  for (float v : f.data()) EXPECT_EQ(v, 2.5f);

  Tensor scalar = Tensor::FromVector({}, {7.0f});
  EXPECT_EQ(scalar.rank(), 0);
  EXPECT_EQ(scalar.item(), 7.0f);
}

TEST(TensorTest, GlorotRespectsFanLimits) {
  Rng rng(1);
  Tensor w = Tensor::GlorotUniform(30, 50, &rng);
  const float limit = std::sqrt(6.0f / 80.0f);
  for (float v : w.data()) {
    EXPECT_GE(v, -limit);
    EXPECT_LT(v, limit);
  }
}

TEST(OpsTest, AddForwardBroadcast) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3}, {10, 20, 30});
  Tensor c = Add(a, b);
  const std::vector<float> expected = {11, 22, 33, 14, 25, 36};
  EXPECT_EQ(c.data(), expected);
}

TEST(OpsTest, BroadcastMiddleAxis) {
  // [2,1,2] + [1,3,1] -> [2,3,2]
  Tensor a = Tensor::FromVector({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({1, 3, 1}, {10, 20, 30});
  Tensor c = Add(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 3, 2}));
  const std::vector<float> expected = {11, 12, 21, 22, 31, 32,
                                       13, 14, 23, 24, 33, 34};
  EXPECT_EQ(c.data(), expected);
}

TEST(OpsTest, MatMulSharedWeightForward) {
  // [2,2] @ [2,2]
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2}, {5, 6, 7, 8});
  Tensor c = MatMul(a, b);
  const std::vector<float> expected = {19, 22, 43, 50};
  EXPECT_EQ(c.data(), expected);
}

TEST(OpsTest, MatMulBatchedForward) {
  // [2,1,2] @ [2,2,1]
  Tensor a = Tensor::FromVector({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2, 1}, {1, 1, 2, 2});
  Tensor c = MatMul(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 1, 1}));
  EXPECT_EQ(c.data()[0], 3.0f);   // 1*1+2*1
  EXPECT_EQ(c.data()[1], 14.0f);  // 3*2+4*2
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Rng rng(7);
  Tensor x = Randn({3, 5}, &rng, 3.0f);
  Tensor y = Softmax(x);
  for (int r = 0; r < 3; ++r) {
    float sum = 0.0f;
    for (int j = 0; j < 5; ++j) sum += y.data()[r * 5 + j];
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(OpsTest, SoftmaxStableUnderLargeLogits) {
  Tensor x = Tensor::FromVector({1, 3}, {1000.0f, 1000.0f, -1000.0f});
  Tensor y = Softmax(x);
  EXPECT_NEAR(y.data()[0], 0.5f, 1e-5f);
  EXPECT_NEAR(y.data()[1], 0.5f, 1e-5f);
  EXPECT_NEAR(y.data()[2], 0.0f, 1e-5f);
}

TEST(OpsTest, PermuteForward) {
  Tensor x = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor y = Permute(x, {1, 0});
  ASSERT_EQ(y.shape(), (Shape{3, 2}));
  const std::vector<float> expected = {1, 4, 2, 5, 3, 6};
  EXPECT_EQ(y.data(), expected);
}

TEST(OpsTest, ConcatLastAxis) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 1}, {9, 8});
  Tensor c = Concat({a, b}, -1);
  ASSERT_EQ(c.shape(), (Shape{2, 3}));
  const std::vector<float> expected = {1, 2, 9, 3, 4, 8};
  EXPECT_EQ(c.data(), expected);
}

TEST(OpsTest, ConcatAxis1Of3d) {
  Tensor a = Tensor::FromVector({1, 1, 2}, {1, 2});
  Tensor b = Tensor::FromVector({1, 2, 2}, {3, 4, 5, 6});
  Tensor c = Concat({a, b}, 1);
  ASSERT_EQ(c.shape(), (Shape{1, 3, 2}));
  const std::vector<float> expected = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(c.data(), expected);
}

TEST(OpsTest, SliceAxisMiddle) {
  Tensor x = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor y = SliceAxis(x, 1, 1, 2);
  ASSERT_EQ(y.shape(), (Shape{2, 2}));
  const std::vector<float> expected = {2, 3, 5, 6};
  EXPECT_EQ(y.data(), expected);
}

TEST(OpsTest, EmbeddingLookupForward) {
  Tensor table =
      Tensor::FromVector({3, 2}, {0, 1, 10, 11, 20, 21}, true);
  Tensor out = EmbeddingLookup(table, {2, 0, 2});
  ASSERT_EQ(out.shape(), (Shape{3, 2}));
  const std::vector<float> expected = {20, 21, 0, 1, 20, 21};
  EXPECT_EQ(out.data(), expected);
}

TEST(OpsTest, DropoutEvalIsIdentity) {
  Rng rng(3);
  Tensor x = Randn({4, 4}, &rng);
  DropoutStream masks(&rng, 4);
  Tensor y = Dropout(x, 0.5f, /*training=*/false, &masks);
  EXPECT_EQ(y.data(), x.data());
}

TEST(OpsTest, DropoutTrainZeroesAndRescales) {
  Rng rng(3);
  Tensor x = Tensor::Full({1000}, 1.0f, true);
  DropoutStream masks(&rng, 1);
  Tensor y = Dropout(x, 0.5f, /*training=*/true, &masks);
  int zeros = 0;
  for (float v : y.data()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 2.0f, 1e-6f);
    }
  }
  EXPECT_GT(zeros, 400);
  EXPECT_LT(zeros, 600);
}

// --------------------------------------------------------------------------
// Gradient checks. Each op's analytic backward is verified against central
// differences on small random tensors.
// --------------------------------------------------------------------------

TEST(GradTest, AddBroadcast) {
  Rng rng(11);
  Tensor a = Randn({2, 3}, &rng);
  Tensor b = Randn({3}, &rng);
  ExpectGradientsMatch([&] { return Sum(Mul(Add(a, b), Add(a, b))); },
                       {a, b});
}

TEST(GradTest, SubDivMul) {
  Rng rng(12);
  Tensor a = Randn({2, 2}, &rng);
  Tensor b = Tensor::FromVector({2, 2}, {1.5f, 2.0f, -1.0f, 3.0f}, true);
  ExpectGradientsMatch([&] { return Sum(Div(Mul(a, b), Sub(b, a))); }, {a, b},
                       1e-2f, 5e-2f, 5e-3f);
}

TEST(GradTest, Nonlinearities) {
  Rng rng(13);
  Tensor x = Randn({3, 3}, &rng, 0.8f);
  ExpectGradientsMatch([&] { return Sum(Tanh(x)); }, {x});
  ExpectGradientsMatch([&] { return Sum(Sigmoid(x)); }, {x});
  ExpectGradientsMatch([&] { return Sum(Exp(x)); }, {x});
}

TEST(GradTest, ReluAwayFromKink) {
  Tensor x = Tensor::FromVector({4}, {-1.0f, -0.4f, 0.5f, 1.2f}, true);
  ExpectGradientsMatch([&] { return Sum(Mul(Relu(x), Relu(x))); }, {x});
}

TEST(GradTest, LogPositive) {
  Tensor x = Tensor::FromVector({3}, {0.5f, 1.0f, 2.0f}, true);
  ExpectGradientsMatch([&] { return Sum(Log(x)); }, {x}, 1e-3f);
}

TEST(GradTest, MatMulShared) {
  Rng rng(14);
  Tensor a = Randn({2, 3, 4}, &rng);
  Tensor w = Randn({4, 2}, &rng);
  ExpectGradientsMatch(
      [&] {
        Tensor y = MatMul(a, w);
        return Sum(Mul(y, y));
      },
      {a, w});
}

TEST(GradTest, MatMulBatched) {
  Rng rng(15);
  Tensor a = Randn({2, 2, 3}, &rng);
  Tensor b = Randn({2, 3, 2}, &rng);
  ExpectGradientsMatch(
      [&] {
        Tensor y = MatMul(a, b);
        return Sum(Mul(y, y));
      },
      {a, b});
}

TEST(GradTest, SoftmaxComposite) {
  Rng rng(16);
  Tensor x = Randn({2, 4}, &rng);
  Tensor weights = Randn({2, 4}, &rng);
  ExpectGradientsMatch([&] { return Sum(Mul(Softmax(x), weights)); }, {x});
}

TEST(GradTest, PermuteReshapeSliceConcat) {
  Rng rng(17);
  Tensor x = Randn({2, 3, 4}, &rng);
  ExpectGradientsMatch(
      [&] {
        Tensor p = Permute(x, {2, 0, 1});        // [4,2,3]
        Tensor r = Reshape(p, {4, 6});           // [4,6]
        Tensor s = SliceAxis(r, 1, 1, 3);        // [4,3]
        Tensor c = Concat({s, s}, -1);           // [4,6]
        return Sum(Mul(c, c));
      },
      {x});
}

TEST(GradTest, LayerNorm) {
  Rng rng(18);
  Tensor x = Randn({3, 5}, &rng);
  Tensor gamma = Randn({5}, &rng, 0.3f);
  Tensor beta = Randn({5}, &rng, 0.3f);
  Tensor mix = Randn({3, 5}, &rng);
  ExpectGradientsMatch(
      [&] { return Sum(Mul(LayerNormOp(x, gamma, beta), mix)); },
      {x, gamma, beta}, 1e-2f, 5e-2f, 5e-3f);
}

TEST(GradTest, Embedding) {
  Rng rng(19);
  Tensor table = Randn({4, 3}, &rng);
  const std::vector<int> indices = {1, 3, 1};
  ExpectGradientsMatch(
      [&] {
        Tensor e = EmbeddingLookup(table, indices);
        return Sum(Mul(e, e));
      },
      {table});
}

TEST(GradTest, MaskedCrossEntropy) {
  Rng rng(20);
  Tensor logits = Randn({3, 5}, &rng);
  const std::vector<int> valid = {5, 3, 2};
  const std::vector<int> labels = {4, 0, 1};
  ExpectGradientsMatch(
      [&] { return MaskedCrossEntropy(logits, valid, labels); }, {logits},
      1e-2f, 5e-2f, 5e-4f);
}

TEST(LossTest, MaskedCrossEntropyIgnoresPadding) {
  // Padding logits must not influence the loss.
  Tensor a = Tensor::FromVector({1, 3}, {1.0f, 2.0f, 100.0f}, true);
  Tensor b = Tensor::FromVector({1, 3}, {1.0f, 2.0f, -50.0f}, true);
  const std::vector<int> valid = {2};
  const std::vector<int> labels = {1};
  EXPECT_NEAR(MaskedCrossEntropy(a, valid, labels).item(),
              MaskedCrossEntropy(b, valid, labels).item(), 1e-6f);
}

TEST(GradTest, BceWithLogits) {
  Rng rng(21);
  Tensor logits = Randn({6}, &rng);
  const std::vector<float> targets = {1, 0, 1, 0, 0, 1};
  ExpectGradientsMatch(
      [&] { return BceWithLogits(logits, targets, /*pos_weight=*/4.0f); },
      {logits}, 1e-2f, 5e-2f, 5e-4f);
}

TEST(LossTest, BceMatchesClosedForm) {
  Tensor logits = Tensor::FromVector({2}, {0.0f, 0.0f});
  // sigmoid(0) = 0.5 -> loss = -log(0.5) for each case.
  const float loss = BceWithLogits(logits, {1.0f, 0.0f}).item();
  EXPECT_NEAR(loss, -std::log(0.5f), 1e-5f);
}

TEST(GradTest, Conv2d) {
  Rng rng(22);
  Tensor x = Randn({2, 2, 4, 4}, &rng);
  Tensor w = Randn({3, 2, 3, 3}, &rng, 0.5f);
  Tensor b = Randn({3}, &rng, 0.2f);
  ExpectGradientsMatch(
      [&] {
        Tensor y = Conv2d(x, w, b, /*pad=*/1);
        return Sum(Mul(y, y));
      },
      {x, w, b}, 1e-2f, 5e-2f, 5e-3f);
}

TEST(ConvTest, Conv2dIdentityKernel) {
  // 1x1 kernel with weight 1 reproduces the input plus bias.
  Tensor x = Tensor::FromVector({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor w = Tensor::FromVector({1, 1, 1, 1}, {1});
  Tensor b = Tensor::FromVector({1}, {10});
  Tensor y = Conv2d(x, w, b, 0);
  const std::vector<float> expected = {11, 12, 13, 14};
  EXPECT_EQ(y.data(), expected);
}

TEST(GradTest, MaxPoolAndUpsample) {
  Rng rng(23);
  Tensor x = Randn({1, 2, 5, 5}, &rng);
  ExpectGradientsMatch(
      [&] {
        Tensor pooled = MaxPool2x2(x);              // [1,2,2,2]
        Tensor up = UpsampleNearest(pooled, 5, 5);  // back to 5x5
        return Sum(Mul(up, up));
      },
      {x}, 1e-3f);
}

TEST(ConvTest, MaxPoolForward) {
  Tensor x = Tensor::FromVector({1, 1, 2, 4}, {1, 5, 2, 0, 3, 4, 8, 1});
  Tensor y = MaxPool2x2(x);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 1, 2}));
  EXPECT_EQ(y.data()[0], 5.0f);
  EXPECT_EQ(y.data()[1], 8.0f);
}

TEST(ConvTest, UpsampleOddTarget) {
  Tensor x = Tensor::FromVector({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor y = UpsampleNearest(x, 3, 3);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 3, 3}));
  // Rows map 0,0,1; columns map 0,0,1.
  const std::vector<float> expected = {1, 1, 2, 1, 1, 2, 3, 3, 4};
  EXPECT_EQ(y.data(), expected);
}

TEST(AutogradTest, GradAccumulatesAcrossSharedSubexpressions) {
  Tensor x = Tensor::FromVector({1}, {3.0f}, true);
  Tensor y = Add(x, x);  // dy/dx = 2
  Tensor loss = Sum(Mul(y, y));  // d/dx (2x)^2 = 8x = 24
  loss.Backward();
  EXPECT_NEAR(x.grad()[0], 24.0f, 1e-4f);
}

TEST(AutogradTest, GraphNodesAreFreedWhenResultsGoOutOfScope) {
  // Regression test: backward closures must not own their own node
  // (a shared_ptr self-cycle would leak the whole graph of every forward
  // pass — observed as multi-GB RSS during training before the fix).
  Tensor x = Tensor::FromVector({4}, {1, 2, 3, 4}, true);
  std::weak_ptr<internal::TensorImpl> leaked;
  {
    Tensor y = Mul(x, x);
    Tensor loss = Sum(y);
    leaked = loss.impl();
    loss.Backward();
  }
  EXPECT_TRUE(leaked.expired());
}

TEST(AutogradTest, BackwardTwiceAccumulates) {
  Tensor x = Tensor::FromVector({1}, {2.0f}, true);
  Sum(Mul(x, x)).Backward();
  EXPECT_NEAR(x.grad()[0], 4.0f, 1e-5f);
  Sum(Mul(x, x)).Backward();
  EXPECT_NEAR(x.grad()[0], 8.0f, 1e-5f);  // Accumulated, not overwritten.
  x.ZeroGrad();
  EXPECT_EQ(x.grad()[0], 0.0f);
}

}  // namespace
}  // namespace nn
}  // namespace dlinf
