#include "baselines/unet_baseline.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "baselines/annotation_util.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "geo/geohash.h"
#include "nn/conv.h"
#include "nn/loss.h"
#include "nn/ops.h"
#include "nn/optimizer.h"

namespace dlinf {
namespace baselines {

/// Conv2d weights + bias as a registered module.
class SmallUnet::Conv2dLayer : public nn::Module {
 public:
  Conv2dLayer(int in_c, int out_c, int k, Rng* rng) : pad_(k / 2) {
    const float limit =
        std::sqrt(6.0f / static_cast<float>(in_c * k * k + out_c * k * k));
    weight_ = AddParameter(nn::Tensor::RandomUniform(
        {out_c, in_c, k, k}, -limit, limit, rng, /*requires_grad=*/true));
    bias_ =
        AddParameter(nn::Tensor::Zeros({out_c}, /*requires_grad=*/true));
  }

  nn::Tensor Forward(const nn::Tensor& x) const {
    return nn::Conv2d(x, weight_, bias_, pad_);
  }

 private:
  int pad_;
  nn::Tensor weight_;
  nn::Tensor bias_;
};

SmallUnet::~SmallUnet() = default;

SmallUnet::SmallUnet(Rng* rng) {
  enc1_ = std::make_unique<Conv2dLayer>(1, 8, 3, rng);
  enc2_ = std::make_unique<Conv2dLayer>(8, 8, 3, rng);
  bottleneck_ = std::make_unique<Conv2dLayer>(8, 16, 3, rng);
  dec1_ = std::make_unique<Conv2dLayer>(24, 8, 3, rng);
  head_ = std::make_unique<Conv2dLayer>(8, 1, 1, rng);
  AddChild(enc1_.get());
  AddChild(enc2_.get());
  AddChild(bottleneck_.get());
  AddChild(dec1_.get());
  AddChild(head_.get());
}

nn::Tensor SmallUnet::Forward(const nn::Tensor& x,
                              const nn::FwdCtx& ctx) const {
  (void)ctx;
  CHECK_EQ(x.rank(), 4);
  const int batch = x.dim(0);
  const int h = x.dim(2);
  const int w = x.dim(3);
  nn::Tensor e = nn::Relu(enc2_->Forward(nn::Relu(enc1_->Forward(x))));
  nn::Tensor down = nn::MaxPool2x2(e);
  nn::Tensor mid = nn::Relu(bottleneck_->Forward(down));
  nn::Tensor up = nn::UpsampleNearest(mid, h, w);
  nn::Tensor merged = nn::Concat({up, e}, /*axis=*/1);  // Skip connection.
  nn::Tensor out = head_->Forward(nn::Relu(dec1_->Forward(merged)));
  return nn::Reshape(out, {batch, h * w});
}

UnetBaseline::UnetBaseline() : UnetBaseline(Options()) {}

UnetBaseline::UnetBaseline(const Options& options)
    : options_(options), projection_(options.anchor) {}

bool UnetBaseline::BuildImage(int64_t address_id, bool with_label,
                              const sim::World& world, Image* image) const {
  auto it = annotations_.find(address_id);
  if (it == annotations_.end() || it->second.empty()) return false;

  // Center cell: the GeoHash cell holding the most annotated points.
  std::unordered_map<std::string, int> counts;
  for (const Point& p : it->second) {
    counts[GeohashEncode(projection_.Backward(p),
                         options_.geohash_precision)]++;
  }
  int best_count = 0;
  for (const auto& [hash, count] : counts) {
    if (count > best_count) {
      best_count = count;
      image->center_hash = hash;
    }
  }

  // Pixel values: annotation counts per cell, normalized by the max.
  const int side = 2 * options_.grid_half + 1;
  image->pixels.assign(static_cast<size_t>(side) * side, 0.0f);
  float max_count = 0.0f;
  for (int dy = -options_.grid_half; dy <= options_.grid_half; ++dy) {
    for (int dx = -options_.grid_half; dx <= options_.grid_half; ++dx) {
      const std::string hash = GeohashNeighbor(image->center_hash, dx, dy);
      auto cit = counts.find(hash);
      if (cit == counts.end()) continue;
      const int row = options_.grid_half - dy;  // North on top.
      const int col = dx + options_.grid_half;
      const float value = static_cast<float>(cit->second);
      image->pixels[static_cast<size_t>(row) * side + col] = value;
      max_count = std::max(max_count, value);
    }
  }
  if (max_count > 0) {
    for (float& v : image->pixels) v /= max_count;
  }

  image->label = -1;
  if (with_label) {
    const std::string truth_hash = GeohashEncode(
        projection_.Backward(world.address(address_id).true_delivery_location),
        options_.geohash_precision);
    for (int dy = -options_.grid_half; dy <= options_.grid_half; ++dy) {
      for (int dx = -options_.grid_half; dx <= options_.grid_half; ++dx) {
        if (GeohashNeighbor(image->center_hash, dx, dy) == truth_hash) {
          image->label = (options_.grid_half - dy) * side +
                         (dx + options_.grid_half);
        }
      }
    }
    // Off-image ground truth: the model "has no chance to make a correct
    // prediction" (Section V-C); such samples are skipped in training.
  }
  return true;
}

Point UnetBaseline::CellCenter(const std::string& center_hash,
                               int index) const {
  const int side = 2 * options_.grid_half + 1;
  const int row = index / side;
  const int col = index % side;
  const int dy = options_.grid_half - row;
  const int dx = col - options_.grid_half;
  const GeohashBox box = GeohashDecode(GeohashNeighbor(center_hash, dx, dy));
  return projection_.Forward(box.Center());
}

void UnetBaseline::Fit(const dlinfma::Dataset& data,
                       const dlinfma::SampleSet& samples) {
  Stopwatch watch;
  annotations_ = ComputeAnnotatedLocations(*data.world);
  const int side = 2 * options_.grid_half + 1;

  auto build_set = [&](const std::vector<dlinfma::AddressSample>& addrs) {
    std::vector<Image> images;
    for (const dlinfma::AddressSample& sample : addrs) {
      Image image;
      if (BuildImage(sample.address_id, /*with_label=*/true, *data.world,
                     &image) &&
          image.label >= 0) {
        images.push_back(std::move(image));
      }
    }
    return images;
  };
  std::vector<Image> train = build_set(samples.train);
  std::vector<Image> val = build_set(samples.val);
  CHECK(!train.empty()) << "UNet baseline found no trainable addresses";
  if (val.empty()) val = train;  // Degenerate split fallback.

  Rng rng(options_.seed);
  model_ = std::make_unique<SmallUnet>(&rng);
  nn::Adam adam(model_->Parameters(), options_.learning_rate);

  auto run_batch = [&](const std::vector<Image>& set, size_t begin,
                       size_t end, bool training) {
    const int b = static_cast<int>(end - begin);
    std::vector<float> pixels;
    pixels.reserve(static_cast<size_t>(b) * side * side);
    std::vector<int> labels;
    std::vector<int> valid(b, side * side);
    for (size_t i = begin; i < end; ++i) {
      pixels.insert(pixels.end(), set[i].pixels.begin(), set[i].pixels.end());
      labels.push_back(set[i].label);
    }
    nn::Tensor x =
        nn::Tensor::FromVector({b, 1, side, side}, std::move(pixels));
    nn::FwdCtx ctx{training};  // SmallUnet has no dropout.
    nn::Tensor logits = model_->Forward(x, ctx);
    return nn::MaskedCrossEntropy(logits, valid, labels);
  };
  auto eval_loss = [&](const std::vector<Image>& set) {
    double total = 0.0;
    for (size_t begin = 0; begin < set.size();
         begin += static_cast<size_t>(options_.batch_size)) {
      const size_t end = std::min(
          set.size(), begin + static_cast<size_t>(options_.batch_size));
      total += run_batch(set, begin, end, /*training=*/false).item() *
               static_cast<double>(end - begin);
    }
    return total / static_cast<double>(set.size());
  };

  std::vector<int> order(train.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  double best_val = 1e30;
  int stall = 0;
  std::vector<nn::Tensor> params = model_->Parameters();
  std::vector<std::vector<float>> best_params;
  for (int epoch = 0; epoch < options_.max_epochs; ++epoch) {
    rng.Shuffle(&order);
    std::vector<Image> shuffled;
    shuffled.reserve(train.size());
    for (int i : order) shuffled.push_back(train[i]);
    for (size_t begin = 0; begin < shuffled.size();
         begin += static_cast<size_t>(options_.batch_size)) {
      const size_t end = std::min(
          shuffled.size(), begin + static_cast<size_t>(options_.batch_size));
      adam.ZeroGrad();
      nn::Tensor loss = run_batch(shuffled, begin, end, /*training=*/true);
      loss.Backward();
      adam.Step();
    }
    const double val_loss = eval_loss(val);
    if (val_loss < best_val - 1e-5) {
      best_val = val_loss;
      stall = 0;
      best_params.clear();
      for (const nn::Tensor& p : params) best_params.push_back(p.data());
    } else if (++stall >= options_.early_stop_patience) {
      break;
    }
  }
  if (!best_params.empty()) {
    for (size_t i = 0; i < params.size(); ++i) params[i].data() = best_params[i];
  }
  fit_seconds_ = watch.ElapsedSeconds();
}

std::vector<Point> UnetBaseline::InferAll(
    const dlinfma::Dataset& data,
    const std::vector<dlinfma::AddressSample>& samples) {
  CHECK(model_ != nullptr) << "Fit must run before InferAll";
  const int side = 2 * options_.grid_half + 1;
  std::vector<Point> out;
  out.reserve(samples.size());
  nn::FwdCtx eval_ctx;
  for (const dlinfma::AddressSample& sample : samples) {
    Image image;
    if (!BuildImage(sample.address_id, /*with_label=*/false, *data.world,
                    &image)) {
      out.push_back(data.world->address(sample.address_id).geocoded_location);
      continue;
    }
    nn::Tensor x = nn::Tensor::FromVector({1, 1, side, side},
                                          std::vector<float>(image.pixels));
    nn::Tensor logits = model_->Forward(x, eval_ctx);
    int best = 0;
    for (int j = 1; j < side * side; ++j) {
      if (logits.data()[j] > logits.data()[best]) best = j;
    }
    // The predicted grid cell's spatial center is the inferred location —
    // the source of UNet's residual quantization error the paper discusses.
    out.push_back(CellCenter(image.center_hash, best));
  }
  return out;
}

}  // namespace baselines
}  // namespace dlinf
