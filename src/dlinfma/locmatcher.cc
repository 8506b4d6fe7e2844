#include "dlinfma/locmatcher.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"
#include "nn/loss.h"
#include "nn/ops.h"

namespace dlinf {
namespace dlinfma {

LocMatcherBatch MakeLocMatcherBatch(
    const std::vector<const AddressSample*>& samples) {
  CHECK(!samples.empty());
  const int batch = static_cast<int>(samples.size());
  int max_n = 0;
  for (const AddressSample* sample : samples) {
    CHECK(sample != nullptr);
    CHECK(!sample->features.empty());
    max_n = std::max(max_n, static_cast<int>(sample->features.size()));
  }

  std::vector<float> scalars(
      static_cast<size_t>(batch) * max_n * kNumScalarCandidateFeatures, 0.0f);
  std::vector<float> time_dist(static_cast<size_t>(batch) * max_n * 24, 0.0f);
  std::vector<float> deliveries(batch, 0.0f);

  LocMatcherBatch out;
  out.poi.resize(batch);
  out.valid.resize(batch);
  out.labels.resize(batch);
  for (int b = 0; b < batch; ++b) {
    const AddressSample& sample = *samples[b];
    const int n = static_cast<int>(sample.features.size());
    out.valid[b] = n;
    out.labels[b] = sample.label;
    out.poi[b] = sample.address.poi_category;
    deliveries[b] = static_cast<float>(sample.address.log_num_deliveries);
    for (int i = 0; i < n; ++i) {
      const CandidateFeatureVector& f = sample.features[i];
      float* srow =
          scalars.data() +
          (static_cast<size_t>(b) * max_n + i) * kNumScalarCandidateFeatures;
      srow[0] = static_cast<float>(f.trip_coverage);
      srow[1] = static_cast<float>(f.location_commonality);
      srow[2] = static_cast<float>(f.distance);
      srow[3] = static_cast<float>(f.avg_duration);
      srow[4] = static_cast<float>(f.num_couriers);
      float* trow = time_dist.data() + (static_cast<size_t>(b) * max_n + i) * 24;
      for (int h = 0; h < 24; ++h) {
        trow[h] = static_cast<float>(f.time_distribution[h]);
      }
    }
  }
  out.scalar_features = nn::Tensor::FromVector(
      {batch, max_n, kNumScalarCandidateFeatures}, std::move(scalars));
  out.time_dist =
      nn::Tensor::FromVector({batch, max_n, 24}, std::move(time_dist));
  out.num_deliveries =
      nn::Tensor::FromVector({batch, 1}, std::move(deliveries));
  return out;
}

LocMatcher::LocMatcher(const LocMatcherConfig& config, Rng* rng)
    : config_(config),
      time_dense_(config.time_bins, config.time_dense_dim, rng),
      input_dense_(kNumScalarCandidateFeatures + config.time_dense_dim,
                   config.model_dim, rng),
      poi_embed_(config.num_poi_categories, config.poi_embed_dim, rng),
      score_w_(config.model_dim, config.score_dim, rng),
      score_u_(config.poi_embed_dim + 1, config.score_dim, rng,
               /*bias=*/false),
      score_v_(config.score_dim, 1, rng, /*bias=*/false) {
  AddChild(&time_dense_);
  AddChild(&input_dense_);
  AddChild(&poi_embed_);
  AddChild(&score_w_);
  AddChild(&score_u_);
  AddChild(&score_v_);
  if (config.encoder == LocMatcherConfig::EncoderKind::kTransformer) {
    transformer_ = std::make_unique<nn::TransformerEncoder>(
        config.num_layers, config.model_dim, config.num_heads, config.ff_dim,
        config.dropout, rng);
    AddChild(transformer_.get());
  } else {
    lstm_ = std::make_unique<nn::Lstm>(config.model_dim, config.lstm_hidden,
                                       rng);
    lstm_proj_ =
        std::make_unique<nn::Linear>(config.lstm_hidden, config.model_dim, rng);
    AddChild(lstm_.get());
    AddChild(lstm_proj_.get());
  }
}

nn::Tensor LocMatcher::Forward(const LocMatcherBatch& batch,
                               const nn::FwdCtx& ctx) const {
  const int b = batch.scalar_features.dim(0);
  const int n = batch.scalar_features.dim(1);

  // Candidate feature encoding: dense(time distribution) ++ other features,
  // then a dense layer to the model width z.
  nn::Tensor time_embed = time_dense_.Forward(batch.time_dist);  // [B,N,r]
  nn::Tensor features =
      nn::Concat({batch.scalar_features, time_embed}, -1);  // [B,N,5+r]
  nn::Tensor x =
      input_dense_.Forward(features, nn::Activation::kRelu);  // [B,N,z]

  // Joint correlation modeling across the candidate set.
  nn::Tensor encoded;
  if (transformer_ != nullptr) {
    const nn::Tensor mask = nn::MakePaddingMask(batch.valid, n);
    encoded = transformer_->Forward(x, mask, ctx);  // [B,N,z]
  } else {
    encoded = lstm_proj_->Forward(lstm_->Forward(x));  // [B,N,z]
  }

  // Additive attention scoring (Eq. 3) with the address context vector.
  nn::Tensor scores = score_w_.Forward(encoded);  // [B,N,p]
  if (config_.use_address_context) {
    nn::Tensor context = nn::Concat(
        {poi_embed_.Forward(batch.poi), batch.num_deliveries}, -1);  // [B,m]
    nn::Tensor uc = nn::Reshape(score_u_.Forward(context),
                                {b, 1, config_.score_dim});  // [B,1,p]
    scores = nn::Add(scores, uc);
  }
  nn::Tensor logits = score_v_.Forward(nn::Tanh(scores));  // [B,N,1]
  return nn::Reshape(logits, {b, n});
}

void LocMatcher::ForEachLogitsBatch(
    const std::vector<AddressSample>& samples, int batch_size,
    const std::function<void(const LocMatcherBatch&, const nn::Tensor&,
                             const std::vector<size_t>&)>& fn) const {
  CHECK(!samples.empty());
  CHECK_GT(batch_size, 0);
  // Length-bucketing: chunk in descending candidate-count order so no batch
  // pads past its own widest sample (see the header for why this cannot
  // change any sample's logits).
  std::vector<size_t> order(samples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return samples[a].features.size() > samples[b].features.size();
  });

  // Every batch is built and run on the shared pool; `fn` then sees them in
  // batch order on this thread, so what it accumulates does not depend on
  // the pool's size.
  const size_t step = static_cast<size_t>(batch_size);
  const size_t num_batches = (order.size() + step - 1) / step;
  std::vector<LocMatcherBatch> batches(num_batches);
  std::vector<nn::Tensor> logits(num_batches);
  std::vector<std::vector<size_t>> indices(num_batches);
  ThreadPool::Shared().ParallelFor(
      static_cast<int64_t>(num_batches), [&](int64_t k) {
        // Inference-only path: no autograd tape, no gradient buffers. The
        // guard is per thread, so each task sets its own.
        nn::NoGradGuard no_grad;
        const size_t begin = static_cast<size_t>(k) * step;
        const size_t end = std::min(order.size(), begin + step);
        std::vector<const AddressSample*> chunk;
        for (size_t i = begin; i < end; ++i) {
          chunk.push_back(&samples[order[i]]);
          indices[k].push_back(order[i]);
        }
        batches[k] = MakeLocMatcherBatch(chunk);
        logits[k] = Forward(batches[k], nn::FwdCtx{});
      });
  nn::NoGradGuard no_grad;  // Nor do fn's own ops (EvaluateLoss's loss).
  for (size_t k = 0; k < num_batches; ++k) {
    fn(batches[k], logits[k], indices[k]);
  }
}

std::vector<int> LocMatcher::PredictIndices(
    const std::vector<AddressSample>& samples, int batch_size) const {
  std::vector<int> predictions(samples.size(), 0);
  ForEachLogitsBatch(
      samples, batch_size,
      [&](const LocMatcherBatch& batch, const nn::Tensor& logits,
          const std::vector<size_t>& indices) {
        const int n = logits.dim(1);
        for (size_t i = 0; i < indices.size(); ++i) {
          const float* row = logits.data().data() + i * n;
          int best = 0;
          for (int j = 1; j < batch.valid[i]; ++j) {
            if (row[j] > row[best]) best = j;
          }
          predictions[indices[i]] = best;
        }
      });
  return predictions;
}

std::vector<std::vector<float>> LocMatcher::PredictLogits(
    const std::vector<AddressSample>& samples, int batch_size) const {
  std::vector<std::vector<float>> out(samples.size());
  ForEachLogitsBatch(
      samples, batch_size,
      [&](const LocMatcherBatch& batch, const nn::Tensor& logits,
          const std::vector<size_t>& indices) {
        const int n = logits.dim(1);
        for (size_t i = 0; i < indices.size(); ++i) {
          const float* row = logits.data().data() + i * n;
          out[indices[i]].assign(row, row + batch.valid[i]);
        }
      });
  return out;
}

double LocMatcher::EvaluateLoss(const std::vector<AddressSample>& samples,
                                int batch_size) const {
  for (const AddressSample& sample : samples) {
    CHECK_GE(sample.label, 0) << "EvaluateLoss requires labels";
  }
  double total = 0.0;
  int64_t count = 0;
  ForEachLogitsBatch(
      samples, batch_size,
      [&](const LocMatcherBatch& batch, const nn::Tensor& logits,
          const std::vector<size_t>& indices) {
        const double loss =
            nn::MaskedCrossEntropy(logits, batch.valid, batch.labels).item();
        total += loss * static_cast<double>(indices.size());
        count += static_cast<int64_t>(indices.size());
      });
  return total / static_cast<double>(count);
}

}  // namespace dlinfma
}  // namespace dlinf
