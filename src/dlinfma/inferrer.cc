#include "dlinfma/inferrer.h"

#include <unordered_set>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dlinf {
namespace dlinfma {

Dataset MakeDataset(const sim::World& world, CandidateGeneration gen) {
  Dataset data;
  data.world = &world;
  data.gen = std::make_unique<CandidateGeneration>(std::move(gen));
  for (int64_t id : world.DeliveredAddressIds()) {
    switch (world.address(id).split) {
      case sim::Split::kTrain:
        data.train_ids.push_back(id);
        break;
      case sim::Split::kVal:
        data.val_ids.push_back(id);
        break;
      case sim::Split::kTest:
        data.test_ids.push_back(id);
        break;
    }
  }
  return data;
}

Dataset BuildDataset(const sim::World& world,
                     const CandidateGeneration::Options& options,
                     ThreadPool* pool) {
  obs::Span span("build_dataset");
  return MakeDataset(world, CandidateGeneration::Build(world, options, pool));
}

SampleSet ExtractSamples(const Dataset& data, const FeatureConfig& config) {
  CHECK(data.world != nullptr && data.gen != nullptr);
  obs::Span span("feature_extraction");
  FeatureExtractor extractor(data.world, data.gen.get(), config);
  SampleSet samples;
  samples.train = extractor.ExtractAll(data.train_ids, /*with_labels=*/true);
  samples.val = extractor.ExtractAll(data.val_ids, /*with_labels=*/true);
  samples.test = extractor.ExtractAll(data.test_ids, /*with_labels=*/true);
  obs::MetricsRegistry::Global()
      .GetCounter("pipeline.samples_extracted")
      ->Add(static_cast<int64_t>(samples.train.size() + samples.val.size() +
                                 samples.test.size()));
  return samples;
}

std::vector<Point> GroundTruthOf(const sim::World& world,
                                 const std::vector<AddressSample>& samples) {
  std::vector<Point> truth;
  truth.reserve(samples.size());
  for (const AddressSample& sample : samples) {
    truth.push_back(world.address(sample.address_id).true_delivery_location);
  }
  return truth;
}

}  // namespace dlinfma
}  // namespace dlinf
