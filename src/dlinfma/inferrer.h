#ifndef DLINF_DLINFMA_INFERRER_H_
#define DLINF_DLINFMA_INFERRER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "dlinfma/candidate_generation.h"
#include "dlinfma/features.h"
#include "sim/world.h"

namespace dlinf {
namespace dlinfma {

/// One dataset prepared for experiments: the world, its mined candidate
/// pool, and the delivered-address ids per spatial split.
struct Dataset {
  const sim::World* world = nullptr;
  std::unique_ptr<CandidateGeneration> gen;
  std::vector<int64_t> train_ids;
  std::vector<int64_t> val_ids;
  std::vector<int64_t> test_ids;
};

/// Wraps a mined candidate pool in a Dataset, splitting the delivered
/// addresses of `world` by their (spatially disjoint) community split tags.
/// BuildDataset and the online trainer both split through it.
Dataset MakeDataset(const sim::World& world, CandidateGeneration gen);

/// Runs the candidate-generation pipeline (stay points on `pool`, as in
/// CandidateGeneration::Build) and splits delivered addresses with
/// MakeDataset.
Dataset BuildDataset(const sim::World& world,
                     const CandidateGeneration::Options& options,
                     ThreadPool* pool = &ThreadPool::Shared());

/// Feature samples per split for a given feature configuration (ablations
/// re-extract with their own FeatureConfig over the same candidate pool).
/// All three splits carry labels; test labels are for bookkeeping only.
struct SampleSet {
  std::vector<AddressSample> train;
  std::vector<AddressSample> val;
  std::vector<AddressSample> test;
};

SampleSet ExtractSamples(const Dataset& data, const FeatureConfig& config);

/// Ground-truth delivery locations aligned with `samples`.
std::vector<Point> GroundTruthOf(const sim::World& world,
                                 const std::vector<AddressSample>& samples);

/// Common interface of every delivery-location inference method in the
/// repository: DLInfMA, all baselines (Table II) and all variants.
class Inferrer {
 public:
  virtual ~Inferrer() = default;

  virtual std::string name() const = 0;

  /// Trains on the dataset; heuristic methods override nothing.
  virtual void Fit(const Dataset& data, const SampleSet& samples) {
    (void)data;
    (void)samples;
  }

  /// Predicts a delivery location for every sample.
  virtual std::vector<Point> InferAll(
      const Dataset& data, const std::vector<AddressSample>& samples) = 0;
};

}  // namespace dlinfma
}  // namespace dlinf

#endif  // DLINF_DLINFMA_INFERRER_H_
