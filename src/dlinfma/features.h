#ifndef DLINF_DLINFMA_FEATURES_H_
#define DLINF_DLINFMA_FEATURES_H_

#include <array>
#include <cstdint>
#include <vector>

#include "dlinfma/candidate_generation.h"
#include "ml/decision_tree.h"
#include "sim/world.h"

namespace dlinf {
namespace dlinfma {

/// Which features to compute; switching one off implements the corresponding
/// ablation of Table II (DLInfMA-nTC / -nD / -nP / -nLC / -LC_addr).
/// Disabled features are zeroed so that tensor layouts stay fixed.
struct FeatureConfig {
  bool use_trip_coverage = true;
  bool use_distance = true;
  bool use_profile = true;
  bool use_location_commonality = true;
  /// LC computed against the address's own trips instead of the building's
  /// (the paper's LC_addr ablation, expected to be worse).
  bool lc_address_based = false;
};

/// Per-(address, candidate) feature vector (Section IV-A).
/// Scalar features are pre-scaled to O(1) ranges for the neural models:
/// distance in hectometers, duration in minutes.
struct CandidateFeatureVector {
  double trip_coverage = 0.0;         ///< TC, Eq. (1), in [0, 1].
  double location_commonality = 0.0;  ///< LC, Eq. (2), in [0, 1].
  double distance = 0.0;              ///< Geodesic dist to geocode / 100 m.
  double avg_duration = 0.0;          ///< Profile: mean stay minutes.
  double num_couriers = 0.0;          ///< Profile: distinct couriers.
  std::array<double, 24> time_distribution{};  ///< Profile: visit hours.
};

/// Number of scalar candidate features ahead of the time distribution.
inline constexpr int kNumScalarCandidateFeatures = 5;

/// Address-level features (Section IV-A (3)).
struct AddressFeatures {
  double log_num_deliveries = 0.0;  ///< log(1 + |TR_j|).
  int poi_category = 0;             ///< 0..20 from the (simulated) geocoder.
};

/// Everything LocMatcher (or a variant model) needs about one address: its
/// retrieved candidates, their features, the address features, and — when
/// ground truth is available — the label (index of the candidate nearest the
/// true delivery location).
struct AddressSample {
  int64_t address_id = -1;
  std::vector<int64_t> candidate_ids;
  std::vector<CandidateFeatureVector> features;
  AddressFeatures address;
  int label = -1;  ///< Index into candidate_ids; -1 when unlabeled.
};

/// The Feature Extraction step (Section IV-A) on top of a candidate pool.
class FeatureExtractor {
 public:
  /// Both pointees must outlive the extractor.
  FeatureExtractor(const sim::World* world, const CandidateGeneration* gen,
                   const FeatureConfig& config = {});

  /// Features for one address. `with_label` additionally marks the candidate
  /// nearest to the ground-truth delivery location as positive (used for
  /// train/val sets — and for evaluation bookkeeping on test).
  AddressSample Extract(int64_t address_id, bool with_label) const;

  /// Batch extraction. Addresses whose trajectory evidence was entirely
  /// lost upstream (no retrievable candidates — possible under GPS fault
  /// injection, never with clean data) are skipped, not aborted on; each
  /// skip increments the `pipeline.addresses_without_candidates` counter.
  std::vector<AddressSample> ExtractAll(const std::vector<int64_t>& ids,
                                        bool with_labels) const;

  const FeatureConfig& config() const { return config_; }

 private:
  /// Extract over already-retrieved `candidate_ids`. `trip_marks` is an
  /// all-zero scratch buffer of num_trips() entries, left all-zero.
  AddressSample Extract(int64_t address_id, std::vector<int64_t> candidate_ids,
                        bool with_label, std::vector<uint8_t>* trip_marks) const;

  const sim::World* world_;
  const CandidateGeneration* gen_;
  FeatureConfig config_;
};

/// Flattens candidate i of a sample into a dense row for the classical
/// models (classification / pairwise-ranking variants): the 5 scalar
/// candidate features, 24 time bins, then the address features
/// [log_num_deliveries, poi_category]. Width = 31.
ml::FeatureRow FlattenFeatures(const AddressSample& sample, int i);

/// Width of FlattenFeatures rows.
inline constexpr int kFlatFeatureWidth = kNumScalarCandidateFeatures + 24 + 2;

}  // namespace dlinfma
}  // namespace dlinf

#endif  // DLINF_DLINFMA_FEATURES_H_
