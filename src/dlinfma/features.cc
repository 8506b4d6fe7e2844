#include "dlinfma/features.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace dlinf {
namespace dlinfma {

FeatureExtractor::FeatureExtractor(const sim::World* world,
                                   const CandidateGeneration* gen,
                                   const FeatureConfig& config)
    : world_(world), gen_(gen), config_(config) {
  CHECK(world != nullptr);
  CHECK(gen != nullptr);
}

AddressSample FeatureExtractor::Extract(int64_t address_id,
                                        bool with_label) const {
  std::vector<uint8_t> trip_marks(static_cast<size_t>(gen_->num_trips()), 0);
  return Extract(address_id, gen_->Retrieve(address_id), with_label,
                 &trip_marks);
}

AddressSample FeatureExtractor::Extract(int64_t address_id,
                                        std::vector<int64_t> candidate_ids,
                                        bool with_label,
                                        std::vector<uint8_t>* trip_marks) const {
  const sim::Address& addr = world_->address(address_id);
  AddressSample sample;
  sample.address_id = address_id;
  sample.candidate_ids = std::move(candidate_ids);
  CHECK(!sample.candidate_ids.empty())
      << "address" << address_id << "has no location candidates";

  const std::vector<AddressTripRecord>& records =
      gen_->address_trips(address_id);
  const double num_trips_j = static_cast<double>(records.size());

  // Per-trip marks over the dense trip ids: the address's own trips (TC),
  // and the trips "excluded" from the LC denominator — the building's trips
  // by default, or the address's own trips for the LC_addr ablation. Every
  // mark set here is cleared before returning, so the buffer stays zero.
  constexpr uint8_t kOwn = 1;
  constexpr uint8_t kExcluded = 2;
  std::vector<uint8_t>& marks = *trip_marks;
  auto mark = [&marks](int64_t trip_id, uint8_t bit) {
    CHECK(trip_id >= 0 && trip_id < static_cast<int64_t>(marks.size()));
    const bool fresh = (marks[trip_id] & bit) == 0;
    marks[trip_id] |= bit;
    return fresh;
  };
  const std::vector<int64_t>& building_trips =
      gen_->trips_of_building(addr.building_id);
  int64_t num_excluded = 0;
  for (const AddressTripRecord& r : records) {
    mark(r.trip_id, kOwn);
    if (config_.lc_address_based) num_excluded += mark(r.trip_id, kExcluded);
  }
  if (!config_.lc_address_based) {
    for (int64_t trip_id : building_trips) {
      num_excluded += mark(trip_id, kExcluded);
    }
  }
  const double lc_denominator = static_cast<double>(gen_->num_trips()) -
                                static_cast<double>(num_excluded);

  sample.features.reserve(sample.candidate_ids.size());
  for (int64_t candidate_id : sample.candidate_ids) {
    const LocationCandidate& candidate = gen_->candidate(candidate_id);
    const std::vector<int64_t>& through = gen_->trips_through(candidate_id);

    CandidateFeatureVector f;
    if (config_.use_trip_coverage && num_trips_j > 0) {
      int64_t covered = 0;
      for (int64_t trip_id : through) covered += (marks[trip_id] & kOwn) != 0;
      f.trip_coverage = static_cast<double>(covered) / num_trips_j;
    }
    if (config_.use_location_commonality && lc_denominator > 0) {
      int64_t outside = 0;
      for (int64_t trip_id : through) {
        outside += (marks[trip_id] & kExcluded) == 0;
      }
      f.location_commonality = static_cast<double>(outside) / lc_denominator;
    }
    if (config_.use_distance) {
      // Log-compressed distance: stabilizes the heavy right tail (wrong
      // geocodes put every candidate hundreds of meters away) for the
      // neural scorer; monotone, so tree-based methods are unaffected.
      f.distance = std::log1p(
          Distance(candidate.location, addr.geocoded_location) / 10.0);
    }
    if (config_.use_profile) {
      f.avg_duration = candidate.profile.avg_duration_s / 60.0;
      f.num_couriers = static_cast<double>(candidate.profile.num_couriers);
      f.time_distribution = candidate.profile.time_distribution;
    }
    sample.features.push_back(f);
  }

  for (const AddressTripRecord& r : records) marks[r.trip_id] = 0;
  for (int64_t trip_id : building_trips) marks[trip_id] = 0;

  sample.address.log_num_deliveries = std::log1p(num_trips_j);
  sample.address.poi_category = addr.poi_category;

  if (with_label) {
    // Positive label: the candidate nearest the ground-truth location
    // (Section V-A labeling rule).
    int best = 0;
    double best_d = Distance(
        gen_->candidate(sample.candidate_ids[0]).location,
        addr.true_delivery_location);
    for (size_t i = 1; i < sample.candidate_ids.size(); ++i) {
      const double d =
          Distance(gen_->candidate(sample.candidate_ids[i]).location,
                   addr.true_delivery_location);
      if (d < best_d) {
        best_d = d;
        best = static_cast<int>(i);
      }
    }
    sample.label = best;
  }
  return sample;
}

std::vector<AddressSample> FeatureExtractor::ExtractAll(
    const std::vector<int64_t>& ids, bool with_labels) const {
  std::vector<AddressSample> samples;
  samples.reserve(ids.size());
  std::vector<uint8_t> trip_marks(static_cast<size_t>(gen_->num_trips()), 0);
  int64_t skipped = 0;
  for (int64_t id : ids) {
    // A delivered address can end up with zero candidates when its
    // trajectory evidence was lost upstream (GPS dropouts, dropped trips —
    // see fault/fault.h); there is nothing to extract features over, so
    // the address is dropped from the sample set rather than aborting.
    std::vector<int64_t> candidate_ids = gen_->Retrieve(id);
    if (candidate_ids.empty()) {
      ++skipped;
      continue;
    }
    samples.push_back(
        Extract(id, std::move(candidate_ids), with_labels, &trip_marks));
  }
  if (skipped > 0) {
    obs::MetricsRegistry::Global()
        .GetCounter("pipeline.addresses_without_candidates")
        ->Add(skipped);
  }
  return samples;
}

ml::FeatureRow FlattenFeatures(const AddressSample& sample, int i) {
  CHECK(i >= 0 && i < static_cast<int>(sample.features.size()));
  const CandidateFeatureVector& f = sample.features[i];
  ml::FeatureRow row;
  row.reserve(kFlatFeatureWidth);
  row.push_back(f.trip_coverage);
  row.push_back(f.location_commonality);
  row.push_back(f.distance);
  row.push_back(f.avg_duration);
  row.push_back(f.num_couriers);
  for (double bin : f.time_distribution) row.push_back(bin);
  row.push_back(sample.address.log_num_deliveries);
  row.push_back(static_cast<double>(sample.address.poi_category));
  CHECK_EQ(static_cast<int>(row.size()), kFlatFeatureWidth);
  return row;
}

}  // namespace dlinfma
}  // namespace dlinf
