#ifndef DLINF_IO_BUNDLE_H_
#define DLINF_IO_BUNDLE_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dlinfma/dlinfma_method.h"
#include "dlinfma/inferrer.h"
#include "geo/point.h"
#include "sim/world.h"

/// \file
/// Artifact bundles: one directory holding a training run's state — the
/// dataset, the mined candidate pool with its retrieval indexes, the
/// extracted feature tensors and the trained model, tied together by a
/// manifest — plus the answers that state gives, published for serving. Six
/// checksummed artifacts:
///
///   <dir>/manifest.art     cross-file counts (consistency check on load)
///   <dir>/world.art        the sim::World
///   <dir>/candidates.art   CandidateGeneration state
///   <dir>/samples.art      SampleSet feature tensors
///   <dir>/model.art        model + train config and trained weights
///   <dir>/answers.art      the city, the delivered-address ids and each
///                          scored address's inferred location
///
/// `dlinf_cli train` and `stream::PublishBundle` write a bundle through
/// SaveBundle, which scores every sample once. Readers open
/// different files: `dlinf_cli infer`, warm starts and the e2e benchmark
/// load the first five with LoadBundle; serving (`apps::BundleManager`, so
/// `dlinf_cli serve`) opens answers.art alone through LoadAnswers, and never
/// reads the model, the feature tensors or the raw trips.

namespace dlinf {
namespace io {

/// A fully rehydrated offline pipeline: everything InferAll needs, with no
/// retraining or re-mining. `data.world` points at
/// `world`; keep the bundle alive as long as either is used.
struct WarmBundle {
  std::unique_ptr<sim::World> world;
  dlinfma::Dataset data;
  dlinfma::SampleSet samples;
  std::unique_ptr<dlinfma::DlInfMaMethod> method;
};

/// The serving artifact's name inside a bundle directory. SaveBundle writes
/// it last, and a publisher renames it into place last, so its stamp marks a
/// complete push.
inline constexpr const char* kAnswersFile = "answers.art";

/// A bundle's answers.art, decoded: everything a serving generation needs.
struct PublishedAnswers {
  sim::World city;  ///< The bundle's world without its trips.
  /// Ids of every address delivered in the bundle's world, in
  /// DeliveredAddressIds() order (the reload probe inventory).
  std::vector<int64_t> delivered;
  /// The address tier: each scored address and its inferred delivery
  /// location, in AllSamples order.
  std::vector<std::pair<int64_t, Point>> addresses;
};

/// Concatenates a sample set's splits (train, val, test order): the serving
/// inventory of every delivered address.
std::vector<dlinfma::AddressSample> AllSamples(
    const dlinfma::SampleSet& samples);

/// Writes the four training artifacts, the manifest and, last, answers.art
/// (every sample of `samples` scored by `method`) into `dir` (created if
/// missing). The method must hold a trained single model. Returns false
/// (with a reason in `error`) on any failure.
bool SaveBundle(const std::string& dir, const sim::World& world,
                const dlinfma::Dataset& data,
                const dlinfma::SampleSet& samples,
                const dlinfma::DlInfMaMethod& method,
                std::string* error = nullptr);

/// Loads a bundle written by SaveBundle: validates the manifest, every
/// artifact's envelope (magic/version/kind/CRC), and cross-artifact
/// consistency, then rebuilds the Dataset splits from the world's split
/// tags (the same rule BuildDataset applies). Returns nullopt with a clean
/// error message on any mismatch.
std::optional<WarmBundle> LoadBundle(const std::string& dir,
                                     std::string* error = nullptr);

/// Loads `dir`'s answers.art alone: validates its envelope (a file of any
/// other kind or version is refused with the reason) and that every id it
/// holds names an address of its city. Returns nullopt with a clean error
/// message on any failure.
std::optional<PublishedAnswers> LoadAnswers(const std::string& dir,
                                            std::string* error = nullptr);

}  // namespace io
}  // namespace dlinf

#endif  // DLINF_IO_BUNDLE_H_
