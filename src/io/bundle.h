#ifndef DLINF_IO_BUNDLE_H_
#define DLINF_IO_BUNDLE_H_

#include <array>
#include <cstdint>
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
/// Artifact bundles: one directory holding what a training run publishes,
/// as two checksummed artifacts, written in this order:
///
///   <dir>/model.art     model + train config and trained weights
///   <dir>/answers.art   the city, the delivered-address ids, each scored
///                       address's inferred location, and the CRC of the
///                       model.art that scored them
///
/// `dlinf_cli train` and `stream::PublishBundle` write a bundle through
/// SaveBundle, which scores every sample once. Serving
/// (`apps::BundleManager`, so `dlinf_cli serve`) opens answers.art alone
/// through LoadAnswers; `dlinf_cli infer` and the e2e benchmark open both
/// through LoadBundle, which checks that they belong together. The training
/// inputs (world, candidate pool, feature tensors) are not part of a bundle:
/// no reader needs them, and the world is the file `dlinf_cli generate`
/// wrote.

namespace dlinf {
namespace io {

/// The trained model's file name inside a bundle directory.
inline constexpr const char* kModelFile = "model.art";

/// The serving artifact's name inside a bundle directory. SaveBundle writes
/// it last, and a publisher renames it into place last, so its stamp marks a
/// complete push.
inline constexpr const char* kAnswersFile = "answers.art";

/// Every file of a bundle, in write order (answers.art last). A publisher
/// moves a staged bundle into place in this order.
inline constexpr std::array<const char*, 2> kBundleFiles = {kModelFile,
                                                            kAnswersFile};

/// A bundle's answers.art, decoded: everything a serving generation needs.
struct PublishedAnswers {
  sim::World city;  ///< The bundle's world without its trips.
  /// Ids of every address delivered in the bundle's world, in
  /// DeliveredAddressIds() order (the reload probe inventory).
  std::vector<int64_t> delivered;
  /// The address tier: each scored address and its inferred delivery
  /// location, in AllSamples order.
  std::vector<std::pair<int64_t, Point>> addresses;
  /// Payload CRC-32 of the model.art the addresses were scored with.
  uint32_t model_crc = 0;
};

/// A whole bundle, loaded: the trained model and the answers it scored.
struct Bundle {
  std::unique_ptr<dlinfma::DlInfMaMethod> method;
  PublishedAnswers answers;
};

/// Concatenates a sample set's splits (train, val, test order): the serving
/// inventory of every delivered address.
std::vector<dlinfma::AddressSample> AllSamples(
    const dlinfma::SampleSet& samples);

/// Writes model.art and, last, answers.art (every sample of `samples` scored
/// by `method` over `data`'s candidate pool) into `dir` (created if
/// missing). The method must hold a trained single model. Returns false
/// (with a reason in `error`) on any failure.
bool SaveBundle(const std::string& dir, const sim::World& world,
                const dlinfma::Dataset& data,
                const dlinfma::SampleSet& samples,
                const dlinfma::DlInfMaMethod& method,
                std::string* error = nullptr);

/// Loads a bundle written by SaveBundle: both envelopes, answers.art's
/// checks (LoadAnswers), and that answers.art was scored by this model.art
/// (its recorded model CRC). Returns nullopt with a clean error message on
/// any failure; a pair from two different runs names both files.
std::optional<Bundle> LoadBundle(const std::string& dir,
                                 std::string* error = nullptr);

/// Loads `dir`'s answers.art alone: validates its envelope (a file of any
/// other kind or version is refused with the reason), its city's
/// cross-references (sim::ValidateWorld) and that every id it holds names
/// an address of its city. Returns nullopt with a clean error message on
/// any failure.
std::optional<PublishedAnswers> LoadAnswers(const std::string& dir,
                                            std::string* error = nullptr);

}  // namespace io
}  // namespace dlinf

#endif  // DLINF_IO_BUNDLE_H_
