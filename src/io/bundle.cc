#include "io/bundle.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "io/codecs.h"
#include "obs/trace.h"

namespace dlinf {
namespace io {
namespace {

constexpr const char* kManifestFile = "manifest.art";
constexpr const char* kWorldFile = "world.art";
constexpr const char* kCandidatesFile = "candidates.art";
constexpr const char* kSamplesFile = "samples.art";
constexpr const char* kModelFile = "model.art";

std::string PathJoin(const std::string& dir, const char* file) {
  return (std::filesystem::path(dir) / file).string();
}

void SetError(std::string* error, std::string reason) {
  if (error != nullptr) *error = std::move(reason);
}

/// Counts persisted in the manifest and re-derived on load; a mismatch
/// means the bundle's files do not belong together (e.g. a model.art copied
/// in from another run).
struct ManifestCounts {
  std::string world_name;
  int64_t num_addresses = 0;
  int64_t num_trips = 0;
  int64_t num_candidates = 0;
  int64_t num_train = 0;
  int64_t num_val = 0;
  int64_t num_test = 0;
};

}  // namespace

std::vector<dlinfma::AddressSample> AllSamples(
    const dlinfma::SampleSet& samples) {
  std::vector<dlinfma::AddressSample> all;
  all.reserve(samples.train.size() + samples.val.size() + samples.test.size());
  all.insert(all.end(), samples.train.begin(), samples.train.end());
  all.insert(all.end(), samples.val.begin(), samples.val.end());
  all.insert(all.end(), samples.test.begin(), samples.test.end());
  return all;
}

bool SaveBundle(const std::string& dir, const sim::World& world,
                const dlinfma::Dataset& data,
                const dlinfma::SampleSet& samples,
                const dlinfma::DlInfMaMethod& method, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    SetError(error, "cannot create bundle directory " + dir);
    return false;
  }
  if (data.gen == nullptr) {
    SetError(error, "dataset has no candidate pool");
    return false;
  }

  if (!SaveWorldArtifact(world, PathJoin(dir, kWorldFile))) {
    SetError(error, "cannot write world artifact");
    return false;
  }
  if (!SaveCandidatesArtifact(*data.gen, PathJoin(dir, kCandidatesFile))) {
    SetError(error, "cannot write candidates artifact");
    return false;
  }
  if (!SaveSamplesArtifact(samples, PathJoin(dir, kSamplesFile))) {
    SetError(error, "cannot write samples artifact");
    return false;
  }
  if (!SaveModelArtifact(method, PathJoin(dir, kModelFile))) {
    SetError(error, "cannot write model artifact (ensemble or untrained?)");
    return false;
  }

  ArtifactWriter manifest(ArtifactKind::kManifest);
  manifest.WriteString(world.name);
  manifest.WriteI64(static_cast<int64_t>(world.addresses.size()));
  manifest.WriteI64(static_cast<int64_t>(world.trips.size()));
  manifest.WriteI64(static_cast<int64_t>(data.gen->candidates().size()));
  manifest.WriteI64(static_cast<int64_t>(samples.train.size()));
  manifest.WriteI64(static_cast<int64_t>(samples.val.size()));
  manifest.WriteI64(static_cast<int64_t>(samples.test.size()));
  if (!manifest.Finish(PathJoin(dir, kManifestFile))) {
    SetError(error, "cannot write bundle manifest");
    return false;
  }

  // Serving's table: score every sample once, here, so no reader of the
  // bundle has to load the model to answer.
  const std::vector<dlinfma::AddressSample> all = AllSamples(samples);
  const std::vector<Point> locations = method.InferAll(data, all);
  ArtifactWriter answers(ArtifactKind::kAnswers);
  EncodeCityPayload(world, &answers);
  answers.WriteI64s(world.DeliveredAddressIds());
  answers.WriteU64(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    answers.WriteI64(all[i].address_id);
    answers.WriteDouble(locations[i].x);
    answers.WriteDouble(locations[i].y);
  }
  if (!answers.Finish(PathJoin(dir, kAnswersFile))) {
    SetError(error, "cannot write answers artifact");
    return false;
  }
  return true;
}

std::optional<WarmBundle> LoadBundle(const std::string& dir,
                                     std::string* error) {
  obs::Span span("load_bundle");

  ManifestCounts manifest;
  {
    auto reader = ArtifactReader::Open(PathJoin(dir, kManifestFile),
                                       ArtifactKind::kManifest, error);
    if (!reader) return std::nullopt;
    manifest.world_name = reader->ReadString();
    manifest.num_addresses = reader->ReadI64();
    manifest.num_trips = reader->ReadI64();
    manifest.num_candidates = reader->ReadI64();
    manifest.num_train = reader->ReadI64();
    manifest.num_val = reader->ReadI64();
    manifest.num_test = reader->ReadI64();
    if (!reader->AtEnd()) {
      SetError(error, "malformed bundle manifest in " + dir);
      return std::nullopt;
    }
  }

  WarmBundle bundle;
  {
    auto world = LoadWorldArtifact(PathJoin(dir, kWorldFile), error);
    if (!world) return std::nullopt;
    bundle.world = std::make_unique<sim::World>(std::move(*world));
  }
  {
    auto gen = LoadCandidatesArtifact(PathJoin(dir, kCandidatesFile), error);
    if (!gen) return std::nullopt;
    // Same split rule as BuildDataset, minus the mining.
    bundle.data = dlinfma::MakeDataset(*bundle.world, std::move(*gen));
  }
  {
    auto samples = LoadSamplesArtifact(PathJoin(dir, kSamplesFile), error);
    if (!samples) return std::nullopt;
    bundle.samples = std::move(*samples);
  }
  bundle.method = LoadModelArtifact(PathJoin(dir, kModelFile), error);
  if (bundle.method == nullptr) return std::nullopt;

  const bool consistent =
      manifest.world_name == bundle.world->name &&
      manifest.num_addresses ==
          static_cast<int64_t>(bundle.world->addresses.size()) &&
      manifest.num_trips ==
          static_cast<int64_t>(bundle.world->trips.size()) &&
      manifest.num_trips == bundle.data.gen->num_trips() &&
      manifest.num_candidates ==
          static_cast<int64_t>(bundle.data.gen->candidates().size()) &&
      manifest.num_train ==
          static_cast<int64_t>(bundle.samples.train.size()) &&
      manifest.num_val == static_cast<int64_t>(bundle.samples.val.size()) &&
      manifest.num_test == static_cast<int64_t>(bundle.samples.test.size()) &&
      bundle.samples.train.size() == bundle.data.train_ids.size() &&
      bundle.samples.val.size() == bundle.data.val_ids.size() &&
      bundle.samples.test.size() == bundle.data.test_ids.size();
  if (!consistent) {
    SetError(error,
             "bundle artifacts in " + dir +
                 " are inconsistent (mixed files from different runs?)");
    return std::nullopt;
  }
  return bundle;
}

std::optional<PublishedAnswers> LoadAnswers(const std::string& dir,
                                            std::string* error) {
  obs::Span span("load_answers");
  const std::string path = PathJoin(dir, kAnswersFile);
  auto reader = ArtifactReader::Open(path, ArtifactKind::kAnswers, error);
  if (!reader) return std::nullopt;
  PublishedAnswers answers;
  answers.city = DecodeWorldPayload(&*reader);
  answers.delivered = reader->ReadI64s();
  const uint64_t count = reader->ReadU64();
  // 24 bytes an entry: a count the payload cannot hold fails before it
  // sizes anything.
  if (count > reader->remaining() / 24) {
    reader->Fail();
  } else {
    answers.addresses.reserve(count);
  }
  for (uint64_t i = 0; reader->ok() && i < count; ++i) {
    const int64_t id = reader->ReadI64();
    Point location;
    location.x = reader->ReadDouble();
    location.y = reader->ReadDouble();
    answers.addresses.emplace_back(id, location);
  }
  if (!reader->AtEnd()) {
    SetError(error, "malformed answers payload in " + path);
    return std::nullopt;
  }
  // Ids index the city's addresses; one outside it would abort the first
  // lookup that reached it.
  const auto in_city = [&](int64_t id) {
    return id >= 0 &&
           id < static_cast<int64_t>(answers.city.addresses.size());
  };
  bool ids_valid = std::all_of(answers.delivered.begin(),
                               answers.delivered.end(), in_city);
  for (const auto& [id, location] : answers.addresses) {
    ids_valid = ids_valid && in_city(id);
  }
  if (!ids_valid) {
    SetError(error, "answers in " + path + " name an address outside the city");
    return std::nullopt;
  }
  return answers;
}

}  // namespace io
}  // namespace dlinf
