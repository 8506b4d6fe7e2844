#include "io/bundle.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/string_util.h"
#include "io/codecs.h"
#include "obs/trace.h"

namespace dlinf {
namespace io {
namespace {

std::string PathJoin(const std::string& dir, const char* file) {
  return (std::filesystem::path(dir) / file).string();
}

void SetError(std::string* error, std::string reason) {
  if (error != nullptr) *error = std::move(reason);
}

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

  uint32_t model_crc = 0;
  if (!SaveModelArtifact(method, PathJoin(dir, kModelFile), &model_crc)) {
    SetError(error, "cannot write model artifact (ensemble or untrained?)");
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
  answers.WriteU32(model_crc);
  if (!answers.Finish(PathJoin(dir, kAnswersFile))) {
    SetError(error, "cannot write answers artifact");
    return false;
  }
  return true;
}

std::optional<Bundle> LoadBundle(const std::string& dir, std::string* error) {
  obs::Span span("load_bundle");
  Bundle bundle;
  uint32_t model_crc = 0;
  bundle.method =
      LoadModelArtifact(PathJoin(dir, kModelFile), error, &model_crc);
  if (bundle.method == nullptr) return std::nullopt;
  std::optional<PublishedAnswers> answers = LoadAnswers(dir, error);
  if (!answers) return std::nullopt;
  if (answers->model_crc != model_crc) {
    SetError(error,
             StrPrintf("%s and %s in %s are from different runs: the "
                       "answers were scored by model CRC %08x, the model "
                       "file holds %08x",
                       kModelFile, kAnswersFile, dir.c_str(),
                       answers->model_crc, model_crc));
    return std::nullopt;
  }
  bundle.answers = std::move(*answers);
  return bundle;
}

std::optional<PublishedAnswers> LoadAnswers(const std::string& dir,
                                            std::string* error) {
  obs::Span span("load_answers");
  const std::string path = PathJoin(dir, kAnswersFile);
  auto reader = ArtifactReader::Open(path, ArtifactKind::kAnswers, error);
  if (!reader) return std::nullopt;
  PublishedAnswers answers;
  std::string invalid;
  answers.city = DecodeWorldPayload(&*reader, &invalid);
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
  answers.model_crc = reader->ReadU32();
  if (!reader->AtEnd()) {
    SetError(error, invalid.empty()
                        ? "malformed answers payload in " + path
                        : "invalid city in " + path + ": " + invalid);
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
