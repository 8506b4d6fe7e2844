// Seeded mutation tests over what a bundle and a world are on disk:
// world.art, answers.art and model.art. Each iteration applies a few
// deterministic byte-level mutations (bit flips, overwritten fields,
// interesting integers and doubles, cut or inserted runs) to the payload,
// reseals the envelope so the CRC passes and the payload decoders are
// reached, and hands the file to its first consumer:
//
//   world.art                LoadWorldArtifact, then BuildDataset
//   answers.art              BundleManager::Create, then every lookup
//   model.art + answers.art  LoadBundle, then scoring every sample
//
// Every outcome is either a typed error or a success; an abort or a
// sanitizer report fails the test. The seed and the iteration counts are
// fixed, so a failure reproduces exactly.

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "apps/bundle_manager.h"
#include "dlinfma/dlinfma_method.h"
#include "gtest/gtest.h"
#include "io/artifact.h"
#include "io/bundle.h"
#include "io/codecs.h"
#include "scratch_dir.h"
#include "sim/generator.h"

namespace dlinf {
namespace io {
namespace {

constexpr uint64_t kSeed = 20221004;
constexpr int kIterations = 400;  // Per artifact.
constexpr size_t kHeaderSize = 20;
constexpr size_t kCrcSize = 4;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The payload of a sound artifact file (between header and CRC).
std::string PayloadOf(const std::string& path) {
  const std::string bytes = ReadFileBytes(path);
  EXPECT_GE(bytes.size(), kHeaderSize + kCrcSize) << path;
  return bytes.substr(kHeaderSize, bytes.size() - kHeaderSize - kCrcSize);
}

/// Writes `payload` as a sound artifact of `kind`: a fresh header and CRC,
/// so any rejection must come from the payload decoder.
void Reseal(ArtifactKind kind, const std::string& payload,
            const std::string& path) {
  ArtifactWriter writer(kind);
  writer.WriteBytes(payload.data(), payload.size());
  ASSERT_TRUE(writer.Finish(path)) << path;
}

/// Deterministic payload mutator: one to three edits per call.
class Mutator {
 public:
  explicit Mutator(uint64_t seed) : engine_(seed) {}

  std::string Mutate(std::string payload) {
    const int edits = 1 + static_cast<int>(Next(3));
    for (int e = 0; e < edits && !payload.empty(); ++e) Edit(&payload);
    return payload;
  }

 private:
  uint64_t Next(uint64_t bound) { return engine_() % bound; }

  template <typename T>
  void Overwrite(std::string* payload, size_t at, T value) {
    if (payload->size() < sizeof(T)) return;
    at = std::min(at, payload->size() - sizeof(T));
    std::memcpy(payload->data() + at, &value, sizeof(T));
  }

  void Edit(std::string* payload) {
    static const int64_t kInts[] = {0,
                                    1,
                                    -1,
                                    -5,
                                    99999,
                                    int64_t{1} << 32,
                                    std::numeric_limits<int64_t>::max(),
                                    std::numeric_limits<int64_t>::min()};
    static const double kDoubles[] = {
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), -1e308, 1e-308, 0.0};
    static const int32_t kInt32s[] = {0, -1, 99999,
                                      std::numeric_limits<int32_t>::max()};
    const size_t at = Next(payload->size());
    switch (Next(7)) {
      case 0:
        (*payload)[at] ^= static_cast<char>(1u << Next(8));
        break;
      case 1:
        (*payload)[at] = static_cast<char>(Next(256));
        break;
      case 2:
        Overwrite(payload, at, kInts[Next(std::size(kInts))]);
        break;
      case 3:
        Overwrite(payload, at, kDoubles[Next(std::size(kDoubles))]);
        break;
      case 4:
        Overwrite(payload, at, kInt32s[Next(std::size(kInt32s))]);
        break;
      case 5:
        payload->erase(at, 1 + Next(64));
        break;
      default: {
        std::string run(1 + Next(64), '\0');
        for (char& c : run) c = static_cast<char>(Next(256));
        payload->insert(at, run);
        break;
      }
    }
  }

  std::mt19937_64 engine_;
};

/// A small trained pipeline, saved once as a world file and a bundle.
struct MutationFixture {
  MutationFixture() {
    sim::SimConfig config = sim::SynDowBJConfig();
    config.num_days = 3;
    config.num_communities = 5;
    world = sim::GenerateWorld(config);
    data = dlinfma::BuildDataset(world, {});
    samples = dlinfma::ExtractSamples(data, {});
    dlinfma::TrainConfig train_config;
    train_config.max_epochs = 1;
    method = std::make_unique<dlinfma::DlInfMaMethod>(
        "DLInfMA", dlinfma::LocMatcherConfig{}, train_config);
    method->Fit(data, samples);
    // The fixture itself is never destroyed; its directory goes at exit.
    static const ScopedTempDir scratch("artifact_mutation");
    dir = scratch.path();
    bundle = dir + "/bundle";
    std::string error;
    EXPECT_TRUE(SaveBundle(bundle, world, data, samples, *method, &error))
        << error;
    world_path = dir + "/world.art";
    EXPECT_TRUE(SaveWorldArtifact(world, world_path));
  }

  sim::World world;
  dlinfma::Dataset data;
  dlinfma::SampleSet samples;
  std::unique_ptr<dlinfma::DlInfMaMethod> method;
  std::string dir;
  std::string bundle;
  std::string world_path;
};

MutationFixture& Fixture() {
  static MutationFixture* fixture = new MutationFixture();
  return *fixture;
}

/// A fresh directory holding a copy of the fixture bundle.
std::string BundleCopy(const std::string& name) {
  const std::string dir = Fixture().dir + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const char* file : kBundleFiles) {
    std::filesystem::copy_file(Fixture().bundle + "/" + file,
                               dir + "/" + file);
  }
  return dir;
}

/// world.art's first consumer: load, and on success mine the dataset.
/// Returns true when the world loaded.
bool LoadAndBuild(const std::string& path, std::string* error) {
  const std::optional<sim::World> world = LoadWorldArtifact(path, error);
  if (!world) return false;
  const dlinfma::Dataset data = dlinfma::BuildDataset(*world, {});
  EXPECT_NE(data.gen, nullptr);
  return true;
}

TEST(ArtifactMutationTest, WorldMutationsFailTypedOrBuild) {
  const std::string payload = PayloadOf(Fixture().world_path);
  const std::string path = Fixture().dir + "/mutated_world.art";
  Mutator mutator(kSeed);
  int loaded = 0;
  for (int i = 0; i < kIterations; ++i) {
    Reseal(ArtifactKind::kWorld, mutator.Mutate(payload), path);
    std::string error;
    if (LoadAndBuild(path, &error)) {
      ++loaded;
    } else {
      EXPECT_FALSE(error.empty()) << "iteration " << i;
    }
  }
  // Coordinates and times take any value, so some mutations load; the
  // rest fail typed.
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kIterations);
}

TEST(ArtifactMutationTest, WaybillNamingAddress99999IsATypedLoadError) {
  // The regression: a resealed world whose waybill names an address the
  // world lacks used to pass the decoder and abort at World::address's
  // CHECK in candidate generation.
  for (const bool planned_stay : {false, true}) {
    sim::World world = Fixture().world;
    sim::DeliveryTrip& trip = world.trips.front();
    if (planned_stay) {
      ASSERT_FALSE(trip.planned_stays.empty());
      trip.planned_stays.front().delivered_address_ids.push_back(99999);
    } else {
      trip.waybills.front().address_id = 99999;
    }
    const std::string path = Fixture().dir + "/address_99999.art";
    ASSERT_TRUE(SaveWorldArtifact(world, path));
    std::string error;
    EXPECT_FALSE(LoadAndBuild(path, &error));
    EXPECT_NE(error.find("invalid world"), std::string::npos) << error;
    EXPECT_NE(error.find("names address 99999"), std::string::npos) << error;
  }
}

TEST(ArtifactMutationTest, AnswersMutationsFailTypedOrServe) {
  const std::string dir = BundleCopy("mutated_answers");
  const std::string path = dir + "/" + kAnswersFile;
  const std::string payload = PayloadOf(path);
  apps::BundleManager::Config config;
  config.dir = dir;
  Mutator mutator(kSeed + 1);
  int served = 0;
  for (int i = 0; i < kIterations; ++i) {
    Reseal(ArtifactKind::kAnswers, mutator.Mutate(payload), path);
    std::string error;
    const std::unique_ptr<apps::BundleManager> manager =
        apps::BundleManager::Create(config, &error);
    if (manager == nullptr) {
      EXPECT_FALSE(error.empty()) << "iteration " << i;
      continue;
    }
    ++served;
    const auto state = manager->state();
    state->service->QueryBatch(state->delivered);
    for (int64_t id = 0;
         id < static_cast<int64_t>(state->city->addresses.size()); ++id) {
      state->service->Lookup(id);
    }
  }
  EXPECT_GT(served, 0);
}

TEST(ArtifactMutationTest, ModelMutationsFailTypedOrScore) {
  const std::string dir = BundleCopy("mutated_model");
  const std::string model_path = dir + "/" + kModelFile;
  const std::string answers_path = dir + "/" + kAnswersFile;
  const std::string model_payload = PayloadOf(model_path);
  const std::string answers_payload = PayloadOf(answers_path);
  const std::vector<dlinfma::AddressSample> all =
      AllSamples(Fixture().samples);
  Mutator mutator(kSeed + 2);
  int scored = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string mutated = mutator.Mutate(model_payload);
    Reseal(ArtifactKind::kModel, mutated, model_path);
    // Half the time answers.art is resealed to name the mutated model, so
    // the pairing check passes and what loads is scored.
    std::string answers = answers_payload;
    if (i % 2 == 1) {
      const uint32_t crc = Crc32(mutated.data(), mutated.size());
      std::memcpy(answers.data() + answers.size() - sizeof(crc), &crc,
                  sizeof(crc));
    }
    Reseal(ArtifactKind::kAnswers, answers, answers_path);
    std::string error;
    const std::optional<Bundle> bundle = LoadBundle(dir, &error);
    if (!bundle) {
      EXPECT_FALSE(error.empty()) << "iteration " << i;
      continue;
    }
    ++scored;
    EXPECT_EQ(bundle->method->InferAll(Fixture().data, all).size(),
              all.size());
  }
  EXPECT_GT(scored, 0);
}

}  // namespace
}  // namespace io
}  // namespace dlinf
