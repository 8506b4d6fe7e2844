// Round-trip, corruption, and warm-start-equivalence tests for the artifact
// serialization layer (src/io): the world and model artifacts survive
// save/load bit-exactly, inference is bit-identical before and after a
// reload, a bundle's answers.art pairs with its model.art, and corrupted /
// truncated / mismatched files fail with a clean error instead of crashing
// or feeding garbage downstream.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <unistd.h>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dlinfma/dlinfma_method.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "io/artifact.h"
#include "io/bundle.h"
#include "io/codecs.h"
#include "sim/generator.h"

namespace dlinf {
namespace io {
namespace {

using ::testing::TempDir;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out << bytes;
}

/// Flips one byte of the file at `path`.
void CorruptByteAt(const std::string& path, size_t offset) {
  std::string bytes = ReadFileBytes(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x5a);
  WriteFileBytes(path, bytes);
}

/// One small trained pipeline, built once: training is the expensive part
/// and every test only needs *a* model, not a good one.
struct PipelineFixture {
  PipelineFixture() {
    sim::SimConfig config = sim::SynDowBJConfig();
    config.num_days = 3;
    config.num_communities = 6;
    world = sim::GenerateWorld(config);
    data = dlinfma::BuildDataset(world, {});
    samples = dlinfma::ExtractSamples(data, {});
    dlinfma::TrainConfig train_config;
    train_config.max_epochs = 3;
    train_config.early_stop_patience = 2;
    method = std::make_unique<dlinfma::DlInfMaMethod>("DLInfMA",
                                                      dlinfma::LocMatcherConfig{},
                                                      train_config);
    method->Fit(data, samples);
  }

  sim::World world;
  dlinfma::Dataset data;
  dlinfma::SampleSet samples;
  std::unique_ptr<dlinfma::DlInfMaMethod> method;
};

PipelineFixture& Fixture() {
  static PipelineFixture* fixture = new PipelineFixture();
  return *fixture;
}

// Pid-suffixed scratch dir: parallel ctest invocations of this binary must
// not clobber each other's fixture files.
std::string TestPath(const std::string& name) {
  static const std::string dir = [] {
    const std::string d =
        TempDir() + "/io_test." + std::to_string(::getpid());
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir + "/" + name;
}

// --- Envelope -------------------------------------------------------------

TEST(ArtifactEnvelopeTest, PrimitivesRoundTrip) {
  const std::string path = TestPath("primitives.art");
  ArtifactWriter writer(ArtifactKind::kModel);
  writer.WriteU32(0xdeadbeefu);
  writer.WriteU64(1ull << 52);
  writer.WriteI32(-42);
  writer.WriteI64(-(1ll << 40));
  writer.WriteFloat(2.5f);
  writer.WriteDouble(-1e100);
  writer.WriteBool(true);
  writer.WriteString("stay point");
  writer.WriteFloats({1.0f, -2.0f});
  writer.WriteI64s({7, 8, 9});
  ASSERT_TRUE(writer.Finish(path));

  std::string error;
  auto reader = ArtifactReader::Open(path, ArtifactKind::kModel, &error);
  ASSERT_TRUE(reader.has_value()) << error;
  EXPECT_EQ(reader->ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(reader->ReadU64(), 1ull << 52);
  EXPECT_EQ(reader->ReadI32(), -42);
  EXPECT_EQ(reader->ReadI64(), -(1ll << 40));
  EXPECT_EQ(reader->ReadFloat(), 2.5f);
  EXPECT_EQ(reader->ReadDouble(), -1e100);
  EXPECT_TRUE(reader->ReadBool());
  EXPECT_EQ(reader->ReadString(), "stay point");
  EXPECT_EQ(reader->ReadFloats(), (std::vector<float>{1.0f, -2.0f}));
  EXPECT_EQ(reader->ReadI64s(), (std::vector<int64_t>{7, 8, 9}));
  EXPECT_TRUE(reader->AtEnd());
}

TEST(ArtifactEnvelopeTest, CheckpointKindRoundTripsWithName) {
  // The CKPT kind added for crash-safe training checkpoints is a first-class
  // envelope kind with its own diagnostic name.
  EXPECT_STREQ(ArtifactKindName(ArtifactKind::kCheckpoint), "checkpoint");
  const std::string path = TestPath("checkpoint_kind.art");
  ArtifactWriter writer(ArtifactKind::kCheckpoint);
  writer.WriteI32(7);
  ASSERT_TRUE(writer.Finish(path));

  std::string error;
  auto reader = ArtifactReader::Open(path, ArtifactKind::kCheckpoint, &error);
  ASSERT_TRUE(reader.has_value()) << error;
  EXPECT_EQ(reader->ReadI32(), 7);
  EXPECT_FALSE(
      ArtifactReader::Open(path, ArtifactKind::kWorld, &error).has_value());
}

TEST(ArtifactEnvelopeTest, KindMismatchRejected) {
  const std::string path = TestPath("kind.art");
  ArtifactWriter writer(ArtifactKind::kWorld);
  writer.WriteU32(1);
  ASSERT_TRUE(writer.Finish(path));

  std::string error;
  EXPECT_FALSE(
      ArtifactReader::Open(path, ArtifactKind::kModel, &error).has_value());
  EXPECT_NE(error.find("kind"), std::string::npos) << error;
}

TEST(ArtifactEnvelopeTest, BadMagicRejected) {
  const std::string path = TestPath("magic.art");
  ArtifactWriter writer(ArtifactKind::kWorld);
  writer.WriteU32(1);
  ASSERT_TRUE(writer.Finish(path));
  CorruptByteAt(path, 0);

  std::string error;
  EXPECT_FALSE(
      ArtifactReader::Open(path, ArtifactKind::kWorld, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ArtifactEnvelopeTest, WrongFormatVersionRejected) {
  const std::string path = TestPath("version.art");
  ArtifactWriter writer(ArtifactKind::kWorld);
  writer.WriteU32(1);
  ASSERT_TRUE(writer.Finish(path));
  // The version field is bytes [4, 8) of the header.
  CorruptByteAt(path, 5);

  std::string error;
  EXPECT_FALSE(
      ArtifactReader::Open(path, ArtifactKind::kWorld, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(ArtifactEnvelopeTest, CorruptedPayloadFailsChecksum) {
  const std::string path = TestPath("corrupt.art");
  ArtifactWriter writer(ArtifactKind::kAnswers);
  writer.WriteString("some payload that will be corrupted");
  ASSERT_TRUE(writer.Finish(path));
  // First payload byte lives right after the 20-byte header.
  CorruptByteAt(path, 24);

  std::string error;
  EXPECT_FALSE(
      ArtifactReader::Open(path, ArtifactKind::kAnswers, &error).has_value());
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(ArtifactEnvelopeTest, TruncatedFileRejected) {
  const std::string path = TestPath("truncated.art");
  ArtifactWriter writer(ArtifactKind::kModel);
  writer.WriteI64s({1, 2, 3, 4, 5});
  ASSERT_TRUE(writer.Finish(path));
  const std::string bytes = ReadFileBytes(path);
  // Every proper prefix must be rejected cleanly, whether the cut hits the
  // header, the payload, or the trailing CRC.
  for (const size_t keep : {size_t{0}, size_t{7}, size_t{20}, size_t{30},
                            bytes.size() - 1}) {
    WriteFileBytes(path, bytes.substr(0, keep));
    std::string error;
    EXPECT_FALSE(ArtifactReader::Open(path, ArtifactKind::kModel, &error)
                     .has_value())
        << "kept " << keep << " bytes";
    EXPECT_FALSE(error.empty());
  }
}

TEST(ArtifactEnvelopeTest, PayloadSizeBeyondFileIsTypedTruncation) {
  // A header whose size field claims more bytes than the file holds must
  // fail as a truncated payload before anything that large is allocated.
  const std::string path = TestPath("payload_size.art");
  ArtifactWriter writer(ArtifactKind::kModel);
  writer.WriteString("payload under test");
  ASSERT_TRUE(writer.Finish(path));
  const std::string valid = ReadFileBytes(path);
  const std::string header = valid.substr(0, 12);  // magic, version, kind.
  auto with_size = [](std::string bytes, uint64_t size) {
    std::memcpy(bytes.data() + 12, &size, sizeof(size));
    return bytes;
  };
  const uint64_t left_after_header = valid.size() - 20;
  const struct {
    const char* name;
    std::string bytes;
  } rows[] = {
      {"2^62 in a 24-byte file",
       with_size(header + std::string(12, '\0'), uint64_t{1} << 62)},
      {"2^64 - 1", with_size(valid, ~uint64_t{0})},
      {"one byte past the end", with_size(valid, left_after_header + 1)},
  };
  for (const auto& row : rows) {
    WriteFileBytes(path, row.bytes);
    std::string error;
    EXPECT_FALSE(
        ArtifactReader::Open(path, ArtifactKind::kModel, &error).has_value())
        << row.name;
    EXPECT_NE(error.find("truncated payload"), std::string::npos)
        << row.name << ": " << error;
  }
}

TEST(ArtifactEnvelopeTest, Crc32MatchesBytewiseReference) {
  auto reference = [](uint32_t seed, const unsigned char* bytes, size_t size) {
    uint32_t crc = seed ^ 0xFFFFFFFFu;
    for (size_t i = 0; i < size; ++i) {
      crc ^= bytes[i];
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
      }
    }
    return crc ^ 0xFFFFFFFFu;
  };
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);  // The CRC-32 check value.
  std::vector<unsigned char> buf(256);
  uint32_t state = 12345;
  for (unsigned char& b : buf) {
    state = state * 1103515245u + 12345u;
    b = static_cast<unsigned char>(state >> 16);
  }
  // Every alignment and every tail length of the 8-byte stride.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; offset + size <= buf.size(); ++size) {
      ASSERT_EQ(Crc32(buf.data() + offset, size),
                reference(0, buf.data() + offset, size))
          << "offset " << offset << " size " << size;
    }
  }
  // Incremental updates over uneven chunks equal the one-shot value.
  uint32_t crc = 0;
  for (size_t at = 0, chunk = 1; at < buf.size(); at += chunk, chunk += 3) {
    const size_t n = std::min(chunk, buf.size() - at);
    crc = Crc32Update(crc, buf.data() + at, n);
  }
  EXPECT_EQ(crc, reference(0, buf.data(), buf.size()));
}

TEST(ArtifactEnvelopeTest, MissingFileReportsError) {
  std::string error;
  EXPECT_FALSE(ArtifactReader::Open(TestPath("does_not_exist.art"),
                                    ArtifactKind::kWorld, &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ArtifactEnvelopeTest, ReadPastEndIsStickyNotFatal) {
  const std::string path = TestPath("pastend.art");
  ArtifactWriter writer(ArtifactKind::kModel);
  writer.WriteU32(5);
  ASSERT_TRUE(writer.Finish(path));

  auto reader = ArtifactReader::Open(path, ArtifactKind::kModel);
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->ReadU32(), 5u);
  EXPECT_TRUE(reader->ok());
  EXPECT_EQ(reader->ReadU64(), 0u);  // Past the end: zero value, no crash.
  EXPECT_FALSE(reader->ok());
  EXPECT_EQ(reader->ReadString(), "");  // Still failed, still no crash.
  EXPECT_FALSE(reader->AtEnd());
}

TEST(ArtifactEnvelopeTest, OversizedLengthPrefixRejected) {
  // A length prefix larger than the remaining payload must fail cleanly
  // instead of allocating or reading out of bounds.
  const std::string path = TestPath("oversized.art");
  ArtifactWriter writer(ArtifactKind::kModel);
  writer.WriteU64(~0ull);  // Claims ~2^64 following elements.
  ASSERT_TRUE(writer.Finish(path));

  auto reader = ArtifactReader::Open(path, ArtifactKind::kModel);
  ASSERT_TRUE(reader.has_value());
  EXPECT_TRUE(reader->ReadI64s().empty());
  EXPECT_FALSE(reader->ok());
}

// --- Fault injection (fault/fault.h, DESIGN.md §8) ------------------------

/// Writes a small valid model-kind artifact and returns its path.
std::string WriteValidArtifact(const std::string& name) {
  const std::string path = TestPath(name);
  ArtifactWriter writer(ArtifactKind::kModel);
  writer.WriteString("payload under test");
  writer.WriteI64s({1, 2, 3});
  EXPECT_TRUE(writer.Finish(path));
  return path;
}

TEST(ArtifactFaultTest, ExplicitFutureVersionRejected) {
  // Not a flipped byte: a well-formed file whose version field says the
  // format is one revision newer than this reader understands.
  const std::string path = WriteValidArtifact("future_version.art");
  std::string bytes = ReadFileBytes(path);
  const uint32_t future = kArtifactVersion + 1;
  std::memcpy(&bytes[4], &future, sizeof(future));
  WriteFileBytes(path, bytes);

  std::string error;
  EXPECT_FALSE(
      ArtifactReader::Open(path, ArtifactKind::kModel, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(ArtifactFaultTest, InjectedShortReadFailsCleanly) {
  const std::string path = WriteValidArtifact("short_read.art");
  fault::ScopedFaultPlan armed(
      fault::FaultPlan().FailAlways("io.artifact.short_read"), /*seed=*/1);
  std::string error;
  EXPECT_FALSE(
      ArtifactReader::Open(path, ArtifactKind::kModel, &error).has_value());
  EXPECT_NE(error.find("truncated payload"), std::string::npos) << error;
  EXPECT_EQ(fault::FireCount("io.artifact.short_read"), 1);
}

TEST(ArtifactFaultTest, InjectedBitFlipFailsChecksum) {
  const std::string path = WriteValidArtifact("bit_flip.art");
  fault::ScopedFaultPlan armed(
      fault::FaultPlan().Inject(
          {.point = "io.artifact.bit_flip", .param = 5}),
      /*seed=*/1);
  std::string error;
  EXPECT_FALSE(
      ArtifactReader::Open(path, ArtifactKind::kModel, &error).has_value());
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  EXPECT_EQ(fault::FireCount("io.artifact.bit_flip"), 1);
}

TEST(ArtifactFaultTest, InjectedStaleVersionRejected) {
  const std::string path = WriteValidArtifact("stale_version.art");
  fault::ScopedFaultPlan armed(
      fault::FaultPlan().FailAlways("io.artifact.stale_version"), /*seed=*/1);
  std::string error;
  EXPECT_FALSE(
      ArtifactReader::Open(path, ArtifactKind::kModel, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
  EXPECT_EQ(fault::FireCount("io.artifact.stale_version"), 1);
}

TEST(ArtifactFaultTest, InjectedWriteFailReported) {
  const std::string path = TestPath("write_fail.art");
  std::filesystem::remove(path);
  fault::ScopedFaultPlan armed(
      fault::FaultPlan().FailAlways("io.artifact.write_fail"), /*seed=*/1);
  ArtifactWriter writer(ArtifactKind::kModel);
  writer.WriteU32(7);
  EXPECT_FALSE(writer.Finish(path));
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ArtifactFaultTest, DisarmedFileIsUntouchedAndLoads) {
  // The injected read faults corrupt only the in-memory copy: once the
  // plan is gone the same on-disk file opens cleanly.
  const std::string path = WriteValidArtifact("unharmed.art");
  {
    fault::ScopedFaultPlan armed(
        fault::FaultPlan().FailAlways("io.artifact.bit_flip"), /*seed=*/1);
    EXPECT_FALSE(
        ArtifactReader::Open(path, ArtifactKind::kModel).has_value());
  }
  auto reader = ArtifactReader::Open(path, ArtifactKind::kModel);
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->ReadString(), "payload under test");
}

// --- answers.art: the serving artifact (bundle.h) -------------------------

/// A fresh directory holding only a copy of the fixture bundle's
/// answers.art (the bundle itself is saved once), for LoadAnswers to open.
std::string AnswersOnlyDir(const std::string& name) {
  static const std::string bundle = [] {
    const std::string dir = TestPath("answers_bundle");
    std::string error;
    EXPECT_TRUE(SaveBundle(dir, Fixture().world, Fixture().data,
                           Fixture().samples, *Fixture().method, &error))
        << error;
    return dir;
  }();
  const std::string dir = TestPath(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::filesystem::copy_file(bundle + "/" + kAnswersFile,
                             dir + "/" + kAnswersFile);
  return dir;
}

TEST(ArtifactEnvelopeTest, AnswersLoadBackTheScoredTable) {
  const std::string dir = AnswersOnlyDir("answers_ok");
  std::string error;
  const std::optional<PublishedAnswers> answers = LoadAnswers(dir, &error);
  ASSERT_TRUE(answers.has_value()) << error;
  const PipelineFixture& fixture = Fixture();
  EXPECT_EQ(answers->city.addresses.size(), fixture.world.addresses.size());
  EXPECT_TRUE(answers->city.trips.empty());
  EXPECT_EQ(answers->delivered, fixture.world.DeliveredAddressIds());
  const std::vector<dlinfma::AddressSample> all = AllSamples(fixture.samples);
  const std::vector<Point> locations =
      fixture.method->InferAll(fixture.data, all);
  ASSERT_EQ(answers->addresses.size(), all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(answers->addresses[i].first, all[i].address_id) << i;
    EXPECT_EQ(answers->addresses[i].second, locations[i]) << i;
  }
  // The trailing field names the model.art the table was scored with.
  uint32_t model_crc = 0;
  ASSERT_NE(LoadModelArtifact(TestPath("answers_bundle") + "/" + kModelFile,
                              &error, &model_crc),
            nullptr)
      << error;
  EXPECT_EQ(answers->model_crc, model_crc);
}

TEST(ArtifactEnvelopeTest, AnswersBadMagicRejected) {
  const std::string dir = AnswersOnlyDir("answers_magic");
  CorruptByteAt(dir + "/" + kAnswersFile, 0);
  std::string error;
  EXPECT_FALSE(LoadAnswers(dir, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(ArtifactEnvelopeTest, AnswersKindMismatchRejected) {
  // A world.art passed as answers: a sound artifact of the wrong kind.
  const std::string dir = TestPath("answers_kind");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveWorldArtifact(Fixture().world, dir + "/" + kAnswersFile));
  std::string error;
  EXPECT_FALSE(LoadAnswers(dir, &error).has_value());
  EXPECT_NE(error.find("kind"), std::string::npos) << error;
}

TEST(ArtifactEnvelopeTest, AnswersFlippedPayloadByteFailsChecksum) {
  const std::string dir = AnswersOnlyDir("answers_flip");
  const std::string path = dir + "/" + kAnswersFile;
  CorruptByteAt(path, ReadFileBytes(path).size() / 2);
  std::string error;
  EXPECT_FALSE(LoadAnswers(dir, &error).has_value());
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(ArtifactEnvelopeTest, AnswersTruncationsRejected) {
  const std::string dir = AnswersOnlyDir("answers_truncated");
  const std::string path = dir + "/" + kAnswersFile;
  const std::string bytes = ReadFileBytes(path);
  for (const size_t keep : {size_t{0}, size_t{7}, size_t{20}, size_t{30},
                            bytes.size() / 2, bytes.size() - 1}) {
    WriteFileBytes(path, bytes.substr(0, keep));
    std::string error;
    EXPECT_FALSE(LoadAnswers(dir, &error).has_value())
        << "kept " << keep << " bytes";
    EXPECT_FALSE(error.empty());
  }
}

TEST(ArtifactEnvelopeTest, AnswersNamingAnAddressOutsideTheCityRejected) {
  // Checksum-valid, but an id past the city's addresses: refused on load,
  // never an abort in the first lookup that reaches it.
  const std::string dir = TestPath("answers_outside");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ArtifactWriter writer(ArtifactKind::kAnswers);
  EncodeCityPayload(Fixture().world, &writer);
  writer.WriteI64s({static_cast<int64_t>(Fixture().world.addresses.size())});
  writer.WriteU64(0);
  writer.WriteU32(0);  // Model CRC.
  ASSERT_TRUE(writer.Finish(dir + "/" + kAnswersFile));
  std::string error;
  EXPECT_FALSE(LoadAnswers(dir, &error).has_value());
  EXPECT_NE(error.find("outside the city"), std::string::npos) << error;
}

TEST(ArtifactEnvelopeTest, AnswersWithoutModelCrcRejected) {
  // The answers.art layout from before the model CRC field: city,
  // delivered ids and the table, sealed with a good checksum. Refused
  // typed, so a bundle whose pairing cannot be checked is never served.
  const std::string dir = TestPath("answers_no_crc");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ArtifactWriter writer(ArtifactKind::kAnswers);
  EncodeCityPayload(Fixture().world, &writer);
  writer.WriteI64s(Fixture().world.DeliveredAddressIds());
  writer.WriteU64(1);
  writer.WriteI64(Fixture().world.DeliveredAddressIds().front());
  writer.WriteDouble(1.0);
  writer.WriteDouble(2.0);
  ASSERT_TRUE(writer.Finish(dir + "/" + kAnswersFile));
  std::string error;
  EXPECT_FALSE(LoadAnswers(dir, &error).has_value());
  EXPECT_NE(error.find("malformed answers payload"), std::string::npos)
      << error;
}

TEST(ArtifactFaultTest, AnswersFutureVersionRejected) {
  const std::string dir = AnswersOnlyDir("answers_version");
  const std::string path = dir + "/" + kAnswersFile;
  std::string bytes = ReadFileBytes(path);
  const uint32_t future = kArtifactVersion + 1;
  std::memcpy(&bytes[4], &future, sizeof(future));
  WriteFileBytes(path, bytes);
  std::string error;
  EXPECT_FALSE(LoadAnswers(dir, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

// --- Dataset artifacts ----------------------------------------------------

TEST(IoCodecsTest, WorldArtifactRoundTripsByteIdentically) {
  const PipelineFixture& fixture = Fixture();
  const std::string path = TestPath("world.art");
  ASSERT_TRUE(SaveWorldArtifact(fixture.world, path));

  std::string error;
  std::optional<sim::World> loaded = LoadWorldArtifact(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  EXPECT_EQ(loaded->name, fixture.world.name);
  ASSERT_EQ(loaded->addresses.size(), fixture.world.addresses.size());
  ASSERT_EQ(loaded->trips.size(), fixture.world.trips.size());
  EXPECT_EQ(loaded->TotalWaybills(), fixture.world.TotalWaybills());
  EXPECT_EQ(loaded->TotalTrajectoryPoints(),
            fixture.world.TotalTrajectoryPoints());
  for (size_t i = 0; i < fixture.world.addresses.size(); ++i) {
    EXPECT_EQ(loaded->addresses[i].geocoded_location,
              fixture.world.addresses[i].geocoded_location);
    EXPECT_EQ(loaded->addresses[i].split, fixture.world.addresses[i].split);
  }

  // save -> load -> save is byte-identical: serialization is deterministic
  // and nothing is lost in flight.
  const std::string resaved = TestPath("world2.art");
  ASSERT_TRUE(SaveWorldArtifact(*loaded, resaved));
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(resaved));
}

// --- Model + bundle -------------------------------------------------------

TEST(IoCodecsTest, ModelArtifactReloadsToBitIdenticalInference) {
  PipelineFixture& fixture = Fixture();
  const std::string path = TestPath("model.art");
  ASSERT_TRUE(SaveModelArtifact(*fixture.method, path));

  std::string error;
  std::unique_ptr<dlinfma::DlInfMaMethod> loaded =
      LoadModelArtifact(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_TRUE(loaded->has_model());
  EXPECT_EQ(loaded->name(), fixture.method->name());

  const std::vector<dlinfma::AddressSample> all = AllSamples(fixture.samples);
  const std::vector<Point> before =
      fixture.method->InferAll(fixture.data, all);
  const std::vector<Point> after = loaded->InferAll(fixture.data, all);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    // Bit-identical, not approximately equal: the warm-started model is the
    // trained model.
    EXPECT_EQ(before[i], after[i]) << "sample " << i;
  }
}

TEST(IoCodecsTest, CorruptedModelArtifactFailsCleanly) {
  PipelineFixture& fixture = Fixture();
  const std::string path = TestPath("model_corrupt.art");
  ASSERT_TRUE(SaveModelArtifact(*fixture.method, path));
  CorruptByteAt(path, ReadFileBytes(path).size() / 2);

  std::string error;
  EXPECT_EQ(LoadModelArtifact(path, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(IoBundleTest, BundleRoundTripsToBitIdenticalInference) {
  PipelineFixture& fixture = Fixture();
  const std::string dir = TestPath("bundle");
  std::string error;
  ASSERT_TRUE(SaveBundle(dir, fixture.world, fixture.data, fixture.samples,
                         *fixture.method, &error))
      << error;
  // A bundle is its two files, nothing else.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{kAnswersFile, kModelFile}));

  std::optional<Bundle> bundle = LoadBundle(dir, &error);
  ASSERT_TRUE(bundle.has_value()) << error;
  EXPECT_EQ(bundle->answers.city.name, fixture.world.name);

  // The loaded model scores what the trained one scored, and answers.art
  // holds exactly that table.
  const std::vector<dlinfma::AddressSample> all = AllSamples(fixture.samples);
  const std::vector<Point> before =
      fixture.method->InferAll(fixture.data, all);
  const std::vector<Point> after = bundle->method->InferAll(fixture.data, all);
  ASSERT_EQ(before.size(), after.size());
  ASSERT_EQ(bundle->answers.addresses.size(), all.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << "sample " << i;
    EXPECT_EQ(bundle->answers.addresses[i].first, all[i].address_id) << i;
    EXPECT_EQ(bundle->answers.addresses[i].second, before[i]) << i;
  }
}

TEST(IoBundleTest, MissingArtifactFailsCleanly) {
  PipelineFixture& fixture = Fixture();
  const std::string dir = TestPath("bundle_missing");
  std::string error;
  ASSERT_TRUE(SaveBundle(dir, fixture.world, fixture.data, fixture.samples,
                         *fixture.method, &error))
      << error;
  std::filesystem::remove(dir + "/" + kModelFile);

  EXPECT_FALSE(LoadBundle(dir, &error).has_value());
  EXPECT_NE(error.find(kModelFile), std::string::npos) << error;
}

TEST(IoBundleTest, CorruptedBundleArtifactFailsCleanly) {
  PipelineFixture& fixture = Fixture();
  const std::string dir = TestPath("bundle_corrupt");
  std::string error;
  ASSERT_TRUE(SaveBundle(dir, fixture.world, fixture.data, fixture.samples,
                         *fixture.method, &error))
      << error;
  CorruptByteAt(dir + "/" + kModelFile, 100);

  EXPECT_FALSE(LoadBundle(dir, &error).has_value());
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(IoBundleTest, MixedPairFromTwoRunsNamesBothFiles) {
  // answers.art from one run beside model.art from another: each file is
  // sound on its own, and answers.art's recorded model CRC catches the mix.
  PipelineFixture& fixture = Fixture();
  dlinfma::TrainConfig other_config = fixture.method->train_config();
  other_config.seed += 1;
  other_config.max_epochs = 1;
  dlinfma::DlInfMaMethod other("DLInfMA", fixture.method->model_config(),
                               other_config);
  other.Fit(fixture.data, fixture.samples);
  const std::string dir = TestPath("bundle_mixed");
  const std::string other_dir = TestPath("bundle_mixed_other");
  std::string error;
  ASSERT_TRUE(SaveBundle(dir, fixture.world, fixture.data, fixture.samples,
                         *fixture.method, &error))
      << error;
  ASSERT_TRUE(SaveBundle(other_dir, fixture.world, fixture.data,
                         fixture.samples, other, &error))
      << error;
  ASSERT_TRUE(LoadBundle(other_dir, &error).has_value()) << error;
  std::filesystem::copy_file(other_dir + "/" + kModelFile,
                             dir + "/" + kModelFile,
                             std::filesystem::copy_options::overwrite_existing);

  EXPECT_FALSE(LoadBundle(dir, &error).has_value());
  EXPECT_NE(error.find(kModelFile), std::string::npos) << error;
  EXPECT_NE(error.find(kAnswersFile), std::string::npos) << error;
  EXPECT_NE(error.find("different runs"), std::string::npos) << error;
  // Serving reads answers.art alone, which is still sound.
  EXPECT_TRUE(LoadAnswers(dir, &error).has_value()) << error;
}

TEST(IoBundleTest, RetiredKindIsATypedKindMismatch) {
  // A file of a kind bundles no longer hold, in a bundle's model.art slot
  // (say a manifest.art left from an old bundle): refused with the kind
  // named, never decoded.
  const std::string dir = TestPath("bundle_retired_kind");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const ArtifactKind retired :
       {ArtifactKind::kStayPoints, ArtifactKind::kCandidates,
        ArtifactKind::kSamples, ArtifactKind::kManifest}) {
    ArtifactWriter writer(retired);
    writer.WriteString("payload of an old bundle");
    ASSERT_TRUE(writer.Finish(dir + "/" + kModelFile));
    std::string error;
    EXPECT_EQ(LoadModelArtifact(dir + "/" + kModelFile, &error), nullptr);
    EXPECT_NE(error.find(std::string("holds '") + ArtifactKindName(retired) +
                         "', expected 'model'"),
              std::string::npos)
        << error;
  }
}

}  // namespace
}  // namespace io
}  // namespace dlinf
