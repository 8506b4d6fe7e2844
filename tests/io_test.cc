// Round-trip, corruption, and warm-start-equivalence tests for the artifact
// serialization layer (src/io): every artifact type survives save/load
// bit-exactly, inference is bit-identical before and after a reload, and
// corrupted / truncated / mismatched files fail with a clean error instead
// of crashing or feeding garbage downstream.

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
  ArtifactWriter writer(ArtifactKind::kManifest);
  writer.WriteU32(0xdeadbeefu);
  writer.WriteU64(1ull << 52);
  writer.WriteI32(-42);
  writer.WriteI64(-(1ll << 40));
  writer.WriteFloat(2.5f);
  writer.WriteDouble(-1e100);
  writer.WriteBool(true);
  writer.WriteString("stay point");
  writer.WriteFloats({1.0f, -2.0f});
  writer.WriteDoubles({3.5});
  writer.WriteI64s({7, 8, 9});
  ASSERT_TRUE(writer.Finish(path));

  std::string error;
  auto reader = ArtifactReader::Open(path, ArtifactKind::kManifest, &error);
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
  EXPECT_EQ(reader->ReadDoubles(), (std::vector<double>{3.5}));
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
  ArtifactWriter writer(ArtifactKind::kSamples);
  writer.WriteString("some payload that will be corrupted");
  ASSERT_TRUE(writer.Finish(path));
  // First payload byte lives right after the 20-byte header.
  CorruptByteAt(path, 24);

  std::string error;
  EXPECT_FALSE(
      ArtifactReader::Open(path, ArtifactKind::kSamples, &error).has_value());
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(ArtifactEnvelopeTest, TruncatedFileRejected) {
  const std::string path = TestPath("truncated.art");
  ArtifactWriter writer(ArtifactKind::kCandidates);
  writer.WriteI64s({1, 2, 3, 4, 5});
  ASSERT_TRUE(writer.Finish(path));
  const std::string bytes = ReadFileBytes(path);
  // Every proper prefix must be rejected cleanly, whether the cut hits the
  // header, the payload, or the trailing CRC.
  for (const size_t keep : {size_t{0}, size_t{7}, size_t{20}, size_t{30},
                            bytes.size() - 1}) {
    WriteFileBytes(path, bytes.substr(0, keep));
    std::string error;
    EXPECT_FALSE(ArtifactReader::Open(path, ArtifactKind::kCandidates, &error)
                     .has_value())
        << "kept " << keep << " bytes";
    EXPECT_FALSE(error.empty());
  }
}

TEST(ArtifactEnvelopeTest, PayloadSizeBeyondFileIsTypedTruncation) {
  // A header whose size field claims more bytes than the file holds must
  // fail as a truncated payload before anything that large is allocated.
  const std::string path = TestPath("payload_size.art");
  ArtifactWriter writer(ArtifactKind::kManifest);
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
        ArtifactReader::Open(path, ArtifactKind::kManifest, &error).has_value())
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
  ArtifactWriter writer(ArtifactKind::kManifest);
  writer.WriteU32(5);
  ASSERT_TRUE(writer.Finish(path));

  auto reader = ArtifactReader::Open(path, ArtifactKind::kManifest);
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
  ArtifactWriter writer(ArtifactKind::kManifest);
  writer.WriteU64(~0ull);  // Claims ~2^64 following elements.
  ASSERT_TRUE(writer.Finish(path));

  auto reader = ArtifactReader::Open(path, ArtifactKind::kManifest);
  ASSERT_TRUE(reader.has_value());
  EXPECT_TRUE(reader->ReadI64s().empty());
  EXPECT_FALSE(reader->ok());
}

// --- Fault injection (fault/fault.h, DESIGN.md §8) ------------------------

/// Writes a small valid manifest artifact and returns its path.
std::string WriteValidArtifact(const std::string& name) {
  const std::string path = TestPath(name);
  ArtifactWriter writer(ArtifactKind::kManifest);
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
      ArtifactReader::Open(path, ArtifactKind::kManifest, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(ArtifactFaultTest, InjectedShortReadFailsCleanly) {
  const std::string path = WriteValidArtifact("short_read.art");
  fault::ScopedFaultPlan armed(
      fault::FaultPlan().FailAlways("io.artifact.short_read"), /*seed=*/1);
  std::string error;
  EXPECT_FALSE(
      ArtifactReader::Open(path, ArtifactKind::kManifest, &error).has_value());
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
      ArtifactReader::Open(path, ArtifactKind::kManifest, &error).has_value());
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  EXPECT_EQ(fault::FireCount("io.artifact.bit_flip"), 1);
}

TEST(ArtifactFaultTest, InjectedStaleVersionRejected) {
  const std::string path = WriteValidArtifact("stale_version.art");
  fault::ScopedFaultPlan armed(
      fault::FaultPlan().FailAlways("io.artifact.stale_version"), /*seed=*/1);
  std::string error;
  EXPECT_FALSE(
      ArtifactReader::Open(path, ArtifactKind::kManifest, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
  EXPECT_EQ(fault::FireCount("io.artifact.stale_version"), 1);
}

TEST(ArtifactFaultTest, InjectedWriteFailReported) {
  const std::string path = TestPath("write_fail.art");
  std::filesystem::remove(path);
  fault::ScopedFaultPlan armed(
      fault::FaultPlan().FailAlways("io.artifact.write_fail"), /*seed=*/1);
  ArtifactWriter writer(ArtifactKind::kManifest);
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
        ArtifactReader::Open(path, ArtifactKind::kManifest).has_value());
  }
  auto reader = ArtifactReader::Open(path, ArtifactKind::kManifest);
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->ReadString(), "payload under test");
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

TEST(IoCodecsTest, CandidatesArtifactRoundTripsByteIdentically) {
  const PipelineFixture& fixture = Fixture();
  const std::string path = TestPath("candidates.art");
  ASSERT_TRUE(SaveCandidatesArtifact(*fixture.data.gen, path));

  std::string error;
  auto loaded = LoadCandidatesArtifact(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->candidates().size(), fixture.data.gen->candidates().size());
  ASSERT_EQ(loaded->stay_points().size(),
            fixture.data.gen->stay_points().size());

  // The loaded pool must answer retrieval queries identically (the indexes
  // are part of the artifact, not re-mined).
  for (const sim::Address& address : fixture.world.addresses) {
    const auto original = fixture.data.gen->Retrieve(address.id);
    const auto restored = loaded->Retrieve(address.id);
    ASSERT_EQ(original.size(), restored.size()) << address.id;
    for (size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(original[i], restored[i]) << address.id;
    }
  }

  const std::string resaved = TestPath("candidates2.art");
  ASSERT_TRUE(SaveCandidatesArtifact(*loaded, resaved));
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(resaved));
}

TEST(IoCodecsTest, SamplesArtifactRoundTripsByteIdentically) {
  const PipelineFixture& fixture = Fixture();
  const std::string path = TestPath("samples.art");
  ASSERT_TRUE(SaveSamplesArtifact(fixture.samples, path));

  std::string error;
  auto loaded = LoadSamplesArtifact(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->train.size(), fixture.samples.train.size());
  ASSERT_EQ(loaded->val.size(), fixture.samples.val.size());
  ASSERT_EQ(loaded->test.size(), fixture.samples.test.size());
  ASSERT_FALSE(fixture.samples.train.empty());
  const dlinfma::AddressSample& original = fixture.samples.train.front();
  const dlinfma::AddressSample& restored = loaded->train.front();
  EXPECT_EQ(restored.address_id, original.address_id);
  EXPECT_EQ(restored.candidate_ids, original.candidate_ids);
  EXPECT_EQ(restored.label, original.label);

  const std::string resaved = TestPath("samples2.art");
  ASSERT_TRUE(SaveSamplesArtifact(*loaded, resaved));
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

  std::optional<WarmBundle> bundle = LoadBundle(dir, &error);
  ASSERT_TRUE(bundle.has_value()) << error;
  EXPECT_EQ(bundle->world->name, fixture.world.name);
  EXPECT_EQ(bundle->data.train_ids, fixture.data.train_ids);
  EXPECT_EQ(bundle->data.val_ids, fixture.data.val_ids);
  EXPECT_EQ(bundle->data.test_ids, fixture.data.test_ids);

  const std::vector<dlinfma::AddressSample> all = AllSamples(fixture.samples);
  const std::vector<Point> before =
      fixture.method->InferAll(fixture.data, all);
  const std::vector<Point> after =
      bundle->method->InferAll(bundle->data, AllSamples(bundle->samples));
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << "sample " << i;
  }
}

TEST(IoBundleTest, MissingArtifactFailsCleanly) {
  PipelineFixture& fixture = Fixture();
  const std::string dir = TestPath("bundle_missing");
  std::string error;
  ASSERT_TRUE(SaveBundle(dir, fixture.world, fixture.data, fixture.samples,
                         *fixture.method, &error))
      << error;
  std::filesystem::remove(dir + "/candidates.art");

  EXPECT_FALSE(LoadBundle(dir, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(IoBundleTest, CorruptedBundleArtifactFailsCleanly) {
  PipelineFixture& fixture = Fixture();
  const std::string dir = TestPath("bundle_corrupt");
  std::string error;
  ASSERT_TRUE(SaveBundle(dir, fixture.world, fixture.data, fixture.samples,
                         *fixture.method, &error))
      << error;
  CorruptByteAt(dir + "/samples.art", 100);

  EXPECT_FALSE(LoadBundle(dir, &error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace io
}  // namespace dlinf
