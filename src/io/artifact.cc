#include "io/artifact.h"

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/check.h"
#include "common/string_util.h"
#include "fault/fault.h"

namespace dlinf {
namespace io {
namespace {

/// The envelope is defined as little-endian on disk; all supported targets
/// are little-endian, which this guards (a big-endian port would add
/// byte-swapping in Take/WriteBytes, not a new format).
bool HostIsLittleEndian() {
  const uint32_t probe = 1;
  unsigned char byte0;
  std::memcpy(&byte0, &probe, 1);
  return byte0 == 1;
}

/// Slicing-by-8 tables: tables[0] is the bytewise CRC-32 table, and
/// tables[k][b] is the CRC of byte b followed by k zero bytes, so one step
/// folds eight input bytes with eight lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

/// Little-endian 32-bit load, independent of host byte order.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

struct Header {
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t kind = 0;
  uint64_t payload_size = 0;
};

constexpr size_t kHeaderSize = 4 + 4 + 4 + 8;

}  // namespace

const char* ArtifactKindName(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kWorld:
      return "world";
    case ArtifactKind::kStayPoints:
      return "stay_points";
    case ArtifactKind::kCandidates:
      return "candidates";
    case ArtifactKind::kSamples:
      return "samples";
    case ArtifactKind::kModel:
      return "model";
    case ArtifactKind::kManifest:
      return "manifest";
    case ArtifactKind::kCheckpoint:
      return "checkpoint";
    case ArtifactKind::kIngestState:
      return "ingest_state";
    case ArtifactKind::kAnswers:
      return "answers";
  }
  return "unknown";
}

uint32_t Crc32Update(uint32_t seed, const void* data, size_t size) {
  static const CrcTables t = MakeCrcTables();
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t lo = LoadLe32(bytes) ^ crc;
    const uint32_t hi = LoadLe32(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Update(0, data, size);
}

ArtifactWriter::ArtifactWriter(ArtifactKind kind) : kind_(kind) {
  CHECK(HostIsLittleEndian()) << "artifact format requires little-endian host";
}

void ArtifactWriter::WriteBytes(const void* data, size_t size) {
  payload_.append(static_cast<const char*>(data), size);
}

void ArtifactWriter::WriteU32(uint32_t v) { WriteBytes(&v, sizeof(v)); }
void ArtifactWriter::WriteU64(uint64_t v) { WriteBytes(&v, sizeof(v)); }
void ArtifactWriter::WriteI32(int32_t v) { WriteBytes(&v, sizeof(v)); }
void ArtifactWriter::WriteI64(int64_t v) { WriteBytes(&v, sizeof(v)); }
void ArtifactWriter::WriteFloat(float v) { WriteBytes(&v, sizeof(v)); }
void ArtifactWriter::WriteDouble(double v) { WriteBytes(&v, sizeof(v)); }
void ArtifactWriter::WriteBool(bool v) {
  const uint8_t byte = v ? 1 : 0;
  WriteBytes(&byte, 1);
}

void ArtifactWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  WriteBytes(s.data(), s.size());
}

void ArtifactWriter::WriteFloats(const std::vector<float>& v) {
  WriteU64(v.size());
  WriteBytes(v.data(), v.size() * sizeof(float));
}

void ArtifactWriter::WriteI64s(const std::vector<int64_t>& v) {
  WriteU64(v.size());
  WriteBytes(v.data(), v.size() * sizeof(int64_t));
}

uint32_t ArtifactWriter::payload_crc() const {
  return Crc32(payload_.data(), payload_.size());
}

bool ArtifactWriter::Finish(const std::string& path) {
  CHECK(!finished_) << "ArtifactWriter::Finish called twice";
  finished_ = true;
  // Injected write failure: the disk filled up / the volume went away.
  if (fault::Hit("io.artifact.write_fail")) return false;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    const Header header{kArtifactMagic, kArtifactVersion,
                        static_cast<uint32_t>(kind_), payload_.size()};
    out.write(reinterpret_cast<const char*>(&header.magic), 4);
    out.write(reinterpret_cast<const char*>(&header.version), 4);
    out.write(reinterpret_cast<const char*>(&header.kind), 4);
    out.write(reinterpret_cast<const char*>(&header.payload_size), 8);
    out.write(payload_.data(), static_cast<std::streamsize>(payload_.size()));
    const uint32_t crc = payload_crc();
    out.write(reinterpret_cast<const char*>(&crc), 4);
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<ArtifactReader> ArtifactReader::Open(const std::string& path,
                                                  ArtifactKind expected,
                                                  std::string* error) {
  auto fail = [error](std::string reason) -> std::optional<ArtifactReader> {
    if (error != nullptr) *error = std::move(reason);
    return std::nullopt;
  };
  if (!HostIsLittleEndian()) return fail("big-endian host unsupported");

  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("cannot open " + path);

  Header header;
  in.read(reinterpret_cast<char*>(&header.magic), 4);
  in.read(reinterpret_cast<char*>(&header.version), 4);
  in.read(reinterpret_cast<char*>(&header.kind), 4);
  in.read(reinterpret_cast<char*>(&header.payload_size), 8);
  if (!in || in.gcount() != 8) return fail("truncated header in " + path);
  if (header.magic != kArtifactMagic) {
    return fail("bad magic in " + path + " (not a DLInfMA artifact)");
  }
  // Injected stale version: a reader from before a format bump opening a
  // file written after it. Exercises the exact rejection branch below.
  if (fault::Hit("io.artifact.stale_version")) {
    header.version = kArtifactVersion + 1;
  }
  if (header.version != kArtifactVersion) {
    return fail(StrPrintf("format version %u in %s, expected %u",
                          header.version, path.c_str(), kArtifactVersion));
  }
  if (header.kind != static_cast<uint32_t>(expected)) {
    return fail(StrPrintf(
        "artifact kind mismatch in %s: file holds '%s', expected '%s'",
        path.c_str(),
        ArtifactKindName(static_cast<ArtifactKind>(header.kind)),
        ArtifactKindName(expected)));
  }

  // Bound the declared size by the bytes actually left in the file before
  // allocating: a corrupt size field must be a typed error, not a huge
  // allocation.
  const std::streamoff payload_start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff file_end = in.tellg();
  in.seekg(payload_start);
  if (!in || payload_start < 0 || file_end < payload_start ||
      header.payload_size > static_cast<uint64_t>(file_end - payload_start)) {
    return fail("truncated payload in " + path);
  }

  ArtifactReader reader;
  reader.payload_.resize(header.payload_size);
  in.read(reader.payload_.data(),
          static_cast<std::streamsize>(header.payload_size));
  std::streamsize got = in.gcount();
  // Injected short read: `param` bytes (default 1) never arrive, as if the
  // file were truncated mid-payload or the read was interrupted.
  if (const auto fire = fault::Hit("io.artifact.short_read")) {
    const auto drop = static_cast<std::streamsize>(
        fire->param == 0 ? 1 : fire->param);
    got -= std::min(got, drop);
    in.setstate(std::ios::failbit);
  }
  if (!in || got != static_cast<std::streamsize>(header.payload_size)) {
    return fail("truncated payload in " + path);
  }
  // Injected bit flip: one payload byte is corrupted in flight (bad sector,
  // bad RAM). The CRC check below must catch it.
  if (const auto fire = fault::Hit("io.artifact.bit_flip")) {
    if (!reader.payload_.empty()) {
      reader.payload_[fire->param % reader.payload_.size()] ^=
          static_cast<char>(0x40);
    }
  }
  uint32_t stored_crc = 0;
  in.read(reinterpret_cast<char*>(&stored_crc), 4);
  if (!in || in.gcount() != 4) return fail("missing checksum in " + path);
  const uint32_t computed =
      Crc32(reader.payload_.data(), reader.payload_.size());
  if (stored_crc != computed) {
    return fail(StrPrintf("bad checksum in %s (stored %08x, computed %08x)",
                          path.c_str(), stored_crc, computed));
  }
  reader.crc_ = computed;
  return reader;
}

bool ArtifactReader::Take(void* out, size_t size) {
  // size == 0 happens for empty vectors, where `out` may be a null
  // vector::data(); memset/memcpy forbid null even for zero bytes.
  if (!ok_ || payload_.size() - offset_ < size) {
    ok_ = false;
    if (size > 0) std::memset(out, 0, size);
    return false;
  }
  if (size > 0) std::memcpy(out, payload_.data() + offset_, size);
  offset_ += size;
  return true;
}

size_t ArtifactReader::TakeCount(size_t elem_size) {
  const uint64_t count = ReadU64();
  if (!ok_ || count > remaining() / elem_size) {
    ok_ = false;
    return 0;
  }
  return static_cast<size_t>(count);
}

uint32_t ArtifactReader::ReadU32() {
  uint32_t v = 0;
  Take(&v, sizeof(v));
  return v;
}

uint64_t ArtifactReader::ReadU64() {
  uint64_t v = 0;
  Take(&v, sizeof(v));
  return v;
}

int32_t ArtifactReader::ReadI32() {
  int32_t v = 0;
  Take(&v, sizeof(v));
  return v;
}

int64_t ArtifactReader::ReadI64() {
  int64_t v = 0;
  Take(&v, sizeof(v));
  return v;
}

float ArtifactReader::ReadFloat() {
  float v = 0;
  Take(&v, sizeof(v));
  return v;
}

double ArtifactReader::ReadDouble() {
  double v = 0;
  Take(&v, sizeof(v));
  return v;
}

bool ArtifactReader::ReadBool() {
  uint8_t v = 0;
  Take(&v, 1);
  return v != 0;
}

std::string ArtifactReader::ReadString() {
  const size_t count = TakeCount(1);
  std::string s(count, '\0');
  Take(s.data(), count);
  return ok_ ? s : std::string();
}

std::vector<float> ArtifactReader::ReadFloats() {
  const size_t count = TakeCount(sizeof(float));
  std::vector<float> v(count);
  Take(v.data(), count * sizeof(float));
  return ok_ ? v : std::vector<float>();
}

std::vector<int64_t> ArtifactReader::ReadI64s() {
  const size_t count = TakeCount(sizeof(int64_t));
  std::vector<int64_t> v(count);
  Take(v.data(), count * sizeof(int64_t));
  return ok_ ? v : std::vector<int64_t>();
}

}  // namespace io
}  // namespace dlinf
