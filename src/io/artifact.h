#ifndef DLINF_IO_ARTIFACT_H_
#define DLINF_IO_ARTIFACT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

/// \file
/// Versioned, checksummed binary artifact container (DESIGN.md §7).
///
/// Every artifact the pipeline persists — simulated worlds, model weights,
/// published answers, checkpoints, ingest snapshots — is one file in this
/// common envelope:
///
///   offset  size  field
///   0       4     magic "DLAB" (0x44 0x4c 0x41 0x42, little-endian u32)
///   4       4     format version (u32; readers reject other versions)
///   8       4     artifact kind (u32, see ArtifactKind)
///   12      8     payload size in bytes (u64)
///   20      n     payload (typed fields, little-endian, packed)
///   20+n    4     CRC-32 (IEEE 802.3) of the payload bytes
///
/// Writers buffer the payload in memory and emit header + payload + CRC in
/// Finish(); readers validate magic, version, kind, size, and CRC before a
/// single payload byte is handed out, so corrupted / truncated / mismatched
/// files fail with a clean error instead of feeding garbage downstream.
/// Multi-byte values assume a little-endian host (checked at runtime).
///
/// Untrusted bytes never abort: every validation failure surfaces as a
/// typed error through Open()'s nullopt + reason. Fault-injection points
/// (`io.artifact.short_read`, `io.artifact.bit_flip`,
/// `io.artifact.stale_version`, `io.artifact.write_fail`; see fault/fault.h
/// and DESIGN.md §8) drive those same error branches deterministically.

namespace dlinf {
namespace io {

/// First four bytes of every artifact file ("DLAB" on disk).
inline constexpr uint32_t kArtifactMagic = 0x42414c44u;

/// Current format version. Bump on any incompatible payload-layout change;
/// readers reject files written with a different version (versioning policy
/// in DESIGN.md §7: no silent cross-version reads, conversion is explicit).
inline constexpr uint32_t kArtifactVersion = 1;

/// What an artifact file contains. The kind is part of the envelope so that
/// passing, say, a world file where a model is expected fails fast.
enum class ArtifactKind : uint32_t {
  kWorld = 1,        ///< A full sim::World (codecs.h).
  /// Retired kinds: no longer written or read. Stay points, the candidate
  /// pool, the feature tensors and the bundle manifest left the bundle,
  /// which now holds model.art and answers.art alone (bundle.h). The values
  /// stay reserved so an old file still fails with the typed kind-mismatch
  /// error.
  kStayPoints = 2,
  kCandidates = 3,
  kSamples = 4,
  kModel = 5,        ///< Model config + nn parameter blob.
  kManifest = 6,
  kCheckpoint = 7,   ///< Mid-training resume state (checkpoint.h, "CKPT").
  kIngestState = 8,  ///< Ingest-server snapshot (stream/ingest_server.h).
  kAnswers = 9,      ///< Published serving answers (bundle.h, answers.art).
};

/// Name of a kind for error messages ("world", "model", ...).
const char* ArtifactKindName(ArtifactKind kind);

/// CRC-32 (IEEE, reflected, init/final 0xFFFFFFFF) of a byte range.
uint32_t Crc32(const void* data, size_t size);

/// Incremental update: feed the previous return value (or 0 for the first
/// chunk) as `seed` to checksum data arriving in pieces.
uint32_t Crc32Update(uint32_t seed, const void* data, size_t size);

/// Accumulates an artifact payload in memory via typed little-endian
/// appends, then writes the enveloped file in one Finish() call.
///
/// All Write* calls append to an internal buffer and cannot fail; only
/// Finish() touches the filesystem.
class ArtifactWriter {
 public:
  explicit ArtifactWriter(ArtifactKind kind);

  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI32(int32_t v);
  void WriteI64(int64_t v);
  void WriteFloat(float v);
  void WriteDouble(double v);
  void WriteBool(bool v);
  /// Length-prefixed (u64) raw bytes.
  void WriteString(const std::string& s);
  /// Length-prefixed (u64 count) packed float32 array.
  void WriteFloats(const std::vector<float>& v);
  /// Length-prefixed (u64 count) packed int64 array.
  void WriteI64s(const std::vector<int64_t>& v);
  /// Unprefixed raw bytes (callers manage their own framing).
  void WriteBytes(const void* data, size_t size);

  /// CRC-32 of the payload written so far: after the last Write*, the
  /// checksum Finish() seals the file with.
  uint32_t payload_crc() const;

  /// Writes header + payload + CRC to `path` (atomically via rename from a
  /// sibling temp file, so readers never observe a half-written artifact).
  /// Returns false on any I/O failure. The writer may be finished only once.
  bool Finish(const std::string& path);

 private:
  ArtifactKind kind_;
  std::string payload_;
  bool finished_ = false;
};

/// Reads and validates one artifact file, then serves typed sequential
/// reads from the in-memory payload.
///
/// Reads past the payload end (or after any earlier failure) set a sticky
/// fail flag and return zero values; callers check ok() once after decoding
/// instead of after every field (the pattern library code uses everywhere).
class ArtifactReader {
 public:
  /// Opens `path` and validates the envelope against `expected` kind and
  /// the current format version. On failure returns nullopt and, when
  /// `error` is non-null, a human-readable reason ("bad checksum", "format
  /// version 7, expected 1", ...).
  static std::optional<ArtifactReader> Open(const std::string& path,
                                            ArtifactKind expected,
                                            std::string* error = nullptr);

  uint32_t ReadU32();
  uint64_t ReadU64();
  int32_t ReadI32();
  int64_t ReadI64();
  float ReadFloat();
  double ReadDouble();
  bool ReadBool();
  std::string ReadString();
  std::vector<float> ReadFloats();
  std::vector<int64_t> ReadI64s();

  /// True while every read so far stayed within the payload. Also flips to
  /// false via Fail() when a codec detects a semantic inconsistency.
  bool ok() const { return ok_; }
  /// Marks the reader failed (codec-level validation).
  void Fail() { ok_ = false; }

  /// The payload's CRC-32, as stored in the file and verified by Open().
  uint32_t payload_crc() const { return crc_; }

  /// Payload bytes not yet consumed.
  size_t remaining() const { return payload_.size() - offset_; }
  /// True when the payload was consumed exactly and nothing failed.
  bool AtEnd() const { return ok_ && remaining() == 0; }

 private:
  ArtifactReader() = default;
  bool Take(void* out, size_t size);
  /// Reads a u64 count and bounds-checks it against `elem_size` elements of
  /// remaining payload; returns 0 (and fails) on overflow.
  size_t TakeCount(size_t elem_size);

  std::string payload_;
  size_t offset_ = 0;
  uint32_t crc_ = 0;
  bool ok_ = true;
};

}  // namespace io
}  // namespace dlinf

#endif  // DLINF_IO_ARTIFACT_H_
