#ifndef DLINF_IO_WAL_FRAME_H_
#define DLINF_IO_WAL_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

/// \file
/// On-disk framing for the ingest write-ahead log (DESIGN.md §14).
///
/// A WAL directory holds numbered segment files `wal-<%08u>.log`. Each
/// segment starts with a fixed header and is followed by zero or more
/// CRC32-framed records:
///
///   segment header (16 bytes):
///     offset  size  field
///     0       4     magic "WALS" (little-endian u32)
///     4       4     format version (u32; readers reject other versions)
///     8       8     segment index (u64; must match the filename)
///
///   frame (16 + n bytes):
///     offset  size  field
///     0       4     magic "WALF" (little-endian u32)
///     4       4     payload size n (u32)
///     8       4     CRC-32 (IEEE) of type + payload bytes
///     12      4     record type (u32, opaque to this layer)
///     16      n     payload bytes
///
/// The frame magic exists so that a torn tail (power cut / SIGKILL between
/// write(2) calls) is distinguishable from silent corruption: replay stops
/// at the first byte that is not a complete, checksum-valid frame and
/// reports *where* so the writer can truncate and resume appending there.
/// Decoding is pure and never aborts on untrusted bytes — every failure
/// is a typed WalStatus.

namespace dlinf {
namespace io {

inline constexpr uint32_t kWalSegmentMagic = 0x534c4157u;  // "WALS"
inline constexpr uint32_t kWalFrameMagic = 0x464c4157u;    // "WALF"
inline constexpr uint32_t kWalVersion = 1;
inline constexpr size_t kWalSegmentHeaderSize = 16;
inline constexpr size_t kWalFrameHeaderSize = 16;

/// Typed outcome of decoding a segment header or a frame. Everything except
/// kOk is a reason to stop replay; only kBadCrc / kTruncated / kBadMagic at
/// the tail are recoverable by truncation (DESIGN.md §14).
enum class WalStatus {
  kOk = 0,
  kEof,         ///< Clean end: no bytes left at a frame boundary.
  kTruncated,   ///< Partial header or payload (torn write at the tail).
  kBadMagic,    ///< Bytes at the cursor are not a segment/frame header.
  kBadVersion,  ///< Segment written by an incompatible format version.
  kBadCrc,      ///< Frame checksum mismatch (bit rot / torn payload).
  kOversized,   ///< Declared payload size exceeds the caller's limit.
};

/// Name for error messages ("ok", "truncated", ...).
const char* WalStatusName(WalStatus status);

/// One decoded frame: the opaque record type plus payload bytes.
struct WalFrame {
  uint32_t type = 0;
  std::string payload;
};

/// Appends a 16-byte segment header for `segment_index` to `out`.
void AppendWalSegmentHeader(uint64_t segment_index, std::string* out);

/// Validates the segment header at the start of `data`. On kOk stores the
/// segment index and advances `*offset` past the header.
WalStatus DecodeWalSegmentHeader(const std::string& data, size_t* offset,
                                 uint64_t* segment_index);

/// Appends one framed record (header + payload) to `out`.
void AppendWalFrame(uint32_t type, std::string_view payload,
                    std::string* out);

/// Decodes the frame at `*offset` in `data`. On kOk fills `*frame` and
/// advances `*offset` past the frame; on any failure leaves `*offset`
/// unchanged (the caller truncates there). `max_payload` bounds the declared
/// payload size so a corrupted length field cannot trigger a huge read.
WalStatus DecodeWalFrame(const std::string& data, size_t* offset,
                         size_t max_payload, WalFrame* frame);

/// Segment file name for an index ("wal-00000042.log").
std::string WalSegmentFileName(uint64_t segment_index);

/// Parses a segment file name; returns false if `name` is not one.
bool ParseWalSegmentFileName(const std::string& name, uint64_t* segment_index);

}  // namespace io
}  // namespace dlinf

#endif  // DLINF_IO_WAL_FRAME_H_
