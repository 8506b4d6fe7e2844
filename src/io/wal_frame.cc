#include "io/wal_frame.h"

#include <cstdio>
#include <cstring>

#include "io/artifact.h"

namespace dlinf {
namespace io {
namespace {

void AppendU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(buf));
}

void AppendU64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(buf));
}

uint32_t ReadU32At(const std::string& data, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, data.data() + offset, sizeof(v));
  return v;
}

uint64_t ReadU64At(const std::string& data, size_t offset) {
  uint64_t v = 0;
  std::memcpy(&v, data.data() + offset, sizeof(v));
  return v;
}

/// CRC over the frame's type word followed by its payload, so neither can
/// be altered independently without tripping the checksum.
uint32_t FrameCrc(uint32_t type, const char* payload, size_t size) {
  uint32_t crc = Crc32Update(0, &type, sizeof(type));
  return Crc32Update(crc, payload, size);
}

}  // namespace

const char* WalStatusName(WalStatus status) {
  switch (status) {
    case WalStatus::kOk:
      return "ok";
    case WalStatus::kEof:
      return "eof";
    case WalStatus::kTruncated:
      return "truncated";
    case WalStatus::kBadMagic:
      return "bad_magic";
    case WalStatus::kBadVersion:
      return "bad_version";
    case WalStatus::kBadCrc:
      return "bad_crc";
    case WalStatus::kOversized:
      return "oversized";
  }
  return "unknown";
}

void AppendWalSegmentHeader(uint64_t segment_index, std::string* out) {
  AppendU32(kWalSegmentMagic, out);
  AppendU32(kWalVersion, out);
  AppendU64(segment_index, out);
}

WalStatus DecodeWalSegmentHeader(const std::string& data, size_t* offset,
                                 uint64_t* segment_index) {
  if (data.size() - *offset < kWalSegmentHeaderSize) {
    return WalStatus::kTruncated;
  }
  if (ReadU32At(data, *offset) != kWalSegmentMagic) {
    return WalStatus::kBadMagic;
  }
  if (ReadU32At(data, *offset + 4) != kWalVersion) {
    return WalStatus::kBadVersion;
  }
  if (segment_index != nullptr) {
    *segment_index = ReadU64At(data, *offset + 8);
  }
  *offset += kWalSegmentHeaderSize;
  return WalStatus::kOk;
}

void AppendWalFrame(uint32_t type, std::string_view payload,
                    std::string* out) {
  AppendU32(kWalFrameMagic, out);
  AppendU32(static_cast<uint32_t>(payload.size()), out);
  AppendU32(FrameCrc(type, payload.data(), payload.size()), out);
  AppendU32(type, out);
  out->append(payload);
}

WalStatus DecodeWalFrame(const std::string& data, size_t* offset,
                         size_t max_payload, WalFrame* frame) {
  const size_t remaining = data.size() - *offset;
  if (remaining == 0) return WalStatus::kEof;
  if (remaining < kWalFrameHeaderSize) return WalStatus::kTruncated;
  if (ReadU32At(data, *offset) != kWalFrameMagic) return WalStatus::kBadMagic;
  const uint32_t payload_size = ReadU32At(data, *offset + 4);
  if (payload_size > max_payload) return WalStatus::kOversized;
  if (remaining - kWalFrameHeaderSize < payload_size) {
    return WalStatus::kTruncated;
  }
  const uint32_t want_crc = ReadU32At(data, *offset + 8);
  const uint32_t type = ReadU32At(data, *offset + 12);
  const char* payload = data.data() + *offset + kWalFrameHeaderSize;
  if (FrameCrc(type, payload, payload_size) != want_crc) {
    return WalStatus::kBadCrc;
  }
  frame->type = type;
  frame->payload.assign(payload, payload_size);
  *offset += kWalFrameHeaderSize + payload_size;
  return WalStatus::kOk;
}

std::string WalSegmentFileName(uint64_t segment_index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%08llu.log",
                static_cast<unsigned long long>(segment_index));
  return buf;
}

bool ParseWalSegmentFileName(const std::string& name,
                             uint64_t* segment_index) {
  // "wal-" + at least 8 digits + ".log".
  if (name.size() < 16 || name.compare(0, 4, "wal-") != 0 ||
      name.compare(name.size() - 4, 4, ".log") != 0) {
    return false;
  }
  uint64_t index = 0;
  for (size_t i = 4; i < name.size() - 4; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    index = index * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *segment_index = index;
  return true;
}

}  // namespace io
}  // namespace dlinf
