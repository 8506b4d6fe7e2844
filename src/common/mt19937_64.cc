#include "common/mt19937_64.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/check.h"

namespace dlinf {
namespace {

inline uint64_t TwistWord(uint64_t cur, uint64_t next, uint64_t far) {
  const uint64_t y =
      (cur & Mt19937_64::kUpperMask) | (next & Mt19937_64::kLowerMask);
  return far ^ (y >> 1) ^ ((y & 1) ? Mt19937_64::kMatrixA : 0);
}

}  // namespace

Mt19937_64::Mt19937_64(uint64_t seed) {
  words_[0] = seed;
  for (size_t i = 1; i < kStateSize; ++i) {
    const uint64_t x = words_[i - 1];
    words_[i] = 6364136223846793005ull * (x ^ (x >> 62)) + i;
  }
}

void Mt19937_64::Twist() {
  constexpr size_t n = kStateSize;
  constexpr size_t m = kShiftSize;
  for (size_t k = 0; k < n - m; ++k) {
    words_[k] = TwistWord(words_[k], words_[k + 1], words_[k + m]);
  }
  for (size_t k = n - m; k < n - 1; ++k) {
    words_[k] = TwistWord(words_[k], words_[k + 1], words_[k + m - n]);
  }
  words_[n - 1] = TwistWord(words_[n - 1], words_[0], words_[m - 1]);
  pos_ = 0;
}

void Mt19937_64::set_position(size_t pos) {
  DCHECK(pos <= kStateSize);
  pos_ = pos;
}

bool operator==(const Mt19937_64& a, const Mt19937_64& b) {
  return a.pos_ == b.pos_ &&
         std::equal(a.words_, a.words_ + Mt19937_64::kStateSize, b.words_);
}

std::ostream& operator<<(std::ostream& os, const Mt19937_64& engine) {
  // The standard engine's format, flags and fill included.
  const std::ios_base::fmtflags flags = os.flags();
  const char fill = os.fill();
  os.flags(std::ios_base::dec | std::ios_base::fixed | std::ios_base::left);
  os.fill(' ');
  for (size_t i = 0; i < Mt19937_64::kStateSize; ++i) {
    os << engine.words()[i] << ' ';
  }
  os << engine.position();
  os.flags(flags);
  os.fill(fill);
  return os;
}

std::istream& operator>>(std::istream& is, Mt19937_64& engine) {
  const std::ios_base::fmtflags flags = is.flags();
  is.flags(std::ios_base::dec | std::ios_base::skipws);
  uint64_t words[Mt19937_64::kStateSize];
  for (uint64_t& word : words) is >> word;
  size_t pos = 0;
  is >> pos;
  if (!is.fail() && pos > Mt19937_64::kStateSize) {
    is.setstate(std::ios_base::failbit);
  }
  if (!is.fail()) {
    std::copy(words, words + Mt19937_64::kStateSize, engine.words());
    engine.set_position(pos);
  }
  is.flags(flags);
  return is;
}

}  // namespace dlinf
