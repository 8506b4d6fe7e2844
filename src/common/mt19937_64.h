#ifndef DLINF_COMMON_MT19937_64_H_
#define DLINF_COMMON_MT19937_64_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>

namespace dlinf {

/// The 64-bit Mersenne Twister, bit-identical to std::mt19937_64: the same
/// seeding, the same output sequence, and the same operator<< / operator>>
/// text (312 state words then the position, space-separated), so state
/// strings written by either engine load into the other.
///
/// Unlike the standard engine it exposes its state words and position, so
/// a block consumer (the kernel layer's dropout-mask fill, DESIGN.md §12)
/// can regenerate and temper many words at once and leave the engine
/// exactly where the same number of operator() calls would.
class Mt19937_64 {
 public:
  using result_type = uint64_t;

  static constexpr size_t kStateSize = 312;
  static constexpr size_t kShiftSize = 156;
  static constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ull;
  static constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
  static constexpr uint64_t kLowerMask = ~kUpperMask;
  static constexpr uint64_t kTemperD = 0x5555555555555555ull;
  static constexpr uint64_t kTemperB = 0x71d67fffeda60000ull;
  static constexpr uint64_t kTemperC = 0xfff7eee000000000ull;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  explicit Mt19937_64(uint64_t seed);

  result_type operator()() {
    if (pos_ >= kStateSize) Twist();
    return Temper(words_[pos_++]);
  }

  /// The output transform applied to one state word.
  static uint64_t Temper(uint64_t z) {
    z ^= (z >> 29) & kTemperD;
    z ^= (z << 17) & kTemperB;
    z ^= (z << 37) & kTemperC;
    z ^= z >> 43;
    return z;
  }

  /// State access for block consumers: word `position()` is the next one
  /// operator() tempers; position kStateSize means a twist is due.
  uint64_t* words() { return words_; }
  const uint64_t* words() const { return words_; }
  size_t position() const { return pos_; }
  void set_position(size_t pos);

  friend bool operator==(const Mt19937_64& a, const Mt19937_64& b);

 private:
  /// Regenerates all kStateSize words (the standard's _M_gen_rand) and
  /// rewinds the position to 0.
  void Twist();

  uint64_t words_[kStateSize];
  size_t pos_ = kStateSize;
};

/// Writes the state in the standard engine's text form.
std::ostream& operator<<(std::ostream& os, const Mt19937_64& engine);

/// Reads the standard engine's text form: kStateSize words, then a position
/// in [0, kStateSize]. A position above kStateSize sets failbit (the
/// standard engine accepts it silently; a block consumer would index past
/// the state with it). On failure the engine is left unchanged.
std::istream& operator>>(std::istream& is, Mt19937_64& engine);

}  // namespace dlinf

#endif  // DLINF_COMMON_MT19937_64_H_
