#ifndef DLINF_COMMON_STRING_UTIL_H_
#define DLINF_COMMON_STRING_UTIL_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace dlinf {

/// Splits on every occurrence of `sep`; adjacent separators yield empty
/// fields (CSV semantics).
std::vector<std::string> Split(const std::string& text, char sep);

/// Joins pieces with `sep` between them.
std::string Join(const std::vector<std::string>& pieces,
                 const std::string& sep);

/// Strips ASCII whitespace from both ends.
std::string Trim(const std::string& text);

/// Strict number parse: all of `text` must be one base-10 integer or one
/// decimal/scientific floating-point number (an optional leading '-', no
/// '+', no whitespace), and it must fit a T. False when it is malformed or
/// out of range, leaving *out untouched; *out_of_range, when given, tells
/// the two apart. Floating point also reads "inf" and "nan": callers that
/// need a finite value check std::isfinite.
template <typename T>
bool ParseNumber(std::string_view text, T* out, bool* out_of_range = nullptr) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (out_of_range != nullptr) {
    *out_of_range = ec == std::errc::result_out_of_range;
  }
  if (ec != std::errc() || stop != end) return false;
  *out = value;
  return true;
}

/// printf-style formatting into a std::string (gcc 12 lacks std::format).
std::string StrPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace dlinf

#endif  // DLINF_COMMON_STRING_UTIL_H_
