#ifndef DLINF_COMMON_FLAGS_H_
#define DLINF_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace dlinf {

/// What a command-line flag takes after its name.
enum class FlagType {
  kBool,    ///< `--quick`: presence only, no value.
  kString,  ///< `--out DIR`.
  kInt,     ///< `--days 30`: a decimal `int`.
  kUint64,  ///< `--seed 42`: a decimal `uint64_t`, no sign.
  kDouble,  ///< `--rate 2.5`: a finite decimal number.
};

/// One accepted flag. `name` is the token as typed (`"--days"`, `"-h"`).
/// With `optional_value` the value may be omitted (`--metrics [FILE]`).
/// A numeric flag may carry bounds, inclusive unless `min_exclusive`:
/// `{.name = "--shards", .type = FlagType::kInt, .min = 1}`.
struct FlagSpec {
  std::string_view name;
  FlagType type = FlagType::kBool;
  bool optional_value = false;
  std::optional<double> min = std::nullopt;
  std::optional<double> max = std::nullopt;
  bool min_exclusive = false;
};

/// The command-line parser every tool uses. Syntax: `--key value`, a bare
/// `--key` for booleans and optional values, negative numbers as values
/// (`--port -1`); a token starting with `--` is never a value, and a
/// repeated flag keeps its last value. Parse rejects unknown flags, stray
/// positional arguments, missing values, and numbers that are malformed,
/// have trailing characters, do not fit the flag's type or fall outside its
/// bounds.
class Flags {
 public:
  /// Parses `args` against `specs`; on rejection returns nullopt with one
  /// line naming the offending flag or argument in `*error`.
  static std::optional<Flags> Parse(std::span<const FlagSpec> specs,
                                    std::span<char* const> args,
                                    std::string* error);

  /// Whether the flag was given, with or without a value.
  bool Has(std::string_view name) const;

  /// The flag's value, or `fallback` when absent or given without one.
  std::string Str(std::string_view name, std::string fallback = "") const;
  int Int(std::string_view name, int fallback) const;
  uint64_t Uint64(std::string_view name, uint64_t fallback) const;
  double Double(std::string_view name, double fallback) const;

 private:
  /// Given flags; nullopt for one given without a value.
  std::map<std::string, std::optional<std::string>, std::less<>> values_;
};

}  // namespace dlinf

#endif  // DLINF_COMMON_FLAGS_H_
