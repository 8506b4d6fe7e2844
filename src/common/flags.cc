#include "common/flags.h"

#include <cmath>
#include <type_traits>

#include "common/check.h"
#include "common/string_util.h"

namespace dlinf {
namespace {

/// Empty when `parsed` is inside the spec's bounds, else the one-line reason.
std::string CheckBounds(const FlagSpec& spec, double parsed,
                        const std::string& value) {
  const bool below = spec.min && (parsed < *spec.min ||
                                  (spec.min_exclusive && parsed == *spec.min));
  if (!below && !(spec.max && parsed > *spec.max)) return "";
  std::string range;
  if (spec.min) {
    range = StrPrintf("%s %g", spec.min_exclusive ? ">" : ">=", *spec.min);
  }
  if (spec.max) {
    range += StrPrintf("%s<= %g", spec.min ? " and " : "", *spec.max);
  }
  return std::string(spec.name) + " wants a value " + range + ", got '" +
         value + "'";
}

/// Empty when `value` parses as an in-bounds T, else the one-line reason.
template <typename T>
std::string CheckNumber(const FlagSpec& spec, const std::string& value,
                        const char* wants) {
  T parsed{};
  bool out_of_range = false;
  bool ok = ParseNumber(value, &parsed, &out_of_range);
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(parsed);  // Flags take finite numbers only.
  }
  if (ok) return CheckBounds(spec, static_cast<double>(parsed), value);
  const std::string flag(spec.name);
  if (out_of_range) return flag + " value '" + value + "' is out of range";
  return flag + " wants " + wants + ", got '" + value + "'";
}

/// Empty when `value` parses as the flag's type, else the one-line reason.
std::string CheckValue(const FlagSpec& spec, const std::string& value) {
  switch (spec.type) {
    case FlagType::kBool:
    case FlagType::kString:
      break;
    case FlagType::kInt:
      return CheckNumber<int>(spec, value, "an integer");
    case FlagType::kUint64:
      return CheckNumber<uint64_t>(spec, value, "a non-negative integer");
    case FlagType::kDouble:
      return CheckNumber<double>(spec, value, "a number");
  }
  return "";
}

/// A numeric flag's value, which Parse already validated.
template <typename T>
T ReadNumber(const Flags& flags, std::string_view name, T fallback) {
  const std::string text = flags.Str(name);
  if (text.empty()) return fallback;  // Absent, or given without a value.
  T value = fallback;
  CHECK(ParseNumber(text, &value)) << name;
  return value;
}

}  // namespace

std::optional<Flags> Flags::Parse(std::span<const FlagSpec> specs,
                                  std::span<char* const> args,
                                  std::string* error) {
  CHECK(error != nullptr);
  error->clear();
  Flags flags;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string token = args[i];
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& candidate : specs) {
      if (candidate.name == token) spec = &candidate;
    }
    if (spec == nullptr) {
      *error = token.starts_with("--") ? "unknown flag " + token
                                       : "unexpected argument '" + token + "'";
      return std::nullopt;
    }
    std::optional<std::string> value;
    if (spec->type != FlagType::kBool && i + 1 < args.size() &&
        !std::string_view(args[i + 1]).starts_with("--")) {
      value = args[++i];
      *error = CheckValue(*spec, *value);
    } else if (spec->type != FlagType::kBool && !spec->optional_value) {
      *error = token + " needs a value";
    }
    if (!error->empty()) return std::nullopt;
    flags.values_[token] = std::move(value);
  }
  return flags;
}

bool Flags::Has(std::string_view name) const {
  return values_.find(name) != values_.end();
}

std::string Flags::Str(std::string_view name, std::string fallback) const {
  auto it = values_.find(name);
  return it == values_.end() || !it->second ? fallback : *it->second;
}

int Flags::Int(std::string_view name, int fallback) const {
  return ReadNumber(*this, name, fallback);
}

uint64_t Flags::Uint64(std::string_view name, uint64_t fallback) const {
  return ReadNumber(*this, name, fallback);
}

double Flags::Double(std::string_view name, double fallback) const {
  return ReadNumber(*this, name, fallback);
}

}  // namespace dlinf
