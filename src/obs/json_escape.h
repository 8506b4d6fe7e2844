#ifndef DLINF_OBS_JSON_ESCAPE_H_
#define DLINF_OBS_JSON_ESCAPE_H_

#include <string>
#include <string_view>

namespace dlinf {
namespace obs {

/// The body of a JSON string literal holding `s` (no surrounding quotes).
/// `"` `\` and the control characters \n \r \t take their short escapes;
/// every other byte below 0x20 becomes `\u00XX`, so nothing is lost and the
/// output is always valid JSON. Bytes >= 0x20 pass through unchanged (UTF-8
/// stays UTF-8). The one escaper every JSON emitter in the repo uses.
std::string JsonEscape(std::string_view s);

}  // namespace obs
}  // namespace dlinf

#endif  // DLINF_OBS_JSON_ESCAPE_H_
