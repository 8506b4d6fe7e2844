#ifndef DLINF_NN_SERIALIZE_H_
#define DLINF_NN_SERIALIZE_H_

#include <string>
#include <string_view>
#include <vector>

#include "nn/tensor.h"

namespace dlinf {
namespace nn {

/// Serializes the parameter list to an in-memory blob (magic + count, then
/// shape + float32 payload per tensor) — the unit the artifact layer
/// (src/io) embeds inside checksummed model artifacts.
std::string EncodeParameters(const std::vector<Tensor>& parameters);

/// Restores parameter data in place from an EncodeParameters blob. The list
/// must have the same length and per-tensor shapes as at encode time;
/// returns false on any mismatch or short/overlong blob (parameters may be
/// partially updated on failure).
bool DecodeParameters(std::string_view blob, std::vector<Tensor>* parameters);

}  // namespace nn
}  // namespace dlinf

#endif  // DLINF_NN_SERIALIZE_H_
