#ifndef DLINF_IO_CODECS_H_
#define DLINF_IO_CODECS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "dlinfma/dlinfma_method.h"
#include "io/artifact.h"
#include "sim/world.h"

/// \file
/// Save/Load of the world and model artifacts in the checksummed binary
/// envelope of artifact.h. Each Save* returns false on I/O failure; each
/// Load* returns nullopt on any open/validation/decode failure and reports
/// the reason through `error` — never a crash, never a partially valid
/// object.

namespace dlinf {
namespace io {

/// --- Simulated / imported datasets (kWorld) -------------------------------

bool SaveWorldArtifact(const sim::World& world, const std::string& path);
/// Also fails typed on a world whose ids do not resolve (DecodeWorldPayload).
std::optional<sim::World> LoadWorldArtifact(const std::string& path,
                                            std::string* error = nullptr);

/// Raw world payload codec for artifacts that embed a world alongside other
/// fields (the ingest-server snapshot, kIngestState, and answers.art's
/// city). DecodeWorldPayload runs sim::ValidateWorld on what it decoded: a
/// short payload or a dangling id fails the reader's sticky ok() flag, and
/// `invalid`, when non-null, receives the dangling id's reason.
void EncodeWorldPayload(const sim::World& world, ArtifactWriter* writer);
sim::World DecodeWorldPayload(ArtifactReader* reader,
                              std::string* invalid = nullptr);
/// The world payload of `world` without its trips (the static city), read
/// back by DecodeWorldPayload as a world with no trips.
void EncodeCityPayload(const sim::World& world, ArtifactWriter* writer);

/// --- Trained models (kModel) ----------------------------------------------

/// Persists the method's name, full model + train configuration, and the
/// trained parameter blob. Only single-model methods are supported (the
/// same restriction as DlInfMaMethod::ExportParameters); returns false for
/// ensembles or untrained methods. `crc`, when non-null, receives the
/// written payload's CRC-32 (what answers.art records to pair with it).
bool SaveModelArtifact(const dlinfma::DlInfMaMethod& method,
                       const std::string& path, uint32_t* crc = nullptr);

/// Reconstructs a DlInfMaMethod with the persisted configuration and
/// installs the trained weights; the result infers without Fit. `crc`, when
/// non-null, receives the file's verified payload CRC-32.
std::unique_ptr<dlinfma::DlInfMaMethod> LoadModelArtifact(
    const std::string& path, std::string* error = nullptr,
    uint32_t* crc = nullptr);

}  // namespace io
}  // namespace dlinf

#endif  // DLINF_IO_CODECS_H_
