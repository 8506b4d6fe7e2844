#ifndef DLINF_IO_CODECS_H_
#define DLINF_IO_CODECS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dlinfma/candidate_generation.h"
#include "dlinfma/dlinfma_method.h"
#include "dlinfma/inferrer.h"
#include "io/artifact.h"
#include "sim/world.h"

/// \file
/// Save/Load of every pipeline artifact in the checksummed binary envelope
/// of artifact.h. Each Save* returns false on I/O failure; each Load*
/// returns nullopt on any open/validation/decode failure and reports the
/// reason through `error` — never a crash, never a partially valid object.

namespace dlinf {
namespace io {

/// --- Simulated / imported datasets (kWorld) -------------------------------

bool SaveWorldArtifact(const sim::World& world, const std::string& path);
std::optional<sim::World> LoadWorldArtifact(const std::string& path,
                                            std::string* error = nullptr);

/// Raw world payload codec for artifacts that embed a world alongside other
/// fields (e.g. the ingest-server snapshot, kIngestState). DecodeWorldPayload
/// leaves failure signalling to the reader's sticky ok() flag.
void EncodeWorldPayload(const sim::World& world, ArtifactWriter* writer);
sim::World DecodeWorldPayload(ArtifactReader* reader);

/// --- Candidate pool + retrieval indexes (kCandidates) ---------------------

/// Serializes the complete mined state of a CandidateGeneration — stay
/// points, candidate pool with profiles, per-trip visit lists, and the
/// address/candidate/building retrieval indexes — so a loaded instance
/// answers Retrieve()/trips_through()/... identically without re-running
/// the mining pass. (This class is the friend the header grants access to.)
class CandidateGenerationCodec {
 public:
  static void Encode(const dlinfma::CandidateGeneration& gen,
                     ArtifactWriter* writer);
  static std::optional<dlinfma::CandidateGeneration> Decode(
      ArtifactReader* reader);
};

bool SaveCandidatesArtifact(const dlinfma::CandidateGeneration& gen,
                            const std::string& path);
std::optional<dlinfma::CandidateGeneration> LoadCandidatesArtifact(
    const std::string& path, std::string* error = nullptr);

/// --- Feature tensors (kSamples) -------------------------------------------

bool SaveSamplesArtifact(const dlinfma::SampleSet& samples,
                         const std::string& path);
std::optional<dlinfma::SampleSet> LoadSamplesArtifact(
    const std::string& path, std::string* error = nullptr);

/// --- Trained models (kModel) ----------------------------------------------

/// Persists the method's name, full model + train configuration, and the
/// trained parameter blob. Only single-model methods are supported (the
/// same restriction as DlInfMaMethod::ExportParameters); returns false for
/// ensembles or untrained methods.
bool SaveModelArtifact(const dlinfma::DlInfMaMethod& method,
                       const std::string& path);

/// Reconstructs a DlInfMaMethod with the persisted configuration and
/// installs the trained weights; the result infers without Fit.
std::unique_ptr<dlinfma::DlInfMaMethod> LoadModelArtifact(
    const std::string& path, std::string* error = nullptr);

}  // namespace io
}  // namespace dlinf

#endif  // DLINF_IO_CODECS_H_
