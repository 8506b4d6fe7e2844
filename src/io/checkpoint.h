#ifndef DLINF_IO_CHECKPOINT_H_
#define DLINF_IO_CHECKPOINT_H_

#include <optional>
#include <string>

#include "dlinfma/trainer.h"

/// \file
/// Crash-safe training checkpoints (DESIGN.md §9).
///
/// A CKPT artifact is one dlinfma::TrainCheckpoint — the complete
/// between-epoch state of a training run (model parameters, Adam moments and
/// step, halving-schedule epoch, RNG engine, best-validation snapshot and
/// early-stop counters, shuffle permutation) — in the standard checksummed
/// DLAB envelope (artifact.h, kind `checkpoint`). Writes go through the
/// envelope's atomic temp+rename, so a crash mid-write leaves the previous
/// checkpoint intact and a reader never observes a torn file; any
/// corruption, truncation, or version skew surfaces as a typed error from
/// Load, never a crash.
///
/// The fault point `train.checkpoint.write_fail` (DESIGN.md §8) makes Save
/// report failure without touching the filesystem — the "disk full at epoch
/// boundary" drill the tests replay deterministically.

namespace dlinf {
namespace io {

/// Persists `ckpt` at `path` in the CKPT envelope. Returns false on the
/// injected `train.checkpoint.write_fail` fault or any real I/O failure;
/// in both cases no file is created or replaced.
bool SaveCheckpointArtifact(const dlinfma::TrainCheckpoint& ckpt,
                            const std::string& path);

/// Loads and validates a CKPT artifact. On any open/validation/decode
/// failure returns nullopt with a human-readable reason in `error`. A
/// successful load is structurally sound (per-tensor moment/parameter
/// shapes consistent, counters non-negative, `rng_state` a complete engine
/// state, `sample_order` a permutation); whether it matches a given
/// model/config is checked by the trainer at resume time.
std::optional<dlinfma::TrainCheckpoint> LoadCheckpointArtifact(
    const std::string& path, std::string* error = nullptr);

}  // namespace io
}  // namespace dlinf

#endif  // DLINF_IO_CHECKPOINT_H_
