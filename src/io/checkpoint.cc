#include "io/checkpoint.h"

#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "common/mt19937_64.h"
#include "fault/fault.h"
#include "io/artifact.h"

namespace dlinf {
namespace io {
namespace {

void EncodeFloatLists(const std::vector<std::vector<float>>& lists,
                      ArtifactWriter* w) {
  w->WriteU64(lists.size());
  for (const std::vector<float>& list : lists) w->WriteFloats(list);
}

std::vector<std::vector<float>> DecodeFloatLists(ArtifactReader* r) {
  const uint64_t count = r->ReadU64();
  // Each list costs at least its 8-byte length prefix; anything claiming
  // more lists than remaining bytes allow is a corrupt count.
  if (!r->ok() || count > r->remaining() / sizeof(uint64_t)) {
    r->Fail();
    return {};
  }
  std::vector<std::vector<float>> lists;
  lists.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count && r->ok(); ++i) {
    lists.push_back(r->ReadFloats());
  }
  return lists;
}

/// True when `text` is exactly one engine state in operator<< form: 312
/// words, a position in [0, 312], and nothing after it.
bool EngineStateSound(const std::string& text) {
  std::istringstream in(text);
  Mt19937_64 engine(0);
  in >> engine;
  if (in.fail()) return false;
  in >> std::ws;
  return in.eof();
}

/// True when `order` is a permutation of [0, order.size()).
bool IsPermutation(const std::vector<int64_t>& order) {
  std::vector<bool> seen(order.size(), false);
  for (const int64_t index : order) {
    if (index < 0 || static_cast<uint64_t>(index) >= order.size() ||
        seen[static_cast<size_t>(index)]) {
      return false;
    }
    seen[static_cast<size_t>(index)] = true;
  }
  return true;
}

/// Rules a decoded checkpoint must satisfy before anyone trusts it: a
/// parseable RNG engine state, a sample order that is a permutation, one
/// Adam moment pair per parameter tensor with matching element counts, and
/// a best-params snapshot that is either absent or parameter-shaped. The
/// trainer indexes and restores all of these unchecked.
bool StructurallySound(const dlinfma::TrainCheckpoint& ck) {
  if (ck.next_epoch < 0 || ck.adam_step < 0 ||
      ck.epochs_without_improvement < 0) {
    return false;
  }
  if (!EngineStateSound(ck.rng_state)) return false;
  if (!IsPermutation(ck.sample_order)) return false;
  if (ck.adam_m.size() != ck.params.size() ||
      ck.adam_v.size() != ck.params.size()) {
    return false;
  }
  for (size_t i = 0; i < ck.params.size(); ++i) {
    if (ck.adam_m[i].size() != ck.params[i].size() ||
        ck.adam_v[i].size() != ck.params[i].size()) {
      return false;
    }
  }
  if (!ck.best_params.empty()) {
    if (ck.best_params.size() != ck.params.size()) return false;
    for (size_t i = 0; i < ck.params.size(); ++i) {
      if (ck.best_params[i].size() != ck.params[i].size()) return false;
    }
  }
  return true;
}

}  // namespace

bool SaveCheckpointArtifact(const dlinfma::TrainCheckpoint& ckpt,
                            const std::string& path) {
  // Injected checkpoint-write failure: the volume filled up or went away at
  // an epoch boundary. Fired before any filesystem touch, so the previous
  // checkpoint file survives untouched.
  if (fault::Hit("train.checkpoint.write_fail")) return false;

  ArtifactWriter w(ArtifactKind::kCheckpoint);
  w.WriteI32(ckpt.next_epoch);
  w.WriteU64(ckpt.seed);
  w.WriteFloat(ckpt.learning_rate);
  w.WriteI32(ckpt.schedule_epoch);
  w.WriteI64(ckpt.adam_step);
  w.WriteString(ckpt.rng_state);
  w.WriteDouble(ckpt.best_val_loss);
  w.WriteI32(ckpt.epochs_without_improvement);
  w.WriteDouble(ckpt.final_train_loss);
  w.WriteI64s(ckpt.sample_order);
  EncodeFloatLists(ckpt.params, &w);
  EncodeFloatLists(ckpt.adam_m, &w);
  EncodeFloatLists(ckpt.adam_v, &w);
  EncodeFloatLists(ckpt.best_params, &w);
  return w.Finish(path);
}

std::optional<dlinfma::TrainCheckpoint> LoadCheckpointArtifact(
    const std::string& path, std::string* error) {
  auto reader = ArtifactReader::Open(path, ArtifactKind::kCheckpoint, error);
  if (!reader) return std::nullopt;
  ArtifactReader& r = *reader;

  dlinfma::TrainCheckpoint ck;
  ck.next_epoch = r.ReadI32();
  ck.seed = r.ReadU64();
  ck.learning_rate = r.ReadFloat();
  ck.schedule_epoch = r.ReadI32();
  ck.adam_step = r.ReadI64();
  ck.rng_state = r.ReadString();
  ck.best_val_loss = r.ReadDouble();
  ck.epochs_without_improvement = r.ReadI32();
  ck.final_train_loss = r.ReadDouble();
  ck.sample_order = r.ReadI64s();
  ck.params = DecodeFloatLists(&r);
  ck.adam_m = DecodeFloatLists(&r);
  ck.adam_v = DecodeFloatLists(&r);
  ck.best_params = DecodeFloatLists(&r);

  if (!r.AtEnd() || !StructurallySound(ck)) {
    if (error != nullptr) *error = "malformed checkpoint payload in " + path;
    return std::nullopt;
  }
  return ck;
}

}  // namespace io
}  // namespace dlinf
