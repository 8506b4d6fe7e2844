#include "io/codecs.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "traj/stay_point.h"

namespace dlinf {
namespace io {
namespace {

/// --- Shared field helpers -------------------------------------------------

void WritePoint(ArtifactWriter* w, const Point& p) {
  w->WriteDouble(p.x);
  w->WriteDouble(p.y);
}

Point ReadPoint(ArtifactReader* r) {
  Point p;
  p.x = r->ReadDouble();
  p.y = r->ReadDouble();
  return p;
}

/// Enums are persisted as i32 and range-checked on read so that corrupted
/// (but checksum-valid, e.g. hand-edited) files cannot smuggle invalid
/// enumerators into switch statements downstream.
template <typename E>
E ReadEnum(ArtifactReader* r, int32_t max_value) {
  const int32_t v = r->ReadI32();
  if (v < 0 || v > max_value) {
    r->Fail();
    return static_cast<E>(0);
  }
  return static_cast<E>(v);
}

void WriteStayPoint(ArtifactWriter* w, const StayPoint& sp) {
  WritePoint(w, sp.location);
  w->WriteDouble(sp.start_time);
  w->WriteDouble(sp.end_time);
  w->WriteI64(sp.courier_id);
  w->WriteI64(sp.trip_id);
}

StayPoint ReadStayPoint(ArtifactReader* r) {
  StayPoint sp;
  sp.location = ReadPoint(r);
  sp.start_time = r->ReadDouble();
  sp.end_time = r->ReadDouble();
  sp.courier_id = r->ReadI64();
  sp.trip_id = r->ReadI64();
  return sp;
}

/// Writes a sorted (key, vector) view of an unordered map so identical
/// in-memory states always produce byte-identical artifacts (the round-trip
/// tests rely on save -> load -> save being a fixed point).
template <typename V, typename WriteValue>
void WriteI64Map(ArtifactWriter* w,
                 const std::unordered_map<int64_t, V>& map,
                 const WriteValue& write_value) {
  std::vector<int64_t> keys;
  keys.reserve(map.size());
  for (const auto& [key, value] : map) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  w->WriteU64(keys.size());
  for (int64_t key : keys) {
    w->WriteI64(key);
    write_value(map.at(key));
  }
}

}  // namespace

/// --- World ----------------------------------------------------------------

namespace {

void EncodeWorld(const sim::World& world, ArtifactWriter* w) {
  w->WriteString(world.name);
  WritePoint(w, world.station);

  w->WriteU64(world.communities.size());
  for (const sim::Community& c : world.communities) {
    w->WriteI64(c.id);
    WritePoint(w, c.center);
    WritePoint(w, c.gate);
    WritePoint(w, c.locker);
    w->WriteI32(static_cast<int32_t>(c.split));
  }

  w->WriteU64(world.buildings.size());
  for (const sim::Building& b : world.buildings) {
    w->WriteI64(b.id);
    w->WriteI64(b.community_id);
    WritePoint(w, b.position);
    WritePoint(w, b.reception);
  }

  w->WriteU64(world.addresses.size());
  for (const sim::Address& a : world.addresses) {
    w->WriteI64(a.id);
    w->WriteI64(a.building_id);
    w->WriteI64(a.community_id);
    w->WriteString(a.text);
    WritePoint(w, a.true_delivery_location);
    w->WriteI32(static_cast<int32_t>(a.mode));
    WritePoint(w, a.geocoded_location);
    w->WriteI32(a.poi_category);
    w->WriteDouble(a.order_rate);
    w->WriteI32(static_cast<int32_t>(a.split));
  }

  w->WriteU64(world.couriers.size());
  for (const sim::Courier& c : world.couriers) {
    w->WriteI64(c.id);
    w->WriteI64s(c.zone_community_ids);
  }

  w->WriteU64(world.trips.size());
  for (const sim::DeliveryTrip& trip : world.trips) {
    w->WriteI64(trip.id);
    w->WriteI64(trip.courier_id);
    w->WriteDouble(trip.start_time);
    w->WriteDouble(trip.end_time);

    w->WriteI64(trip.trajectory.courier_id);
    w->WriteU64(trip.trajectory.points.size());
    for (const TrajPoint& p : trip.trajectory.points) {
      w->WriteDouble(p.x);
      w->WriteDouble(p.y);
      w->WriteDouble(p.t);
    }

    w->WriteU64(trip.waybills.size());
    for (const sim::Waybill& wb : trip.waybills) {
      w->WriteI64(wb.id);
      w->WriteI64(wb.address_id);
      w->WriteDouble(wb.receive_time);
      w->WriteDouble(wb.recorded_delivery_time);
      w->WriteDouble(wb.actual_delivery_time);
    }

    w->WriteU64(trip.planned_stays.size());
    for (const sim::PlannedStay& stay : trip.planned_stays) {
      WritePoint(w, stay.location);
      w->WriteDouble(stay.start_time);
      w->WriteDouble(stay.end_time);
      w->WriteI64s(stay.delivered_address_ids);
    }
  }
}

sim::World DecodeWorld(ArtifactReader* r) {
  sim::World world;
  world.name = r->ReadString();
  world.station = ReadPoint(r);

  const uint64_t num_communities = r->ReadU64();
  for (uint64_t i = 0; r->ok() && i < num_communities; ++i) {
    sim::Community c;
    c.id = r->ReadI64();
    c.center = ReadPoint(r);
    c.gate = ReadPoint(r);
    c.locker = ReadPoint(r);
    c.split = ReadEnum<sim::Split>(r, 2);
    world.communities.push_back(std::move(c));
  }

  const uint64_t num_buildings = r->ReadU64();
  for (uint64_t i = 0; r->ok() && i < num_buildings; ++i) {
    sim::Building b;
    b.id = r->ReadI64();
    b.community_id = r->ReadI64();
    b.position = ReadPoint(r);
    b.reception = ReadPoint(r);
    world.buildings.push_back(std::move(b));
  }

  const uint64_t num_addresses = r->ReadU64();
  for (uint64_t i = 0; r->ok() && i < num_addresses; ++i) {
    sim::Address a;
    a.id = r->ReadI64();
    a.building_id = r->ReadI64();
    a.community_id = r->ReadI64();
    a.text = r->ReadString();
    a.true_delivery_location = ReadPoint(r);
    a.mode = ReadEnum<sim::DeliveryMode>(r, 2);
    a.geocoded_location = ReadPoint(r);
    a.poi_category = r->ReadI32();
    a.order_rate = r->ReadDouble();
    a.split = ReadEnum<sim::Split>(r, 2);
    world.addresses.push_back(std::move(a));
  }

  const uint64_t num_couriers = r->ReadU64();
  for (uint64_t i = 0; r->ok() && i < num_couriers; ++i) {
    sim::Courier c;
    c.id = r->ReadI64();
    c.zone_community_ids = r->ReadI64s();
    world.couriers.push_back(std::move(c));
  }

  const uint64_t num_trips = r->ReadU64();
  for (uint64_t i = 0; r->ok() && i < num_trips; ++i) {
    sim::DeliveryTrip trip;
    trip.id = r->ReadI64();
    trip.courier_id = r->ReadI64();
    trip.start_time = r->ReadDouble();
    trip.end_time = r->ReadDouble();

    trip.trajectory.courier_id = r->ReadI64();
    const uint64_t num_points = r->ReadU64();
    for (uint64_t j = 0; r->ok() && j < num_points; ++j) {
      TrajPoint p;
      p.x = r->ReadDouble();
      p.y = r->ReadDouble();
      p.t = r->ReadDouble();
      trip.trajectory.points.push_back(p);
    }

    const uint64_t num_waybills = r->ReadU64();
    for (uint64_t j = 0; r->ok() && j < num_waybills; ++j) {
      sim::Waybill wb;
      wb.id = r->ReadI64();
      wb.address_id = r->ReadI64();
      wb.receive_time = r->ReadDouble();
      wb.recorded_delivery_time = r->ReadDouble();
      wb.actual_delivery_time = r->ReadDouble();
      trip.waybills.push_back(wb);
    }

    const uint64_t num_stays = r->ReadU64();
    for (uint64_t j = 0; r->ok() && j < num_stays; ++j) {
      sim::PlannedStay stay;
      stay.location = ReadPoint(r);
      stay.start_time = r->ReadDouble();
      stay.end_time = r->ReadDouble();
      stay.delivered_address_ids = r->ReadI64s();
      trip.planned_stays.push_back(std::move(stay));
    }
    world.trips.push_back(std::move(trip));
  }
  return world;
}

}  // namespace

void EncodeWorldPayload(const sim::World& world, ArtifactWriter* writer) {
  EncodeWorld(world, writer);
}

sim::World DecodeWorldPayload(ArtifactReader* reader) {
  return DecodeWorld(reader);
}

bool SaveWorldArtifact(const sim::World& world, const std::string& path) {
  ArtifactWriter writer(ArtifactKind::kWorld);
  EncodeWorld(world, &writer);
  return writer.Finish(path);
}

std::optional<sim::World> LoadWorldArtifact(const std::string& path,
                                            std::string* error) {
  auto reader = ArtifactReader::Open(path, ArtifactKind::kWorld, error);
  if (!reader) return std::nullopt;
  sim::World world = DecodeWorld(&*reader);
  if (!reader->AtEnd()) {
    if (error != nullptr) *error = "malformed world payload in " + path;
    return std::nullopt;
  }
  return world;
}

/// --- Candidate generation -------------------------------------------------

void CandidateGenerationCodec::Encode(const dlinfma::CandidateGeneration& gen,
                                      ArtifactWriter* w) {
  w->WriteI64(gen.num_trips_);

  w->WriteU64(gen.stay_points_.size());
  for (const StayPoint& sp : gen.stay_points_) WriteStayPoint(w, sp);

  w->WriteU64(gen.candidates_.size());
  for (const dlinfma::LocationCandidate& c : gen.candidates_) {
    w->WriteI64(c.id);
    WritePoint(w, c.location);
    w->WriteI32(c.num_stay_points);
    w->WriteDouble(c.profile.avg_duration_s);
    w->WriteI32(c.profile.num_couriers);
    for (double bin : c.profile.time_distribution) w->WriteDouble(bin);
  }

  w->WriteU64(gen.trip_visits_.size());
  for (const auto& visits : gen.trip_visits_) {
    w->WriteU64(visits.size());
    for (const dlinfma::TripCandidateVisit& v : visits) {
      w->WriteI64(v.candidate_id);
      w->WriteDouble(v.time);
      w->WriteDouble(v.duration);
    }
  }

  WriteI64Map(w, gen.address_trips_,
              [w](const std::vector<dlinfma::AddressTripRecord>& records) {
                w->WriteU64(records.size());
                for (const dlinfma::AddressTripRecord& rec : records) {
                  w->WriteI64(rec.trip_id);
                  w->WriteDouble(rec.recorded_delivery_time);
                }
              });
  WriteI64Map(w, gen.candidate_trips_,
              [w](const std::vector<int64_t>& ids) { w->WriteI64s(ids); });
  WriteI64Map(w, gen.building_trips_,
              [w](const std::vector<int64_t>& ids) { w->WriteI64s(ids); });
}

std::optional<dlinfma::CandidateGeneration> CandidateGenerationCodec::Decode(
    ArtifactReader* r) {
  dlinfma::CandidateGeneration gen;
  gen.num_trips_ = r->ReadI64();

  const uint64_t num_stays = r->ReadU64();
  for (uint64_t i = 0; r->ok() && i < num_stays; ++i) {
    gen.stay_points_.push_back(ReadStayPoint(r));
  }

  const uint64_t num_candidates = r->ReadU64();
  for (uint64_t i = 0; r->ok() && i < num_candidates; ++i) {
    dlinfma::LocationCandidate c;
    c.id = r->ReadI64();
    c.location = ReadPoint(r);
    c.num_stay_points = r->ReadI32();
    c.profile.avg_duration_s = r->ReadDouble();
    c.profile.num_couriers = r->ReadI32();
    for (double& bin : c.profile.time_distribution) bin = r->ReadDouble();
    gen.candidates_.push_back(std::move(c));
  }

  const uint64_t num_trip_lists = r->ReadU64();
  for (uint64_t i = 0; r->ok() && i < num_trip_lists; ++i) {
    std::vector<dlinfma::TripCandidateVisit> visits;
    const uint64_t num_visits = r->ReadU64();
    for (uint64_t j = 0; r->ok() && j < num_visits; ++j) {
      dlinfma::TripCandidateVisit v;
      v.candidate_id = r->ReadI64();
      v.time = r->ReadDouble();
      v.duration = r->ReadDouble();
      visits.push_back(v);
    }
    gen.trip_visits_.push_back(std::move(visits));
  }

  const uint64_t num_address_entries = r->ReadU64();
  for (uint64_t i = 0; r->ok() && i < num_address_entries; ++i) {
    const int64_t key = r->ReadI64();
    std::vector<dlinfma::AddressTripRecord> records;
    const uint64_t num_records = r->ReadU64();
    for (uint64_t j = 0; r->ok() && j < num_records; ++j) {
      dlinfma::AddressTripRecord rec;
      rec.trip_id = r->ReadI64();
      rec.recorded_delivery_time = r->ReadDouble();
      records.push_back(rec);
    }
    gen.address_trips_[key] = std::move(records);
  }

  const uint64_t num_candidate_entries = r->ReadU64();
  for (uint64_t i = 0; r->ok() && i < num_candidate_entries; ++i) {
    const int64_t key = r->ReadI64();
    gen.candidate_trips_[key] = r->ReadI64s();
  }

  const uint64_t num_building_entries = r->ReadU64();
  for (uint64_t i = 0; r->ok() && i < num_building_entries; ++i) {
    const int64_t key = r->ReadI64();
    gen.building_trips_[key] = r->ReadI64s();
  }

  // Referential sanity: every visit list must belong to a trip and every
  // visit must point into the candidate pool.
  if (gen.trip_visits_.size() !=
      static_cast<size_t>(std::max<int64_t>(gen.num_trips_, 0))) {
    r->Fail();
  }
  for (const auto& visits : gen.trip_visits_) {
    for (const dlinfma::TripCandidateVisit& v : visits) {
      if (v.candidate_id < 0 ||
          v.candidate_id >= static_cast<int64_t>(gen.candidates_.size())) {
        r->Fail();
      }
    }
  }
  if (!r->ok()) return std::nullopt;
  return gen;
}

bool SaveCandidatesArtifact(const dlinfma::CandidateGeneration& gen,
                            const std::string& path) {
  ArtifactWriter writer(ArtifactKind::kCandidates);
  CandidateGenerationCodec::Encode(gen, &writer);
  return writer.Finish(path);
}

std::optional<dlinfma::CandidateGeneration> LoadCandidatesArtifact(
    const std::string& path, std::string* error) {
  auto reader = ArtifactReader::Open(path, ArtifactKind::kCandidates, error);
  if (!reader) return std::nullopt;
  auto gen = CandidateGenerationCodec::Decode(&*reader);
  if (!gen || !reader->AtEnd()) {
    if (error != nullptr) *error = "malformed candidate payload in " + path;
    return std::nullopt;
  }
  return gen;
}

/// --- Feature samples ------------------------------------------------------

namespace {

void EncodeSamples(const std::vector<dlinfma::AddressSample>& samples,
                   ArtifactWriter* w) {
  w->WriteU64(samples.size());
  for (const dlinfma::AddressSample& s : samples) {
    w->WriteI64(s.address_id);
    w->WriteI64s(s.candidate_ids);
    w->WriteU64(s.features.size());
    for (const dlinfma::CandidateFeatureVector& f : s.features) {
      w->WriteDouble(f.trip_coverage);
      w->WriteDouble(f.location_commonality);
      w->WriteDouble(f.distance);
      w->WriteDouble(f.avg_duration);
      w->WriteDouble(f.num_couriers);
      for (double bin : f.time_distribution) w->WriteDouble(bin);
    }
    w->WriteDouble(s.address.log_num_deliveries);
    w->WriteI32(s.address.poi_category);
    w->WriteI32(s.label);
  }
}

std::vector<dlinfma::AddressSample> DecodeSamples(ArtifactReader* r) {
  std::vector<dlinfma::AddressSample> samples;
  const uint64_t count = r->ReadU64();
  for (uint64_t i = 0; r->ok() && i < count; ++i) {
    dlinfma::AddressSample s;
    s.address_id = r->ReadI64();
    s.candidate_ids = r->ReadI64s();
    const uint64_t num_features = r->ReadU64();
    for (uint64_t j = 0; r->ok() && j < num_features; ++j) {
      dlinfma::CandidateFeatureVector f;
      f.trip_coverage = r->ReadDouble();
      f.location_commonality = r->ReadDouble();
      f.distance = r->ReadDouble();
      f.avg_duration = r->ReadDouble();
      f.num_couriers = r->ReadDouble();
      for (double& bin : f.time_distribution) bin = r->ReadDouble();
      s.features.push_back(f);
    }
    s.address.log_num_deliveries = r->ReadDouble();
    s.address.poi_category = r->ReadI32();
    s.label = r->ReadI32();
    // A sample's feature rows must align 1:1 with its candidate ids.
    if (s.features.size() != s.candidate_ids.size()) r->Fail();
    samples.push_back(std::move(s));
  }
  return samples;
}

}  // namespace

bool SaveSamplesArtifact(const dlinfma::SampleSet& samples,
                         const std::string& path) {
  ArtifactWriter writer(ArtifactKind::kSamples);
  EncodeSamples(samples.train, &writer);
  EncodeSamples(samples.val, &writer);
  EncodeSamples(samples.test, &writer);
  return writer.Finish(path);
}

std::optional<dlinfma::SampleSet> LoadSamplesArtifact(const std::string& path,
                                                      std::string* error) {
  auto reader = ArtifactReader::Open(path, ArtifactKind::kSamples, error);
  if (!reader) return std::nullopt;
  dlinfma::SampleSet samples;
  samples.train = DecodeSamples(&*reader);
  samples.val = DecodeSamples(&*reader);
  samples.test = DecodeSamples(&*reader);
  if (!reader->AtEnd()) {
    if (error != nullptr) *error = "malformed sample payload in " + path;
    return std::nullopt;
  }
  return samples;
}

/// --- Trained models -------------------------------------------------------

bool SaveModelArtifact(const dlinfma::DlInfMaMethod& method,
                       const std::string& path) {
  const std::string blob = method.ExportParameters();
  if (blob.empty()) return false;  // Ensemble or untrained.

  ArtifactWriter w(ArtifactKind::kModel);
  w.WriteString(method.name());

  const dlinfma::LocMatcherConfig& m = method.model_config();
  w.WriteI32(m.time_bins);
  w.WriteI32(m.time_dense_dim);
  w.WriteI32(m.model_dim);
  w.WriteI32(m.score_dim);
  w.WriteI32(m.poi_embed_dim);
  w.WriteI32(m.num_poi_categories);
  w.WriteI32(m.num_layers);
  w.WriteI32(m.num_heads);
  w.WriteI32(m.ff_dim);
  w.WriteFloat(m.dropout);
  w.WriteBool(m.use_address_context);
  w.WriteI32(static_cast<int32_t>(m.encoder));
  w.WriteI32(m.lstm_hidden);

  const dlinfma::TrainConfig& t = method.train_config();
  w.WriteFloat(t.learning_rate);
  w.WriteI32(t.batch_size);
  w.WriteI32(t.lr_halve_epochs);
  w.WriteI32(t.max_epochs);
  w.WriteI32(t.early_stop_patience);
  w.WriteU64(t.seed);

  w.WriteString(blob);
  return w.Finish(path);
}

std::unique_ptr<dlinfma::DlInfMaMethod> LoadModelArtifact(
    const std::string& path, std::string* error) {
  auto reader = ArtifactReader::Open(path, ArtifactKind::kModel, error);
  if (!reader) return nullptr;
  ArtifactReader& r = *reader;

  const std::string name = r.ReadString();

  dlinfma::LocMatcherConfig m;
  m.time_bins = r.ReadI32();
  m.time_dense_dim = r.ReadI32();
  m.model_dim = r.ReadI32();
  m.score_dim = r.ReadI32();
  m.poi_embed_dim = r.ReadI32();
  m.num_poi_categories = r.ReadI32();
  m.num_layers = r.ReadI32();
  m.num_heads = r.ReadI32();
  m.ff_dim = r.ReadI32();
  m.dropout = r.ReadFloat();
  m.use_address_context = r.ReadBool();
  m.encoder = ReadEnum<dlinfma::LocMatcherConfig::EncoderKind>(&r, 1);
  m.lstm_hidden = r.ReadI32();

  dlinfma::TrainConfig t;
  t.learning_rate = r.ReadFloat();
  t.batch_size = r.ReadI32();
  t.lr_halve_epochs = r.ReadI32();
  t.max_epochs = r.ReadI32();
  t.early_stop_patience = r.ReadI32();
  t.seed = r.ReadU64();

  const std::string blob = r.ReadString();
  if (!r.AtEnd()) {
    if (error != nullptr) *error = "malformed model payload in " + path;
    return nullptr;
  }
  // Model dimensions feed directly into layer constructors; reject
  // non-positive values before they can trip a CHECK.
  if (m.time_bins <= 0 || m.time_dense_dim <= 0 || m.model_dim <= 0 ||
      m.score_dim <= 0 || m.poi_embed_dim <= 0 || m.num_poi_categories <= 0 ||
      m.num_layers <= 0 || m.num_heads <= 0 || m.ff_dim <= 0 ||
      m.lstm_hidden <= 0 || m.model_dim % m.num_heads != 0) {
    if (error != nullptr) *error = "invalid model config in " + path;
    return nullptr;
  }

  auto method = std::make_unique<dlinfma::DlInfMaMethod>(name, m, t);
  if (!method->RestoreModel(blob)) {
    if (error != nullptr) {
      *error = "parameter blob does not match model config in " + path;
    }
    return nullptr;
  }
  return method;
}

}  // namespace io
}  // namespace dlinf
