#include "io/codecs.h"

#include <cstdint>
#include <utility>

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

/// --- World ----------------------------------------------------------------

/// `with_trips` false writes a trip count of zero and no trips: the city.
void EncodeWorld(const sim::World& world, bool with_trips,
                 ArtifactWriter* w) {
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

  if (!with_trips) {
    w->WriteU64(0);
    return;
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

}  // namespace

void EncodeWorldPayload(const sim::World& world, ArtifactWriter* writer) {
  EncodeWorld(world, /*with_trips=*/true, writer);
}

void EncodeCityPayload(const sim::World& world, ArtifactWriter* writer) {
  EncodeWorld(world, /*with_trips=*/false, writer);
}

sim::World DecodeWorldPayload(ArtifactReader* r, std::string* invalid) {
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
  std::string reason;
  if (r->ok() && !sim::ValidateWorld(world, &reason)) {
    r->Fail();
    if (invalid != nullptr) *invalid = std::move(reason);
  }
  return world;
}

bool SaveWorldArtifact(const sim::World& world, const std::string& path) {
  ArtifactWriter writer(ArtifactKind::kWorld);
  EncodeWorld(world, /*with_trips=*/true, &writer);
  return writer.Finish(path);
}

std::optional<sim::World> LoadWorldArtifact(const std::string& path,
                                            std::string* error) {
  auto reader = ArtifactReader::Open(path, ArtifactKind::kWorld, error);
  if (!reader) return std::nullopt;
  std::string invalid;
  sim::World world = DecodeWorldPayload(&*reader, &invalid);
  if (!reader->AtEnd()) {
    if (error != nullptr) {
      *error = invalid.empty() ? "malformed world payload in " + path
                               : "invalid world in " + path + ": " + invalid;
    }
    return std::nullopt;
  }
  return world;
}

/// --- Trained models -------------------------------------------------------

bool SaveModelArtifact(const dlinfma::DlInfMaMethod& method,
                       const std::string& path, uint32_t* crc) {
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
  if (crc != nullptr) *crc = w.payload_crc();
  return w.Finish(path);
}

std::unique_ptr<dlinfma::DlInfMaMethod> LoadModelArtifact(
    const std::string& path, std::string* error, uint32_t* crc) {
  auto reader = ArtifactReader::Open(path, ArtifactKind::kModel, error);
  if (!reader) return nullptr;
  if (crc != nullptr) *crc = reader->payload_crc();
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
