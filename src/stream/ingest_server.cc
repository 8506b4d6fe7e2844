#include "stream/ingest_server.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <string_view>
#include <utility>

#include "common/string_util.h"
#include "fault/fault.h"
#include "io/artifact.h"
#include "io/codecs.h"
#include "obs/json_escape.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/structured_log.h"
#include "stream/online_trainer.h"

namespace dlinf {
namespace stream {
namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Trip and waybill times must be finite.
bool ParseTime(std::string_view s, double* out) {
  return ParseNumber(s, out) && std::isfinite(*out);
}

/// Walks the pieces of `text` between runs of `sep`: empty pieces are
/// skipped, so repeated separators collapse.
class Tokens {
 public:
  Tokens(std::string_view text, char sep) : text_(text), sep_(sep) {}

  /// Number of pieces in the whole text.
  size_t Count() const {
    Tokens all(text_, sep_);
    size_t count = 0;
    std::string_view piece;
    while (all.Next(&piece)) ++count;
    return count;
  }

  bool Next(std::string_view* piece) {
    while (pos_ < text_.size() && text_[pos_] == sep_) ++pos_;
    if (pos_ == text_.size()) return false;
    const size_t end = std::min(text_.find(sep_, pos_), text_.size());
    *piece = text_.substr(pos_, end - pos_);
    pos_ = end;
    return true;
  }

 private:
  std::string_view text_;
  char sep_;
  size_t pos_ = 0;
};

struct IngestMetrics {
  obs::Counter* received;
  obs::Counter* acked;
  obs::Counter* deduped;
  obs::Counter* recovered;
  obs::Counter* batches;
  obs::Counter* trips;
  obs::Counter* rejected_malformed;
  obs::Counter* rejected_gap;
  obs::Counter* rejected_protocol;
  obs::Counter* rejected_oversized;
  obs::Counter* rejected_client_cap;
  obs::Counter* rejected_wal;
  obs::Counter* clients_evicted;
  obs::Counter* snapshot_errors;
  obs::Counter* recover_rejected;
  obs::Histogram* ack_seconds;

  static const IngestMetrics& Get() {
    static const IngestMetrics metrics = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
      return IngestMetrics{
          r.GetCounter("stream.ingest.received"),
          r.GetCounter("stream.ingest.acked"),
          r.GetCounter("stream.ingest.deduped"),
          r.GetCounter("stream.ingest.recovered"),
          r.GetCounter("stream.ingest.batches"),
          r.GetCounter("stream.ingest.trips_completed"),
          r.GetCounter("stream.ingest.rejected#reason=malformed"),
          r.GetCounter("stream.ingest.rejected#reason=gap"),
          r.GetCounter("stream.ingest.rejected#reason=protocol"),
          r.GetCounter("stream.ingest.rejected#reason=oversized"),
          r.GetCounter("stream.ingest.rejected#reason=client_cap"),
          r.GetCounter("stream.ingest.rejected#reason=wal"),
          r.GetCounter("stream.ingest.clients_evicted"),
          r.GetCounter("stream.ingest.snapshot_errors"),
          r.GetCounter("stream.recover.rejected"),
          r.GetHistogram("stream.ingest.ack_seconds"),
      };
    }();
    return metrics;
  }
};

constexpr const char* kJsonType = "application/json";
constexpr const char* kLoopThreadName = "ingest.loop";

std::string ErrorJson(const std::string& message) {
  // Messages echo client-supplied tokens, so every control character must
  // be escaped or the error body itself stops being valid JSON.
  return "{\"error\":\"" + obs::JsonEscape(message) + "\"}\n";
}

}  // namespace

std::vector<std::string_view> IngestBodyLines(std::string_view body) {
  std::vector<std::string_view> lines;
  size_t begin = 0;
  while (begin < body.size()) {
    const size_t end = std::min(body.find('\n', begin), body.size());
    std::string_view line = body.substr(begin, end - begin);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) lines.push_back(line);
    begin = end + 1;
  }
  return lines;
}

bool ParseIngestLine(std::string_view line, IngestRecord* record,
                     std::string* error) {
  auto fail = [&](const std::string& reason) {
    if (error != nullptr) *error = reason;
    return false;
  };
  Tokens tokens(line, ' ');
  const size_t count = tokens.Count();
  std::string_view verb;
  if (!tokens.Next(&verb)) return fail("empty record");

  *record = IngestRecord();
  if (verb == "start_trip") {
    record->kind = IngestRecord::Kind::kStartTrip;
  } else if (verb == "point") {
    record->kind = IngestRecord::Kind::kPoint;
  } else if (verb == "finish_trip") {
    record->kind = IngestRecord::Kind::kFinishTrip;
  } else {
    return fail("unknown record type '" + std::string(verb) + "'");
  }
  if (count < 3) {
    return fail("missing client/seq in '" + std::string(verb) + "'");
  }
  std::string_view client;
  std::string_view seq;
  tokens.Next(&client);
  tokens.Next(&seq);
  record->client_id = client;
  if (!ParseNumber(seq, &record->seq) || record->seq == 0) {
    return fail("bad seq '" + std::string(seq) + "' (expect integer >= 1)");
  }

  std::string_view a;
  std::string_view b;
  std::string_view c;
  switch (record->kind) {
    case IngestRecord::Kind::kStartTrip: {
      if (count < 6) return fail("start_trip needs courier t0 t1");
      tokens.Next(&a);
      tokens.Next(&b);
      tokens.Next(&c);
      if (!ParseNumber(a, &record->courier_id) ||
          !ParseTime(b, &record->start_time) ||
          !ParseTime(c, &record->end_time)) {
        return fail("bad start_trip numeric field");
      }
      std::string_view token;
      while (tokens.Next(&token)) {
        if (!token.starts_with("wb=")) {
          return fail("unexpected start_trip token '" + std::string(token) +
                      "'");
        }
        Tokens parts(token.substr(3), ':');
        if (parts.Count() != 5) {
          return fail("waybill needs id:addr:recv:recorded:actual");
        }
        std::array<std::string_view, 5> f;
        for (std::string_view& part : f) parts.Next(&part);
        sim::Waybill wb;
        if (!ParseNumber(f[0], &wb.id) || !ParseNumber(f[1], &wb.address_id) ||
            !ParseTime(f[2], &wb.receive_time) ||
            !ParseTime(f[3], &wb.recorded_delivery_time) ||
            !ParseTime(f[4], &wb.actual_delivery_time)) {
          return fail("bad waybill field in '" + std::string(token) + "'");
        }
        record->waybills.push_back(wb);
      }
      return true;
    }
    case IngestRecord::Kind::kPoint: {
      if (count != 6) return fail("point needs x y t");
      tokens.Next(&a);
      tokens.Next(&b);
      tokens.Next(&c);
      // Non-finite x/y/t are accepted: a NaN fix is the modelled
      // traj.gps.nan fault, which NoiseFilter drops downstream.
      if (!ParseNumber(a, &record->x) || !ParseNumber(b, &record->y) ||
          !ParseNumber(c, &record->t)) {
        return fail("bad point numeric field");
      }
      return true;
    }
    case IngestRecord::Kind::kFinishTrip: {
      if (count != 3) return fail("finish_trip takes no extra fields");
      return true;
    }
  }
  return fail("unreachable");
}

std::string FormatIngestLine(const IngestRecord& record) {
  std::string line;
  auto head = [&](std::string_view verb) {
    line.append(verb).append(" ").append(record.client_id).append(" ");
    AppendInt(&line, record.seq);
  };
  auto number = [&](double value) {
    line.push_back(' ');
    AppendDouble(&line, value);
  };
  switch (record.kind) {
    case IngestRecord::Kind::kStartTrip:
      head("start_trip");
      line.push_back(' ');
      AppendInt(&line, record.courier_id);
      number(record.start_time);
      number(record.end_time);
      for (const sim::Waybill& wb : record.waybills) {
        line.append(" wb=");
        AppendInt(&line, wb.id);
        line.push_back(':');
        AppendInt(&line, wb.address_id);
        line.push_back(':');
        AppendDouble(&line, wb.receive_time);
        line.push_back(':');
        AppendDouble(&line, wb.recorded_delivery_time);
        line.push_back(':');
        AppendDouble(&line, wb.actual_delivery_time);
      }
      break;
    case IngestRecord::Kind::kPoint:
      head("point");
      number(record.x);
      number(record.y);
      number(record.t);
      break;
    case IngestRecord::Kind::kFinishTrip:
      head("finish_trip");
      break;
  }
  return line;
}

std::vector<std::string> TripLines(const std::string& client,
                                   const sim::DeliveryTrip& trip,
                                   uint64_t* seq) {
  auto next = [&](IngestRecord::Kind kind) {
    IngestRecord record;
    record.kind = kind;
    record.client_id = client;
    record.seq = ++*seq;
    return record;
  };
  std::vector<std::string> lines;
  IngestRecord start = next(IngestRecord::Kind::kStartTrip);
  start.courier_id = trip.courier_id;
  start.start_time = trip.start_time;
  start.end_time = trip.end_time;
  start.waybills = trip.waybills;
  lines.push_back(FormatIngestLine(start));
  for (const TrajPoint& p : trip.trajectory.points) {
    IngestRecord point = next(IngestRecord::Kind::kPoint);
    point.x = p.x;
    point.y = p.y;
    point.t = p.t;
    lines.push_back(FormatIngestLine(point));
  }
  lines.push_back(FormatIngestLine(next(IngestRecord::Kind::kFinishTrip)));
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  return lines.empty() ? std::string() : Join(lines, "\n") + "\n";
}

IngestServer::IngestServer(Options options) : options_(std::move(options)) {
  admin_.AddHealthProvider([this] { return WalHealth(); });
}

IngestServer::~IngestServer() {
  if (running_) Stop();
}

std::string IngestServer::SnapshotPath(const std::string& wal_dir) {
  return wal_dir + "/snapshot.dlab";
}

bool IngestServer::Start(std::string* error) {
  if (running_) {
    if (error != nullptr) *error = "ingest server already running";
    return false;
  }
  if (!RecoverState(error)) return false;

  auto wal = WalWriter::Open(options_.wal, error);
  if (!wal) return false;
  wal_ = std::move(*wal);
  wal_error_.reset();

  apps::HttpServer::Options http_options;
  http_options.port = options_.port;
  http_options.idle_timeout_s = options_.idle_timeout_s;
  http_options.thread_name = kLoopThreadName;
  if (!http_.Start(http_options,
                   [this](const apps::HttpRequest& request,
                          apps::HttpServer::ResponseHandle handle) {
                     HandleRequest(request, std::move(handle));
                   },
                   error)) {
    wal_->Close();
    return false;
  }
  running_ = true;
  return true;
}

void IngestServer::Stop() {
  if (!running_) return;
  apps::StopAdminServer(&http_);
  if (wal_) wal_->Close();
  running_ = false;
}

void IngestServer::CrashForTest() {
  if (!running_) return;
  apps::StopAdminServer(&http_);
  if (wal_) wal_->AbandonForCrashTest();
  running_ = false;
}

IngestServer::Stats IngestServer::stats() const {
  Stats s;
  s.received = received_.load(std::memory_order_relaxed);
  s.acked = acked_.load(std::memory_order_relaxed);
  s.deduped = deduped_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.recovered = recovered_.load(std::memory_order_relaxed);
  s.recover_rejected = recover_rejected_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.trips = trips_.load(std::memory_order_relaxed);
  return s;
}

std::string IngestServer::StatsJson() const {
  const Stats s = stats();
  // Nothing queues, so nothing is shed: "shed" and "queue_records" read 0
  // and stay in the key set for the accounting identity of DESIGN.md §14.
  return StrPrintf(
      "{\"received\":%lld,\"acked\":%lld,\"deduped\":%lld,\"shed\":0,"
      "\"rejected\":%lld,\"recovered\":%lld,\"batches\":%lld,"
      "\"trips\":%lld,\"queue_records\":0,\"tracked_clients\":%zu}\n",
      static_cast<long long>(s.received), static_cast<long long>(s.acked),
      static_cast<long long>(s.deduped),
      static_cast<long long>(s.rejected), static_cast<long long>(s.recovered),
      static_cast<long long>(s.batches), static_cast<long long>(s.trips),
      clients_.size());
}

apps::HealthCheck IngestServer::WalHealth() const {
  apps::HealthCheck check;
  check.name = "ingest.wal";
  if (!wal_error_) {
    check.detail = "appending";
    if (const int64_t skipped =
            recover_rejected_.load(std::memory_order_relaxed)) {
      check.detail += StrPrintf(
          "; recovery skipped %lld trip(s) naming an address outside the "
          "city",
          static_cast<long long>(skipped));
    }
    return check;
  }
  check.ok = false;
  check.detail = "wal append failed: " + *wal_error_;
  return check;
}

void IngestServer::HandleRequest(const apps::HttpRequest& request,
                                 apps::HttpServer::ResponseHandle handle) {
  if (request.path != "/ingest") {
    if (request.path == "/ingest/stats") {
      handle.Respond(200, kJsonType, StatsJson());
    } else if (!admin_.Handle(request, handle)) {
      handle.Respond(404, kJsonType, ErrorJson("no such endpoint"));
    }
    return;
  }
  if (request.method != "POST") {
    handle.Respond(405, kJsonType, ErrorJson("POST required on /ingest"));
    return;
  }

  const double start_s = MonotonicSeconds();
  const IngestMetrics& metrics = IngestMetrics::Get();
  std::vector<std::string_view> lines = IngestBodyLines(request.body);
  std::vector<IngestRecord> records(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string parse_error;
    if (!ParseIngestLine(lines[i], &records[i], &parse_error)) {
      // A 400 rejects the whole batch, so the rejected counters carry every
      // record in it (the Stats contract), not just the lines parsed so far.
      const int64_t n = static_cast<int64_t>(lines.size());
      metrics.rejected_malformed->Add(n);
      metrics.batches->Add(1);
      rejected_.fetch_add(n, std::memory_order_relaxed);
      batches_.fetch_add(1, std::memory_order_relaxed);
      handle.Respond(400, kJsonType,
                     ErrorJson("malformed record: " + parse_error));
      return;
    }
  }
  if (records.empty()) {
    metrics.batches->Add(1);
    batches_.fetch_add(1, std::memory_order_relaxed);
    handle.Respond(400, kJsonType, ErrorJson("empty ingest body"));
    return;
  }

  // `ingest.reorder` models a producer whose records arrive out of order;
  // classification then sees a sequence gap and the batch takes the typed
  // 409 branch. Each record keeps its own line.
  if (records.size() > 1 && fault::Hit("ingest.reorder")) {
    std::reverse(records.begin(), records.end());
    std::reverse(lines.begin(), lines.end());
  }
  metrics.received->Add(static_cast<int64_t>(records.size()));
  received_.fetch_add(static_cast<int64_t>(records.size()),
                      std::memory_order_relaxed);
  HandleIngest(&records, lines, handle, start_s);
}

void IngestServer::HandleIngest(std::vector<IngestRecord>* records,
                                const std::vector<std::string_view>& lines,
                                const apps::HttpServer::ResponseHandle& handle,
                                double start_s) {
  const IngestMetrics& metrics = IngestMetrics::Get();
  const int64_t n = static_cast<int64_t>(records->size());

  // A slow consumer (injected): every POST on the port waits behind it,
  // which is how overload reaches producers — as TCP backpressure.
  if (auto fire = fault::Hit("ingest.slow_client")) {
    fault::SleepForMs(fire->latency_ms > 0 ? fire->latency_ms : 20.0);
  }

  auto reject = [&](int status, obs::Counter* reason_counter,
                    const std::string& message) {
    reason_counter->Add(n);
    metrics.batches->Add(1);
    rejected_.fetch_add(n, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    if (status == 429) {
      handle.RespondWithHeaders(
          status, kJsonType, ErrorJson(message),
          {{"Retry-After", std::to_string(options_.retry_after_s)}});
    } else {
      handle.Respond(status, kJsonType, ErrorJson(message));
    }
  };

  // Classify against an overlay of the authoritative per-client state so a
  // failed batch leaves no trace (the transaction contract). Fresh records
  // are framed as they are classified.
  struct Overlay {
    uint64_t last_seq = 0;
    bool trip_open = false;
  };
  std::unordered_map<std::string_view, Overlay> overlay;
  std::vector<IngestRecord*> fresh;
  std::string frames;
  int64_t dups = 0;
  size_t new_clients = 0;
  for (size_t i = 0; i < records->size(); ++i) {
    IngestRecord& record = (*records)[i];
    auto [it, inserted] = overlay.try_emplace(record.client_id);
    if (inserted) {
      auto found = clients_.find(record.client_id);
      if (found != clients_.end()) {
        it->second.last_seq = found->second.last_seq;
        it->second.trip_open = found->second.trip_open;
      } else {
        ++new_clients;  // client_id not yet in the tracked table.
      }
    }
    Overlay& state = it->second;
    if (record.seq <= state.last_seq) {
      ++dups;  // Retried record: already WAL-committed, ack as a no-op.
      continue;
    }
    if (record.seq != state.last_seq + 1) {
      reject(409, metrics.rejected_gap,
             StrPrintf("sequence gap for client %s: got %llu, expected %llu",
                       record.client_id.c_str(),
                       static_cast<unsigned long long>(record.seq),
                       static_cast<unsigned long long>(state.last_seq + 1)));
      return;
    }
    const bool needs_open = record.kind != IngestRecord::Kind::kStartTrip;
    if (needs_open != state.trip_open) {
      reject(409, metrics.rejected_protocol,
             StrPrintf("trip lifecycle violation for client %s at seq %llu",
                       record.client_id.c_str(),
                       static_cast<unsigned long long>(record.seq)));
      return;
    }
    // A waybill naming an address the city lacks would abort candidate
    // generation at finish_trip, and again on every WAL replay.
    if (const sim::Waybill* waybill =
            sim::FindWaybillOutsideCity(options_.city, record.waybills)) {
      reject(400, metrics.rejected_malformed,
             StrPrintf("line %zu: waybill %lld names address %lld, outside "
                       "the city's %zu addresses",
                       i + 1, static_cast<long long>(waybill->id),
                       static_cast<long long>(waybill->address_id),
                       options_.city.addresses.size()));
      return;
    }
    const std::string_view line = lines[i];
    // The WAL stores exactly the received line; a payload past
    // max_record_bytes must bounce here, before the append, or AppendFrames
    // would refuse the whole batch as a 503 (and a hypothetical ack of it
    // would be unreadable to recovery).
    if (line.size() > options_.wal.max_record_bytes) {
      reject(400, metrics.rejected_oversized,
             StrPrintf("record for client %s at seq %llu is %zu bytes, "
                       "over the WAL record limit %llu",
                       record.client_id.c_str(),
                       static_cast<unsigned long long>(record.seq),
                       line.size(),
                       static_cast<unsigned long long>(
                           options_.wal.max_record_bytes)));
      return;
    }
    state.last_seq = record.seq;
    state.trip_open = record.kind != IngestRecord::Kind::kFinishTrip;
    io::AppendWalFrame(static_cast<uint32_t>(record.kind), line, &frames);
    fresh.push_back(&record);
  }

  // Bound the dedup table before admitting new client_ids: evict the
  // longest-idle clients with no open trip, and when every tracked client
  // is mid-trip, shed the batch typed — retrying is safe and capacity
  // frees as trips finish. An evicted client's retry turns into a typed
  // 409 gap (its dedup state is gone), never a silent double-apply.
  if (options_.max_clients > 0 && new_clients > 0) {
    while (clients_.size() + new_clients > options_.max_clients) {
      auto victim = clients_.end();
      for (auto it = clients_.begin(); it != clients_.end(); ++it) {
        if (it->second.trip_open) continue;
        if (overlay.count(it->first) > 0) continue;  // Touched this batch.
        if (victim == clients_.end() ||
            it->second.last_active < victim->second.last_active) {
          victim = it;
        }
      }
      if (victim == clients_.end()) {
        reject(429, metrics.rejected_client_cap,
               StrPrintf("tracked client limit %llu reached and every "
                         "client has an open trip",
                         static_cast<unsigned long long>(
                             options_.max_clients)));
        return;
      }
      clients_.erase(victim);
      metrics.clients_evicted->Add(1);
    }
  }

  if (!fresh.empty()) {
    std::string wal_error;
    if (!wal_->AppendFrames(frames, fresh.size(), &wal_error)) {
      wal_error_ = wal_error;
      reject(503, metrics.rejected_wal, "wal append failed: " + wal_error);
      return;
    }
    wal_error_.reset();
    for (IngestRecord* record : fresh) {
      ApplyRecord(record);
      if (record->kind == IngestRecord::Kind::kFinishTrip) MaybeRetrain();
    }
    MaybeSnapshot();
  }

  metrics.acked->Add(static_cast<int64_t>(fresh.size()));
  metrics.deduped->Add(dups);
  metrics.batches->Add(1);
  acked_.fetch_add(static_cast<int64_t>(fresh.size()),
                   std::memory_order_relaxed);
  deduped_.fetch_add(dups, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  metrics.ack_seconds->Observe(MonotonicSeconds() - start_s);
  handle.Respond(200, kJsonType,
                 StrPrintf("{\"acked\":%zu,\"deduped\":%lld}\n",
                           fresh.size(), static_cast<long long>(dups)));
}

void IngestServer::ApplyRecord(IngestRecord* record) {
  ClientState& state = clients_[record->client_id];
  state.last_seq = record->seq;
  state.last_active = ++activity_clock_;
  switch (record->kind) {
    case IngestRecord::Kind::kStartTrip: {
      state.trip_open = true;
      state.skip_trip = false;
      state.pending = sim::DeliveryTrip();
      state.pending.courier_id = record->courier_id;
      state.pending.start_time = record->start_time;
      state.pending.end_time = record->end_time;
      state.pending.waybills = std::move(record->waybills);
      state.pending.trajectory.courier_id = record->courier_id;
      state.points.clear();
      return;
    }
    case IngestRecord::Kind::kPoint: {
      if (!state.skip_trip) {
        state.points.push_back(TrajPoint{record->x, record->y, record->t});
      }
      return;
    }
    case IngestRecord::Kind::kFinishTrip: {
      if (state.skip_trip) {
        state.pending = sim::DeliveryTrip();
        state.trip_open = false;
        state.skip_trip = false;
        return;
      }
      // Hand the buffered trip over: the ingestor copies each fix as it
      // streams it, so nothing here copies the trip again.
      sim::DeliveryTrip trip = std::exchange(state.pending, {});
      trip.trajectory.points = std::exchange(state.points, {});
      ingestor_->ReplayTrip(trip);
      IngestMetrics::Get().trips->Add(1);
      trips_.fetch_add(1, std::memory_order_relaxed);
      state.trip_open = false;
      return;
    }
  }
}

void IngestServer::MaybeRetrain() {
  const int64_t every = options_.retrain_every_trips;
  if (options_.trainer == nullptr || every <= 0 ||
      trips_.load(std::memory_order_relaxed) % every != 0) {
    return;
  }
  // The trainer counts and logs the round and its publish.
  options_.trainer->Retrain(ingestor_->world(), ingestor_->Snapshot());
  // Training names its thread "trainer"; give the loop its name back so
  // profiles and traces attribute later ingest work to it.
  obs::prof::RegisterCurrentThread(kLoopThreadName);
}

bool IngestServer::RecoverState(std::string* error) {
  ingestor_ =
      std::make_unique<StreamIngestor>(options_.city, options_.candidates);
  clients_.clear();
  last_covered_segment_ = -1;

  const std::string snapshot_path = SnapshotPath(options_.wal.dir);
  if (std::filesystem::exists(snapshot_path)) {
    std::string open_error;
    auto reader = io::ArtifactReader::Open(
        snapshot_path, io::ArtifactKind::kIngestState, &open_error);
    if (!reader) {
      if (error != nullptr) {
        *error = "corrupt ingest snapshot: " + open_error;
      }
      return false;
    }
    const uint64_t covered = reader->ReadU64();
    std::string invalid;
    sim::World world = io::DecodeWorldPayload(&*reader, &invalid);
    const uint64_t num_clients = reader->ReadU64();
    std::vector<std::pair<std::string, ClientState>> snapshot_clients;
    for (uint64_t i = 0; reader->ok() && i < num_clients; ++i) {
      std::string client_id = reader->ReadString();
      ClientState state;
      state.last_seq = reader->ReadU64();
      state.trip_open = reader->ReadBool();
      if (state.trip_open) {
        state.pending.courier_id = reader->ReadI64();
        state.pending.start_time = reader->ReadDouble();
        state.pending.end_time = reader->ReadDouble();
        state.pending.trajectory.courier_id = state.pending.courier_id;
        const uint64_t num_waybills = reader->ReadU64();
        for (uint64_t j = 0; reader->ok() && j < num_waybills; ++j) {
          sim::Waybill wb;
          wb.id = reader->ReadI64();
          wb.address_id = reader->ReadI64();
          wb.receive_time = reader->ReadDouble();
          wb.recorded_delivery_time = reader->ReadDouble();
          wb.actual_delivery_time = reader->ReadDouble();
          state.pending.waybills.push_back(wb);
        }
        const uint64_t num_points = reader->ReadU64();
        for (uint64_t j = 0; reader->ok() && j < num_points; ++j) {
          TrajPoint p;
          p.x = reader->ReadDouble();
          p.y = reader->ReadDouble();
          p.t = reader->ReadDouble();
          state.points.push_back(p);
        }
      }
      snapshot_clients.emplace_back(std::move(client_id), std::move(state));
    }
    if (!reader->AtEnd()) {
      if (error != nullptr) {
        *error = invalid.empty() ? "malformed ingest snapshot payload"
                                 : "invalid ingest snapshot world: " + invalid;
      }
      return false;
    }
    // The snapshot's trips, open ones too, are re-applied to this node's
    // city, which need not be the one that wrote the snapshot.
    bool fits_city = true;
    for (const sim::DeliveryTrip& trip : world.trips) {
      fits_city &= !sim::FindWaybillOutsideCity(options_.city, trip.waybills);
    }
    for (const auto& [client_id, state] : snapshot_clients) {
      fits_city &=
          !sim::FindWaybillOutsideCity(options_.city, state.pending.waybills);
    }
    if (!fits_city) {
      if (error != nullptr) {
        *error = "ingest snapshot names an address outside the city";
      }
      return false;
    }
    // Rebuild the ingestor by re-streaming the snapshot's trips — the
    // replay-equals-stream contract (stream_pipeline.h) makes this exact.
    for (const sim::DeliveryTrip& trip : world.trips) {
      ingestor_->ReplayTrip(trip);
      trips_.fetch_add(1, std::memory_order_relaxed);
    }
    for (auto& [client_id, state] : snapshot_clients) {
      clients_[client_id] = std::move(state);
    }
    last_covered_segment_ = static_cast<int64_t>(covered);
  }

  const IngestMetrics& metrics = IngestMetrics::Get();
  WalReplayStats stats;
  const int64_t covered = last_covered_segment_;
  int64_t replayed = 0;
  const bool ok = ReplayWal(
      options_.wal,
      [&](uint64_t segment, uint32_t /*type*/, const std::string& payload) {
        if (static_cast<int64_t>(segment) <= covered) return;
        IngestRecord record;
        std::string parse_error;
        if (!ParseIngestLine(payload, &record, &parse_error)) {
          // Checksum-valid but unparseable: count it, keep replaying —
          // the record never came from this writer.
          metrics.rejected_malformed->Add(1);
          return;
        }
        // Replaying this trip would abort candidate generation at its
        // finish_trip, on every restart: skip it whole, keeping the
        // client's sequence (the producer saw it acked).
        const sim::Waybill* outside =
            record.kind == IngestRecord::Kind::kStartTrip
                ? sim::FindWaybillOutsideCity(options_.city, record.waybills)
                : nullptr;
        if (outside != nullptr) {
          obs::LogLine(obs::LogSeverity::kWarn, "stream.recover.rejected")
              .Str("client", record.client_id)
              .Int("seq", static_cast<int64_t>(record.seq))
              .Int("waybill", outside->id)
              .Int("address", outside->address_id)
              .Int("city_addresses",
                   static_cast<int64_t>(options_.city.addresses.size()));
          metrics.recover_rejected->Add(1);
          recover_rejected_.fetch_add(1, std::memory_order_relaxed);
          record.waybills.clear();
        }
        ApplyRecord(&record);
        if (outside != nullptr) clients_[record.client_id].skip_trip = true;
        ++replayed;
      },
      &stats, error);
  if (!ok) return false;
  metrics.recovered->Add(replayed);
  recovered_.fetch_add(replayed, std::memory_order_relaxed);
  return true;
}

bool IngestServer::WriteSnapshot(uint64_t covered_segment,
                                 std::string* error) {
  io::ArtifactWriter writer(io::ArtifactKind::kIngestState);
  writer.WriteU64(covered_segment);
  io::EncodeWorldPayload(ingestor_->world(), &writer);

  std::vector<std::string> client_ids;
  client_ids.reserve(clients_.size());
  for (const auto& [client_id, state] : clients_) {
    client_ids.push_back(client_id);
  }
  std::sort(client_ids.begin(), client_ids.end());
  writer.WriteU64(client_ids.size());
  for (const std::string& client_id : client_ids) {
    const ClientState& state = clients_.at(client_id);
    writer.WriteString(client_id);
    writer.WriteU64(state.last_seq);
    writer.WriteBool(state.trip_open);
    if (state.trip_open) {
      writer.WriteI64(state.pending.courier_id);
      writer.WriteDouble(state.pending.start_time);
      writer.WriteDouble(state.pending.end_time);
      writer.WriteU64(state.pending.waybills.size());
      for (const sim::Waybill& wb : state.pending.waybills) {
        writer.WriteI64(wb.id);
        writer.WriteI64(wb.address_id);
        writer.WriteDouble(wb.receive_time);
        writer.WriteDouble(wb.recorded_delivery_time);
        writer.WriteDouble(wb.actual_delivery_time);
      }
      writer.WriteU64(state.points.size());
      for (const TrajPoint& p : state.points) {
        writer.WriteDouble(p.x);
        writer.WriteDouble(p.y);
        writer.WriteDouble(p.t);
      }
    }
  }
  if (!writer.Finish(SnapshotPath(options_.wal.dir))) {
    if (error != nullptr) *error = "cannot write ingest snapshot";
    return false;
  }
  return true;
}

void IngestServer::MaybeSnapshot() {
  if (options_.snapshot_every_segments == 0) return;
  const int64_t sealed = static_cast<int64_t>(wal_->current_segment()) - 1;
  if (sealed < 0 ||
      sealed - last_covered_segment_ <
          static_cast<int64_t>(options_.snapshot_every_segments)) {
    return;
  }
  // Seal the partially-filled segment first: the snapshot state reflects
  // every record appended so far, so its covered range must end exactly on
  // a segment boundary — otherwise recovery would replay the current
  // segment's already-snapshotted records a second time.
  std::string error;
  if (!wal_->Rotate(&error)) {
    IngestMetrics::Get().snapshot_errors->Add(1);
    return;
  }
  const int64_t covered = static_cast<int64_t>(wal_->current_segment()) - 1;
  if (!WriteSnapshot(static_cast<uint64_t>(covered), &error)) {
    // Snapshotting is compaction, not correctness: keep serving (the WAL
    // still holds everything), surface the failure through the counter.
    IngestMetrics::Get().snapshot_errors->Add(1);
    return;
  }
  wal_->DeleteSegmentsThrough(static_cast<uint64_t>(covered));
  last_covered_segment_ = covered;
}

}  // namespace stream
}  // namespace dlinf
