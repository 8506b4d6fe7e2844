#include "stream/ingest_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <utility>

#include "common/string_util.h"
#include "fault/fault.h"
#include "io/artifact.h"
#include "io/codecs.h"
#include "obs/json_escape.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace dlinf {
namespace stream {
namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Trip and waybill times must be finite.
bool ParseTime(const std::string& s, double* out) {
  return ParseNumber(s, out) && std::isfinite(*out);
}

std::vector<std::string> SplitTokens(const std::string& line, char sep) {
  std::vector<std::string> tokens;
  size_t begin = 0;
  while (begin <= line.size()) {
    size_t end = line.find(sep, begin);
    if (end == std::string::npos) end = line.size();
    if (end > begin) tokens.push_back(line.substr(begin, end - begin));
    begin = end + 1;
  }
  return tokens;
}

struct IngestMetrics {
  obs::Counter* received;
  obs::Counter* acked;
  obs::Counter* deduped;
  obs::Counter* shed;
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
  obs::Histogram* ack_seconds;

  static const IngestMetrics& Get() {
    static const IngestMetrics metrics = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
      return IngestMetrics{
          r.GetCounter("stream.ingest.received"),
          r.GetCounter("stream.ingest.acked"),
          r.GetCounter("stream.ingest.deduped"),
          r.GetCounter("stream.ingest.shed"),
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
          r.GetHistogram("stream.ingest.ack_seconds"),
      };
    }();
    return metrics;
  }
};

constexpr const char* kJsonType = "application/json";

std::string ErrorJson(const std::string& message) {
  // Messages echo client-supplied tokens, so every control character must
  // be escaped or the error body itself stops being valid JSON.
  return "{\"error\":\"" + obs::JsonEscape(message) + "\"}\n";
}

}  // namespace

bool ParseIngestLine(const std::string& line, IngestRecord* record,
                     std::string* error) {
  auto fail = [&](const std::string& reason) {
    if (error != nullptr) *error = reason;
    return false;
  };
  const std::vector<std::string> tokens = SplitTokens(line, ' ');
  if (tokens.empty()) return fail("empty record");

  *record = IngestRecord();
  const std::string& verb = tokens[0];
  if (verb == "start_trip") {
    record->kind = IngestRecord::Kind::kStartTrip;
  } else if (verb == "point") {
    record->kind = IngestRecord::Kind::kPoint;
  } else if (verb == "finish_trip") {
    record->kind = IngestRecord::Kind::kFinishTrip;
  } else {
    return fail("unknown record type '" + verb + "'");
  }
  if (tokens.size() < 3) return fail("missing client/seq in '" + verb + "'");
  record->client_id = tokens[1];
  if (!ParseNumber(tokens[2], &record->seq) || record->seq == 0) {
    return fail("bad seq '" + tokens[2] + "' (expect integer >= 1)");
  }

  switch (record->kind) {
    case IngestRecord::Kind::kStartTrip: {
      if (tokens.size() < 6) return fail("start_trip needs courier t0 t1");
      if (!ParseNumber(tokens[3], &record->courier_id) ||
          !ParseTime(tokens[4], &record->start_time) ||
          !ParseTime(tokens[5], &record->end_time)) {
        return fail("bad start_trip numeric field");
      }
      for (size_t i = 6; i < tokens.size(); ++i) {
        if (tokens[i].compare(0, 3, "wb=") != 0) {
          return fail("unexpected start_trip token '" + tokens[i] + "'");
        }
        const std::vector<std::string> parts =
            SplitTokens(tokens[i].substr(3), ':');
        if (parts.size() != 5) {
          return fail("waybill needs id:addr:recv:recorded:actual");
        }
        sim::Waybill wb;
        if (!ParseNumber(parts[0], &wb.id) ||
            !ParseNumber(parts[1], &wb.address_id) ||
            !ParseTime(parts[2], &wb.receive_time) ||
            !ParseTime(parts[3], &wb.recorded_delivery_time) ||
            !ParseTime(parts[4], &wb.actual_delivery_time)) {
          return fail("bad waybill field in '" + tokens[i] + "'");
        }
        record->waybills.push_back(wb);
      }
      return true;
    }
    case IngestRecord::Kind::kPoint: {
      if (tokens.size() != 6) return fail("point needs x y t");
      // Non-finite x/y/t are accepted: a NaN fix is the modelled
      // traj.gps.nan fault, which NoiseFilter drops downstream.
      if (!ParseNumber(tokens[3], &record->x) ||
          !ParseNumber(tokens[4], &record->y) ||
          !ParseNumber(tokens[5], &record->t)) {
        return fail("bad point numeric field");
      }
      return true;
    }
    case IngestRecord::Kind::kFinishTrip: {
      if (tokens.size() != 3) return fail("finish_trip takes no extra fields");
      return true;
    }
  }
  return fail("unreachable");
}

std::string FormatIngestLine(const IngestRecord& record) {
  switch (record.kind) {
    case IngestRecord::Kind::kStartTrip: {
      std::string line = StrPrintf(
          "start_trip %s %llu %lld %.17g %.17g", record.client_id.c_str(),
          static_cast<unsigned long long>(record.seq),
          static_cast<long long>(record.courier_id), record.start_time,
          record.end_time);
      for (const sim::Waybill& wb : record.waybills) {
        line += StrPrintf(" wb=%lld:%lld:%.17g:%.17g:%.17g",
                          static_cast<long long>(wb.id),
                          static_cast<long long>(wb.address_id),
                          wb.receive_time, wb.recorded_delivery_time,
                          wb.actual_delivery_time);
      }
      return line;
    }
    case IngestRecord::Kind::kPoint:
      return StrPrintf("point %s %llu %.17g %.17g %.17g",
                       record.client_id.c_str(),
                       static_cast<unsigned long long>(record.seq), record.x,
                       record.y, record.t);
    case IngestRecord::Kind::kFinishTrip:
      return StrPrintf("finish_trip %s %llu", record.client_id.c_str(),
                       static_cast<unsigned long long>(record.seq));
  }
  return "";
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

  writer_stop_ = false;
  writer_crashed_ = false;
  wal_failing_.store(false, std::memory_order_relaxed);
  writer_ = std::thread([this] { WriterLoop(); });

  apps::HttpServer::Options http_options;
  http_options.port = options_.port;
  http_options.idle_timeout_s = options_.idle_timeout_s;
  http_options.thread_name = "ingest.loop";
  if (!http_.Start(http_options,
                   [this](const apps::HttpRequest& request,
                          apps::HttpServer::ResponseHandle handle) {
                     HandleRequest(request, std::move(handle));
                   },
                   error)) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      writer_stop_ = true;
    }
    queue_cv_.notify_all();
    writer_.join();
    wal_->Close();
    return false;
  }
  running_ = true;
  return true;
}

void IngestServer::Stop() {
  if (!running_) return;
  apps::StopAdminServer(&http_);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    writer_stop_ = true;
  }
  queue_cv_.notify_all();
  writer_.join();
  if (wal_) wal_->Close();
  running_ = false;
}

void IngestServer::CrashForTest() {
  if (!running_) return;
  apps::StopAdminServer(&http_);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    writer_crashed_ = true;
  }
  queue_cv_.notify_all();
  writer_.join();
  if (wal_) wal_->AbandonForCrashTest();
  running_ = false;
}

IngestServer::Stats IngestServer::stats() const {
  Stats s;
  s.received = received_.load(std::memory_order_relaxed);
  s.acked = acked_.load(std::memory_order_relaxed);
  s.deduped = deduped_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.recovered = recovered_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.trips = trips_.load(std::memory_order_relaxed);
  return s;
}

bool IngestServer::WaitIdle(double timeout_s) {
  std::unique_lock<std::mutex> lock(queue_mu_);
  return idle_cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                           [this] {
                             return queue_.empty() && !writer_busy_;
                           });
}

std::string IngestServer::StatsJson() const {
  const Stats s = stats();
  return StrPrintf(
      "{\"received\":%lld,\"acked\":%lld,\"deduped\":%lld,\"shed\":%lld,"
      "\"rejected\":%lld,\"recovered\":%lld,\"batches\":%lld,"
      "\"trips\":%lld,\"queue_records\":%lld,\"tracked_clients\":%lld}\n",
      static_cast<long long>(s.received), static_cast<long long>(s.acked),
      static_cast<long long>(s.deduped), static_cast<long long>(s.shed),
      static_cast<long long>(s.rejected), static_cast<long long>(s.recovered),
      static_cast<long long>(s.batches), static_cast<long long>(s.trips),
      static_cast<long long>(queue_records_.load(std::memory_order_relaxed)),
      static_cast<long long>(
          tracked_clients_.load(std::memory_order_relaxed)));
}

apps::HealthCheck IngestServer::WalHealth() const {
  apps::HealthCheck check;
  check.name = "ingest.wal";
  if (!wal_failing_.load(std::memory_order_acquire)) {
    check.detail = "appending";
    return check;
  }
  check.ok = false;
  std::lock_guard<std::mutex> lock(wal_error_mu_);
  check.detail = "wal append failed: " + wal_error_;
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

  const IngestMetrics& metrics = IngestMetrics::Get();
  Batch batch;
  batch.enqueue_monotonic_s = MonotonicSeconds();

  std::vector<std::string> lines;
  size_t begin = 0;
  const std::string& body = request.body;
  while (begin < body.size()) {
    size_t end = body.find('\n', begin);
    if (end == std::string::npos) end = body.size();
    std::string line = body.substr(begin, end - begin);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    begin = end + 1;
    if (!line.empty()) lines.push_back(std::move(line));
  }
  // A 400 rejects the whole batch, so the rejected counters carry every
  // record in it (the Stats contract), not just the lines parsed so far.
  const int64_t total_lines = static_cast<int64_t>(lines.size());
  for (const std::string& line : lines) {
    IngestRecord record;
    std::string parse_error;
    if (!ParseIngestLine(line, &record, &parse_error)) {
      metrics.rejected_malformed->Add(total_lines);
      metrics.batches->Add(1);
      rejected_.fetch_add(total_lines, std::memory_order_relaxed);
      batches_.fetch_add(1, std::memory_order_relaxed);
      handle.Respond(400, kJsonType,
                     ErrorJson("malformed record: " + parse_error));
      return;
    }
    batch.records.push_back(std::move(record));
  }
  if (batch.records.empty()) {
    metrics.batches->Add(1);
    batches_.fetch_add(1, std::memory_order_relaxed);
    handle.Respond(400, kJsonType, ErrorJson("empty ingest body"));
    return;
  }

  // `ingest.reorder` models a producer whose records arrive out of order;
  // classification then sees a sequence gap and the batch takes the typed
  // 409 branch.
  if (batch.records.size() > 1 && fault::Hit("ingest.reorder")) {
    std::reverse(batch.records.begin(), batch.records.end());
  }

  const int64_t n = static_cast<int64_t>(batch.records.size());
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    const int64_t depth = queue_records_.load(std::memory_order_relaxed);
    if (depth + n > static_cast<int64_t>(options_.max_queue_records)) {
      metrics.shed->Add(n);
      metrics.batches->Add(1);
      shed_.fetch_add(n, std::memory_order_relaxed);
      batches_.fetch_add(1, std::memory_order_relaxed);
      handle.RespondWithHeaders(
          429, kJsonType, ErrorJson("ingest queue full"),
          {{"Retry-After", std::to_string(options_.retry_after_s)}});
      return;
    }
    batch.handle = std::move(handle);
    queue_records_.fetch_add(n, std::memory_order_relaxed);
    queue_.push_back(std::move(batch));
  }
  metrics.received->Add(n);
  received_.fetch_add(n, std::memory_order_relaxed);
  queue_cv_.notify_one();
}

void IngestServer::WriterLoop() {
  obs::prof::RegisterCurrentThread("ingest.writer");
  for (;;) {
    Batch batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || writer_stop_ || writer_crashed_;
      });
      if (writer_crashed_) return;
      if (queue_.empty()) {
        if (writer_stop_) return;
        continue;
      }
      batch = std::move(queue_.front());
      queue_.pop_front();
      writer_busy_ = true;
    }
    ProcessBatch(&batch);
    queue_records_.fetch_sub(static_cast<int64_t>(batch.records.size()),
                             std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      writer_busy_ = false;
    }
    idle_cv_.notify_all();
  }
}

void IngestServer::ProcessBatch(Batch* batch) {
  const IngestMetrics& metrics = IngestMetrics::Get();
  const int64_t n = static_cast<int64_t>(batch->records.size());

  // A slow consumer (injected): lets tests fill the bounded queue and
  // exercise the 429 shed branch without real load.
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
      batch->handle.RespondWithHeaders(
          status, kJsonType, ErrorJson(message),
          {{"Retry-After", std::to_string(options_.retry_after_s)}});
    } else {
      batch->handle.Respond(status, kJsonType, ErrorJson(message));
    }
  };

  // Classify against an overlay of the authoritative per-client state so a
  // failed batch leaves no trace (the transaction contract).
  struct Overlay {
    uint64_t last_seq = 0;
    bool trip_open = false;
    bool is_new = false;  ///< client_id not yet in the tracked table.
  };
  std::unordered_map<std::string, Overlay> overlay;
  std::vector<const IngestRecord*> fresh;
  std::vector<std::string> fresh_lines;
  int64_t dups = 0;
  size_t new_clients = 0;
  for (const IngestRecord& record : batch->records) {
    auto [it, inserted] = overlay.try_emplace(record.client_id);
    if (inserted) {
      auto found = clients_.find(record.client_id);
      if (found != clients_.end()) {
        it->second.last_seq = found->second.last_seq;
        it->second.trip_open = found->second.trip_open;
      } else {
        it->second.is_new = true;
        ++new_clients;
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
    std::string line = FormatIngestLine(record);
    // The WAL stores exactly this line; a payload past max_record_bytes
    // must bounce here, before the append, or AppendFrames would refuse
    // the whole batch as a 503 (and a hypothetical ack of it would be
    // unreadable to recovery).
    if (line.size() > options_.wal.max_record_bytes) {
      reject(400, metrics.rejected_oversized,
             StrPrintf("record for client %s at seq %llu encodes to %zu "
                       "bytes, over the WAL record limit %llu",
                       record.client_id.c_str(),
                       static_cast<unsigned long long>(record.seq),
                       line.size(),
                       static_cast<unsigned long long>(
                           options_.wal.max_record_bytes)));
      return;
    }
    state.last_seq = record.seq;
    state.trip_open = record.kind != IngestRecord::Kind::kFinishTrip;
    fresh.push_back(&record);
    fresh_lines.push_back(std::move(line));
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
    tracked_clients_.store(static_cast<int64_t>(clients_.size()),
                           std::memory_order_relaxed);
  }

  if (!fresh.empty()) {
    std::string frames;
    for (size_t i = 0; i < fresh.size(); ++i) {
      io::AppendWalFrame(static_cast<uint32_t>(fresh[i]->kind),
                         fresh_lines[i], &frames);
    }
    std::string wal_error;
    if (!wal_->AppendFrames(frames, fresh.size(), &wal_error)) {
      {
        std::lock_guard<std::mutex> lock(wal_error_mu_);
        wal_error_ = wal_error;
      }
      wal_failing_.store(true, std::memory_order_release);
      reject(503, metrics.rejected_wal, "wal append failed: " + wal_error);
      return;
    }
    wal_failing_.store(false, std::memory_order_release);
    for (const IngestRecord* record : fresh) ApplyRecord(*record);
    tracked_clients_.store(static_cast<int64_t>(clients_.size()),
                           std::memory_order_relaxed);
    MaybeSnapshot();
  }

  metrics.acked->Add(static_cast<int64_t>(fresh.size()));
  metrics.deduped->Add(dups);
  metrics.batches->Add(1);
  acked_.fetch_add(static_cast<int64_t>(fresh.size()),
                   std::memory_order_relaxed);
  deduped_.fetch_add(dups, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  metrics.ack_seconds->Observe(MonotonicSeconds() -
                               batch->enqueue_monotonic_s);
  batch->handle.Respond(
      200, kJsonType,
      StrPrintf("{\"acked\":%lld,\"deduped\":%lld}\n",
                static_cast<long long>(fresh.size()),
                static_cast<long long>(dups)));
}

void IngestServer::ApplyRecord(const IngestRecord& record) {
  ClientState& state = clients_[record.client_id];
  state.last_seq = record.seq;
  state.last_active = ++activity_clock_;
  switch (record.kind) {
    case IngestRecord::Kind::kStartTrip: {
      state.trip_open = true;
      state.pending = sim::DeliveryTrip();
      state.pending.courier_id = record.courier_id;
      state.pending.start_time = record.start_time;
      state.pending.end_time = record.end_time;
      state.pending.waybills = record.waybills;
      state.pending.trajectory.courier_id = record.courier_id;
      state.points.clear();
      return;
    }
    case IngestRecord::Kind::kPoint: {
      state.points.push_back(TrajPoint{record.x, record.y, record.t});
      return;
    }
    case IngestRecord::Kind::kFinishTrip: {
      sim::DeliveryTrip trip = state.pending;
      trip.trajectory.points = state.points;
      ingestor_->ReplayTrip(trip);
      IngestMetrics::Get().trips->Add(1);
      trips_.fetch_add(1, std::memory_order_relaxed);
      state.trip_open = false;
      state.pending = sim::DeliveryTrip();
      state.points.clear();
      return;
    }
  }
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
    sim::World world = io::DecodeWorldPayload(&*reader);
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
      if (error != nullptr) *error = "malformed ingest snapshot payload";
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
        ApplyRecord(record);
        ++replayed;
      },
      &stats, error);
  if (!ok) return false;
  metrics.recovered->Add(replayed);
  recovered_.fetch_add(replayed, std::memory_order_relaxed);
  tracked_clients_.store(static_cast<int64_t>(clients_.size()),
                         std::memory_order_relaxed);
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
