#include "apps/query_engine.h"

#include <chrono>
#include <cstdlib>
#include <string_view>

#include "common/string_util.h"
#include "fault/fault.h"
#include "obs/trace_log.h"

namespace dlinf {
namespace apps {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SourceName(DeliveryLocationService::Source source) {
  switch (source) {
    case DeliveryLocationService::Source::kAddress: return "address";
    case DeliveryLocationService::Source::kBuilding: return "building";
    case DeliveryLocationService::Source::kGeocode: return "geocode";
  }
  return "geocode";
}

void AppendAnswerJson(std::string* out, int64_t address_id,
                      const DeliveryLocationService::Answer& answer,
                      int shard, bool shed) {
  out->append("{\"address_id\":");
  AppendInt(out, address_id);
  out->append(",\"x\":");
  AppendDouble(out, answer.location.x);
  out->append(",\"y\":");
  AppendDouble(out, answer.location.y);
  out->append(",\"source\":\"").append(SourceName(answer.source));
  out->append("\",\"degraded\":").append(answer.degraded ? "true" : "false");
  out->append(",\"shed\":").append(shed ? "true" : "false");
  out->append(",\"shard\":");
  AppendInt(out, shard);
  out->push_back('}');
}

/// The geocode tier is the terminal, infallible tier of DegradePolicy's
/// fallback chain: shedding answers from it directly, without touching the
/// service's tier counters.
DeliveryLocationService::Answer ShedAnswer(
    const BundleManager::ServingState& state, int64_t address_id) {
  DeliveryLocationService::Answer answer;
  answer.location = state.bundle.world->address(address_id).geocoded_location;
  answer.source = DeliveryLocationService::Source::kGeocode;
  answer.degraded = true;
  return answer;
}

/// Ids are dense indexes into the world that answers them.
bool KnownId(const BundleManager::ServingState& state, int64_t id) {
  return id >= 0 &&
         static_cast<size_t>(id) < state.bundle.world->addresses.size();
}

/// One reload of the shared manager, counted once for each of `n` shards.
QueryEngine::ReloadSummary CountPerShard(BundleManager::ReloadOutcome outcome,
                                         int n) {
  using Outcome = BundleManager::ReloadOutcome;
  return {.swapped = outcome == Outcome::kSwapped ? n : 0,
          .rolled_back = outcome == Outcome::kRolledBack ? n : 0,
          .unchanged = outcome == Outcome::kUnchanged ? n : 0};
}

struct EngineMetrics {
  obs::Counter* hits_total;
  obs::Counter* shed_total;
  obs::Counter* batch_requests;
  obs::Counter* rejected;
  obs::Histogram* latency;

  static const EngineMetrics& Get() {
    static const EngineMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return EngineMetrics{
          registry.GetCounter("service.shard.hits"),
          registry.GetCounter("service.shard.shed"),
          registry.GetCounter("service.shard.batch_requests"),
          registry.GetCounter("service.shard.rejected"),
          registry.GetHistogram("service.engine.latency_seconds")};
    }();
    return metrics;
  }
};

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Maps an inbound X-Request-Id to a trace id: numeric ids (decimal or
/// 0x-hex) are adopted so an upstream's id survives verbatim; any other
/// string hashes deterministically. Never returns 0 ("no trace context").
uint64_t RequestIdToTraceId(const std::string& id) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(id.c_str(), &end, 0);
  if (end == id.c_str() + id.size() && value != 0) return value;
  uint64_t hash = 0x2545f4914f6cdd1dull;
  for (const char c : id) {
    hash = SplitMix64(hash ^ static_cast<unsigned char>(c));
  }
  return hash != 0 ? hash : 1;
}

bool IsJsonSpace(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r';
}

/// The echoed request id and its trace id: adopted from the X-Request-Id
/// header when present; otherwise 16 hex digits of a splitmix64-whitened
/// fresh trace id, written into `generated`.
std::string_view ExtractRequestId(const HttpRequest& request,
                                  uint64_t* trace_id, char (&generated)[16]) {
  const std::string* header = request.FindHeader("x-request-id");
  if (header != nullptr && !header->empty()) {
    *trace_id = RequestIdToTraceId(*header);
    return *header;
  }
  *trace_id = SplitMix64(obs::NextTraceId());
  if (*trace_id == 0) *trace_id = 1;
  static constexpr char kHex[] = "0123456789abcdef";
  for (int i = 0; i < 16; ++i) {
    generated[i] = kHex[(*trace_id >> (60 - 4 * i)) & 0xf];
  }
  return {generated, sizeof(generated)};
}

/// Strict parse of {"address_ids":[1,2,3]}, JSON whitespace allowed between
/// tokens. False on anything else: another shape, an empty element, an
/// element `ParseNumber` rejects (sign `+`, overflow, trailing bytes), or
/// any byte after the closing brace.
bool ParseBatchBody(std::string_view body, std::vector<int64_t>* ids) {
  size_t pos = 0;
  auto skip_space = [&] {
    while (pos < body.size() && IsJsonSpace(body[pos])) ++pos;
  };
  auto expect = [&](std::string_view token) {
    skip_space();
    if (body.substr(pos, token.size()) != token) return false;
    pos += token.size();
    return true;
  };
  if (!expect("{") || !expect("\"address_ids\"") || !expect(":") ||
      !expect("[")) {
    return false;
  }
  skip_space();
  if (pos < body.size() && body[pos] == ']') {
    ++pos;
  } else {
    for (;;) {
      skip_space();
      const size_t begin = pos;
      while (pos < body.size() && body[pos] != ',' && body[pos] != ']' &&
             !IsJsonSpace(body[pos])) {
        ++pos;
      }
      int64_t id = 0;
      if (!ParseNumber(body.substr(begin, pos - begin), &id)) return false;
      ids->push_back(id);
      skip_space();
      if (pos >= body.size()) return false;
      const char separator = body[pos++];
      if (separator == ']') break;
      if (separator != ',') return false;
    }
  }
  if (!expect("}")) return false;
  skip_space();
  return pos == body.size();
}

}  // namespace

std::string QueryEngine::FormatAnswerJson(
    int64_t address_id, const DeliveryLocationService::Answer& answer,
    int shard, bool shed) {
  std::string out;
  AppendAnswerJson(&out, address_id, answer, shard, shed);
  return out;
}

std::unique_ptr<QueryEngine> QueryEngine::Create(const Options& options,
                                                 std::string* error) {
  if (options.num_shards < 1) {
    if (error != nullptr) {
      *error = "num_shards must be at least 1, got " +
               std::to_string(options.num_shards);
    }
    return nullptr;
  }
  auto engine = std::unique_ptr<QueryEngine>(new QueryEngine());
  engine->router_ = ShardRouter(options.num_shards);
  BundleManager::Config config = options.bundle;
  config.dir = options.bundle_dir;
  engine->manager_ = BundleManager::Create(config, error);
  if (engine->manager_ == nullptr) return nullptr;

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (int i = 0; i < options.num_shards; ++i) {
    const std::string label = "#shard=" + std::to_string(i);
    engine->shards_.push_back(
        {registry.GetCounter("service.shard.hits" + label),
         registry.GetCounter("service.shard.shed" + label)});
    engine->admin_.AddHealthProvider(BundleManagerHealth(
        "shard." + std::to_string(i), engine->manager_.get()));
  }

  HttpServer::Options server_options;
  server_options.port = options.port;
  server_options.idle_timeout_s = options.idle_timeout_s;
  server_options.thread_name = "qe.loop";
  QueryEngine* raw = engine.get();
  if (!engine->server_.Start(
          server_options,
          [raw](const HttpRequest& request,
                HttpServer::ResponseHandle handle) {
            raw->Handle(request, handle);
          },
          error)) {
    return nullptr;
  }
  return engine;
}

QueryEngine::~QueryEngine() { Stop(); }

void QueryEngine::Stop() { StopAdminServer(&server_); }

QueryEngine::ReloadSummary QueryEngine::PollShards(std::string* error) {
  return CountPerShard(manager_->Poll(error), num_shards());
}

QueryEngine::ReloadSummary QueryEngine::ReloadShardsNow(std::string* error) {
  return CountPerShard(manager_->ReloadNow(error), num_shards());
}

void QueryEngine::HandleQuery(const HttpRequest& request,
                              const HttpServer::ResponseHandle& handle) {
  // Every answer, error or not, echoes the request id.
  uint64_t trace_id = 0;
  char generated[16];
  const HttpHeader echo{"X-Request-Id",
                        ExtractRequestId(request, &trace_id, generated)};
  std::string raw;
  if (!request.QueryParam("address_id", &raw) || raw.empty()) {
    handle.RespondWithHeaders(400, "text/plain",
                              "missing address_id parameter\n", {echo});
    return;
  }
  int64_t id = 0;
  if (!ParseNumber(raw, &id)) {
    handle.RespondWithHeaders(400, "text/plain", "malformed address_id\n",
                              {echo});
    return;
  }
  // Pinned once, before the bounds check: a concurrent swap can neither
  // invalidate it mid-answer nor change the world the id is checked in.
  const std::shared_ptr<const BundleManager::ServingState> state =
      manager_->state();
  if (!KnownId(*state, id)) {
    EngineMetrics::Get().rejected->Add(1);
    handle.RespondWithHeaders(404, "application/json",
                              "{\"error\":\"unknown address_id\"}", {echo});
    return;
  }
  const double start_s = NowSeconds();
  // The request's trace context covers its whole handling: spans recorded
  // below and any structured log line carry the id from X-Request-Id.
  const obs::TraceScope trace_scope(trace_id);
  const int shard_index = router_.ShardOf(id);
  const Shard& shard = shards_[static_cast<size_t>(shard_index)];
  const bool shed = fault::Hit("service.shard.overload").has_value();
  std::string body;
  body.reserve(160);
  AppendAnswerJson(&body, id,
                   shed ? ShedAnswer(*state, id) : state->service->Query(id),
                   shard_index, shed);
  const EngineMetrics& metrics = EngineMetrics::Get();
  (shed ? metrics.shed_total : metrics.hits_total)->Add(1);
  (shed ? shard.shed : shard.hits)->Add(1);
  metrics.latency->Observe(NowSeconds() - start_s);
  handle.RespondWithHeaders(200, "application/json", body, {echo});
}

void QueryEngine::HandleQueryBatch(const HttpRequest& request,
                                   const HttpServer::ResponseHandle& handle) {
  uint64_t trace_id = 0;
  char generated[16];
  const HttpHeader echo{"X-Request-Id",
                        ExtractRequestId(request, &trace_id, generated)};
  if (request.method != "POST") {
    handle.RespondWithHeaders(405, "text/plain", "POST required\n", {echo});
    return;
  }
  std::vector<int64_t> ids;
  if (!ParseBatchBody(request.body, &ids)) {
    handle.RespondWithHeaders(400, "text/plain",
                              "body must be {\"address_ids\":[...]}\n",
                              {echo});
    return;
  }
  // One pinned generation answers the whole batch.
  const std::shared_ptr<const BundleManager::ServingState> state =
      manager_->state();
  for (const int64_t id : ids) {
    if (!KnownId(*state, id)) {
      EngineMetrics::Get().rejected->Add(1);
      handle.RespondWithHeaders(404, "application/json",
                                "{\"error\":\"unknown address_id\"}",
                                {echo});
      return;
    }
  }
  EngineMetrics::Get().batch_requests->Add(1);
  if (ids.empty()) {
    handle.RespondWithHeaders(200, "application/json", "{\"answers\":[]}",
                              {echo});
    return;
  }
  const double start_s = NowSeconds();
  const obs::TraceScope trace_scope(trace_id);

  // Each shard's slice is admitted or shed whole (one overload check per
  // slice, in shard order).
  struct Slice {
    int64_t count = 0;
    bool shed = false;
  };
  std::vector<Slice> slices(shards_.size());
  std::vector<int> shard_of(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    shard_of[i] = router_.ShardOf(ids[i]);
    ++slices[static_cast<size_t>(shard_of[i])].count;
  }
  const EngineMetrics& metrics = EngineMetrics::Get();
  for (size_t i = 0; i < slices.size(); ++i) {
    Slice& slice = slices[i];
    if (slice.count == 0) continue;
    slice.shed = fault::Hit("service.shard.overload").has_value();
    (slice.shed ? metrics.shed_total : metrics.hits_total)->Add(slice.count);
    (slice.shed ? shards_[i].shed : shards_[i].hits)->Add(slice.count);
  }
  std::string body = "{\"answers\":[";
  body.reserve(ids.size() * 160);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) body += ',';
    const Slice& slice = slices[static_cast<size_t>(shard_of[i])];
    AppendAnswerJson(&body, ids[i],
                     slice.shed ? ShedAnswer(*state, ids[i])
                                : state->service->Query(ids[i]),
                     shard_of[i], slice.shed);
  }
  body += "]}";
  metrics.latency->Observe(NowSeconds() - start_s);
  handle.RespondWithHeaders(200, "application/json", body, {echo});
}

void QueryEngine::Handle(const HttpRequest& request,
                         const HttpServer::ResponseHandle& handle) {
  if (request.path == "/query") {
    HandleQuery(request, handle);
  } else if (request.path == "/query_batch") {
    HandleQueryBatch(request, handle);
  } else if (request.path == "/inventory") {
    handle.Respond(
        200, "application/json",
        "{\"count\":" +
            std::to_string(manager_->state()->bundle.world->addresses.size()) +
            ",\"shards\":" + std::to_string(num_shards()) + "}");
  } else if (!admin_.Handle(request, handle)) {
    handle.Respond(404, "text/plain", "not found\n");
  }
}

}  // namespace apps
}  // namespace dlinf
