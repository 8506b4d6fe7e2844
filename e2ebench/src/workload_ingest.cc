// The ingest → refresh path.
//
// Trips from the run's seed (real GPS fixes with real dwells) are replayed
// as POST /ingest batches into an IngestServer with a fresh WAL, open loop
// at a reference rate; the same generator thread keeps a low-rate /query
// stream on a QueryEngine beside them. The refresh is then composed from
// public calls: IngestServer::Stop → StreamIngestor::Snapshot →
// OnlineTrainer::Retrain (warm-started from a round run during set-up,
// publishing into the engine's bundle directory) → QueryEngine::PollShards,
// and /query is polled for addresses first delivered in the ingested trips
// until each answers from the address tier. Last, an ingest ladder on a
// second server with a fresh WAL finds the highest rate acks keep up with.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/http_conn.h"
#include "common/random.h"
#include "dlinfma/features.h"
#include "io/wal_frame.h"
#include "loadgen.h"
#include "stream/ingest_server.h"
#include "stream/online_trainer.h"
#include "stream/stream_pipeline.h"
#include "stream/wal.h"
#include "workloads.h"

namespace e2e {

namespace apps = dlinf::apps;
namespace dl = dlinf::dlinfma;
namespace sim = dlinf::sim;
namespace stream = dlinf::stream;

namespace {

using Kind = stream::IngestRecord::Kind;

/// One producer's record stream: its trips as start/point/finish lines.
struct Producer {
  std::string client_id;
  std::vector<std::string> lines;
};

/// One producer per courier (the courier's phone), named
/// `prefix<courier id>`, sending the courier's trips in order; every record
/// is formatted with FormatIngestLine.
std::vector<Producer> MakeProducers(const std::vector<sim::DeliveryTrip>& trips,
                                    const std::string& prefix) {
  std::vector<Producer> producers;
  std::vector<uint64_t> seq;
  std::map<int64_t, size_t> producer_of;  // Courier id -> producer.
  auto add = [&](size_t k, stream::IngestRecord record) {
    record.client_id = producers[k].client_id;
    record.seq = ++seq[k];
    producers[k].lines.push_back(stream::FormatIngestLine(record));
  };
  for (const sim::DeliveryTrip& trip : trips) {
    const auto [it, fresh] =
        producer_of.emplace(trip.courier_id, producers.size());
    if (fresh) {
      producers.push_back({prefix + std::to_string(trip.courier_id), {}});
      seq.push_back(0);
    }
    const size_t k = it->second;
    stream::IngestRecord start;
    start.kind = Kind::kStartTrip;
    start.courier_id = trip.courier_id;
    start.start_time = trip.start_time;
    start.end_time = trip.end_time;
    start.waybills = trip.waybills;
    add(k, start);
    for (const dlinf::TrajPoint& p : trip.trajectory.points) {
      stream::IngestRecord point;
      point.kind = Kind::kPoint;
      point.x = p.x;
      point.y = p.y;
      point.t = p.t;
      add(k, point);
    }
    stream::IngestRecord finish;
    finish.kind = Kind::kFinishTrip;
    add(k, finish);
  }
  return producers;
}

/// A POST schedule over producers: Poisson at `records_per_s`, each POST
/// the next `batch` records of the next producer (round-robin), producer k
/// pinned to connection k % connections so its POSTs stay in order. Stops
/// after `seconds` or when every producer is exhausted. Records per POST
/// go to `*posted`.
std::vector<Request> MakePosts(const std::vector<Producer>& producers,
                               double records_per_s, double seconds,
                               int batch, int connections, dlinf::Rng* rng,
                               std::vector<int64_t>* posted) {
  std::vector<Request> requests;
  std::vector<size_t> cursor(producers.size(), 0);
  size_t exhausted = 0;
  for (const Producer& p : producers) exhausted += p.lines.empty() ? 1 : 0;
  double t = 0.0;
  for (size_t next = 0; exhausted < producers.size(); ++next) {
    const size_t k = next % producers.size();
    if (cursor[k] >= producers[k].lines.size()) continue;
    t += rng->Exponential(records_per_s / batch);
    if (t >= seconds) break;
    std::string body;
    int64_t records = 0;
    while (records < batch && cursor[k] < producers[k].lines.size()) {
      body += producers[k].lines[cursor[k]++];
      body += '\n';
      ++records;
    }
    if (cursor[k] >= producers[k].lines.size()) ++exhausted;
    Request r;
    r.due = t;
    r.conn = static_cast<int>(k % static_cast<size_t>(connections));
    r.bytes = "POST /ingest HTTP/1.1\r\nHost: bench\r\n"
              "Content-Type: text/plain\r\nContent-Length: " +
              std::to_string(body.size()) + "\r\n\r\n" + body;
    requests.push_back(std::move(r));
    posted->push_back(records);
  }
  return requests;
}

/// Records in POSTs that were answered 200 (acked or deduped); `posted`
/// holds 0 for a request that is not a POST.
int64_t RecordsOk(const std::vector<Outcome>& outcomes,
                  const std::vector<int64_t>& posted) {
  int64_t ok = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].status == 200) ok += posted[i];
  }
  return ok;
}

/// Request kinds of the ingest phase's schedule.
enum Tag { kPost = 0, kStreamQuery = 1 };

/// The low-rate query stream: Poisson /query GETs at `rps` for `seconds`,
/// keys uniform over `keys`, on connection `conn`.
std::vector<Request> MakeQueryStream(const std::vector<int64_t>& keys,
                                     double rps, double seconds, int conn,
                                     dlinf::Rng* rng) {
  std::vector<Request> requests;
  double t = 0.0;
  while ((t += rng->Exponential(rps)) < seconds) {
    Request r;
    r.due = t;
    r.conn = conn;
    r.tag = kStreamQuery;
    r.bytes = "GET /query?address_id=" +
              std::to_string(keys[static_cast<size_t>(rng->UniformInt(
                  0, static_cast<int64_t>(keys.size()) - 1))]) +
              " HTTP/1.1\r\nHost: bench\r\n\r\n";
    requests.push_back(std::move(r));
  }
  return requests;
}

stream::IngestServer::Options ServerOptions(const sim::World& city,
                                            const std::string& wal_dir) {
  stream::IngestServer::Options options;
  options.wal.dir = wal_dir;
  options.city = city;
  options.city.trips.clear();
  return options;
}

/// Per-op replay of the writer thread's work on the reference records:
/// ParseIngestLine, WalWriter::AppendFrames (one write per POST, on a
/// throwaway WAL with the server's options), and the StreamIngestor calls.
void ReplayStreamLayers(const std::vector<Producer>& producers,
                        const std::vector<Request>& posts,
                        const sim::World& city, const std::string& wal_dir,
                        Report* report) {
  std::vector<const std::string*> lines;
  for (const Producer& p : producers) {
    for (const std::string& line : p.lines) lines.push_back(&line);
  }
  const double n = static_cast<double>(lines.size());
  std::vector<stream::IngestRecord> records(lines.size());
  {
    ScopedSpan span("ParseIngestLine", "stream");
    const double t0 = Now();
    std::string error;
    for (size_t i = 0; i < lines.size(); ++i) {
      if (!stream::ParseIngestLine(*lines[i], &records[i], &error)) {
        report->Mismatch("ParseIngestLine rejected a formatted line: " + error);
        return;
      }
    }
    report->Set("stream.parse_ns", (Now() - t0) / n * 1e9, "ns");
  }
  {
    // Frames grouped exactly as the POSTs were.
    std::vector<std::pair<std::string, uint64_t>> batches;
    for (const Request& post : posts) {
      const size_t body = post.bytes.find("\r\n\r\n") + 4;
      std::string frames;
      uint64_t count = 0;
      size_t begin = body;
      while (begin < post.bytes.size()) {
        const size_t end = post.bytes.find('\n', begin);
        stream::IngestRecord record;
        std::string error;
        const std::string line = post.bytes.substr(begin, end - begin);
        stream::ParseIngestLine(line, &record, &error);
        dlinf::io::AppendWalFrame(static_cast<uint32_t>(record.kind), line,
                                  &frames);
        ++count;
        begin = end + 1;
      }
      batches.emplace_back(std::move(frames), count);
    }
    stream::WalOptions options = ServerOptions(city, wal_dir).wal;
    std::filesystem::remove_all(wal_dir);
    std::string error;
    std::optional<stream::WalWriter> wal =
        stream::WalWriter::Open(options, &error);
    if (!wal) {
      report->Mismatch("throwaway WAL open failed: " + error);
      return;
    }
    ScopedSpan span("WalWriter::AppendFrames", "stream.wal");
    const double t0 = Now();
    for (const auto& [frames, count] : batches) {
      if (!wal->AppendFrames(frames, count, &error)) {
        report->Mismatch("throwaway WAL append failed: " + error);
        return;
      }
    }
    report->Set("stream.wal_append_us", (Now() - t0) / n * 1e6, "us");
    wal->Close();
    report->Set("stream.wal_bytes_per_record",
                static_cast<double>(DirBytes(wal_dir)) / n, "bytes");
  }
  stream::StreamIngestor ingestor(city, dl::CandidateGeneration::Options{});
  double push_s = 0.0;
  double finish_s = 0.0;
  int64_t points = 0;
  int64_t trips = 0;
  {
    ScopedSpan span("StreamIngestor", "stream.ingestor");
    // Per producer, in stream order (the server applies each client's
    // records in seq order).
    size_t at = 0;
    for (const Producer& p : producers) {
      for (size_t i = 0; i < p.lines.size(); ++i, ++at) {
        const stream::IngestRecord& r = records[at];
        if (r.kind == Kind::kStartTrip) {
          sim::DeliveryTrip trip;
          trip.courier_id = r.courier_id;
          trip.start_time = r.start_time;
          trip.end_time = r.end_time;
          trip.waybills = r.waybills;
          trip.trajectory.courier_id = r.courier_id;
          ingestor.StartTrip(trip);
        } else if (r.kind == Kind::kPoint) {
          const double t0 = Now();
          ingestor.PushPoint(dlinf::TrajPoint{r.x, r.y, r.t});
          push_s += Now() - t0;
          ++points;
        } else {
          const double t0 = Now();
          ingestor.FinishTrip();
          finish_s += Now() - t0;
          ++trips;
        }
      }
    }
  }
  report->Set("stream.push_point_ns",
              push_s / std::max<int64_t>(1, points) * 1e9, "ns");
  report->Set("stream.finish_trip_us",
              finish_s / std::max<int64_t>(1, trips) * 1e6, "us");
  report->Set("stream.stay_points",
              static_cast<double>(ingestor.updater().num_stay_points()),
              "count");
  report->Set("stream.clusters",
              static_cast<double>(ingestor.updater().num_clusters()), "count");
  report->Set("stream.writer_us_per_record",
              report->Get("stream.wal_append_us") +
                  (push_s + finish_s) / n * 1e6,
              "us");
}

/// Poll body check: the engine's answer for `id` must come from the address
/// tier and byte-equal the direct lookup on the live bundle.
bool AnswersFromAddressTier(apps::QueryEngine* engine, int64_t id,
                            const std::string& body) {
  const int shard = engine->router().ShardOf(id);
  const auto answer = engine->shard_manager(shard)->state()->service->Query(id);
  return answer.source == apps::DeliveryLocationService::Source::kAddress &&
         body == apps::QueryEngine::FormatAnswerJson(id, answer, shard, false);
}

}  // namespace

void RunIngestPhase(const Plan& plan, const RunArgs& args,
                    const Inputs& inputs, Report* report,
                    double* setup_boot_s) {
  // The serving history of this path: the first kHistoryDays of the
  // training world, so that the ingested trips always bring addresses the
  // served model has never seen (a long training history covers them all).
  constexpr double kHistoryDays = 30.0;
  sim::World city = inputs.train_world;
  city.trips.erase(
      std::remove_if(city.trips.begin(), city.trips.end(),
                     [](const sim::DeliveryTrip& trip) {
                       return trip.start_time >= kHistoryDays * 86400.0;
                     }),
      city.trips.end());
  const std::string serve_dir = args.work_dir + "/bundle_serving";
  dl::TrainConfig round_budget;
  round_budget.max_epochs = plan.refresh_epochs;
  round_budget.early_stop_patience = plan.refresh_epochs + 1;
  stream::OnlineTrainer::Options trainer_options;
  trainer_options.train = round_budget;
  trainer_options.publish_dir = serve_dir;
  stream::OnlineTrainer trainer(trainer_options);

  // Set-up of the path: the warm round over the history (the model the
  // refresh warm-starts from, published as the serving bundle), the engine
  // on it, and the benchmark's own replay of the records it will send.
  {
    const double t0 = Now();
    const auto round = trainer.Retrain(
        city, dl::CandidateGeneration::Build(city, {}));
    Note("ingest.warm_round",
         Fmt("trained=%d published=%d epochs=%d s=%.4f", round.trained,
             round.published, round.train.epochs_run, Now() - t0));
    if (!round.published) {
      report->Mismatch("warm round did not publish: " + round.skip_reason +
                       round.publish_error);
      return;
    }
  }
  double boot_s = 0.0;
  std::unique_ptr<apps::QueryEngine> engine =
      BootEngine(serve_dir, 1, plan.setup_reps, &boot_s, report);
  if (engine == nullptr) return;

  const std::vector<Producer> producers =
      MakeProducers(inputs.ingest_trips.trips, "rider-");
  int64_t total_records = 0;
  for (const Producer& p : producers) total_records += p.lines.size();
  stream::StreamIngestor reference(city, dl::CandidateGeneration::Options{});
  for (const sim::DeliveryTrip& trip : inputs.ingest_trips.trips) {
    reference.ReplayTrip(trip);
  }
  // Refresh targets: addresses first delivered in the ingested trips that
  // the refreshed model will hold (they retrieve at least one candidate).
  std::set<int64_t> history;
  for (const sim::DeliveryTrip& trip : city.trips) {
    for (const sim::Waybill& w : trip.waybills) history.insert(w.address_id);
  }
  std::vector<int64_t> targets;
  {
    const dl::CandidateGeneration snapshot = reference.Snapshot();
    std::set<int64_t> seen;
    for (const sim::DeliveryTrip& trip : inputs.ingest_trips.trips) {
      for (const sim::Waybill& w : trip.waybills) {
        if (targets.size() < 16 && history.count(w.address_id) == 0 &&
            seen.insert(w.address_id).second &&
            !snapshot.Retrieve(w.address_id).empty()) {
          targets.push_back(w.address_id);
        }
      }
    }
  }
  if (targets.empty()) {
    report->Mismatch("no address is first delivered in the ingested trips");
    return;
  }

  // The ingest server, with a fresh WAL (start time is set-up).
  std::vector<double> starts;
  std::unique_ptr<stream::IngestServer> server;
  for (int rep = 0; rep < std::max(1, plan.setup_reps); ++rep) {
    if (server != nullptr) server->Stop();
    const std::string wal_dir = args.work_dir + "/wal_" + std::to_string(rep);
    std::filesystem::remove_all(wal_dir);
    server = std::make_unique<stream::IngestServer>(
        ServerOptions(city, wal_dir));
    std::string error;
    ScopedSpan span("IngestServer::Start", "stream");
    const double t0 = Now();
    if (!server->Start(&error)) {
      report->Mismatch("IngestServer::Start failed: " + error);
      return;
    }
    starts.push_back(Now() - t0);
  }
  *setup_boot_s = boot_s + Median(starts);

  dlinf::Rng rng(args.seed * 0xbf58476d1ce4e5b9ull + 0x1e57);
  const int records_per_post = RecordsPerPost(plan);
  std::vector<int64_t> posted;
  const std::vector<Request> posts =
      MakePosts(producers, plan.ingest_ref_rps, 1e9, records_per_post,
                plan.ingest_connections, &rng, &posted);
  const double ingest_s = posts.empty() ? 0.0 : posts.back().due;

  // One generator thread drives the POSTs (connections 0..n-1, to the
  // ingest server) and the low-rate query stream beside them (connection
  // n, to the engine) from one merged schedule.
  dlinf::Rng stream_rng(args.seed * 0x94d049bb133111ebull + 0x51);
  const std::vector<int64_t> keys(history.begin(), history.end());
  std::vector<Request> load;
  std::vector<int64_t> load_records;  // Records per request (0: a query).
  {
    const std::vector<Request> queries =
        MakeQueryStream(keys, plan.refresh_query_rps, ingest_s,
                        plan.ingest_connections, &stream_rng);
    size_t p = 0;
    size_t q = 0;
    while (p < posts.size() || q < queries.size()) {
      if (q < queries.size() &&
          (p == posts.size() || queries[q].due < posts[p].due)) {
        load.push_back(queries[q++]);
        load_records.push_back(0);
      } else {
        load.push_back(posts[p]);
        load_records.push_back(posted[p++]);
      }
    }
  }
  Note("ingest.load",
       Fmt("loop=open arrivals=poisson ref_records_per_s=%.0f "
           "records_per_post=%d (upload_period_s=%.0f / gps_interval_s=%.1f) "
           "posts=%zu records=%lld trips=%zu producers=%zu (one per courier) "
           "query_stream_rps=%.0f generator_threads=1 connections=%d+1 "
           "server_threads=2 (loop + writer) engine_threads=2 (loop + 1 "
           "shard) nproc=%u targets=%zu",
           plan.ingest_ref_rps, records_per_post, plan.upload_period_s,
           CityConfig(plan).gps_sample_interval_s, posts.size(),
           static_cast<long long>(total_records),
           inputs.ingest_trips.trips.size(), producers.size(),
           plan.refresh_query_rps, plan.ingest_connections,
           std::thread::hardware_concurrency(), targets.size()));

  OpenLoopClient client;
  std::string error;
  std::vector<int> ports(static_cast<size_t>(plan.ingest_connections),
                         server->port());
  ports.push_back(engine->port());
  if (!client.Connect(ports, &error)) {
    report->Mismatch("ingest phase connect failed: " + error);
    return;
  }
  const std::string metrics_before = HttpGetBody(engine->port(), "/metrics");
  const double start = Now() + 0.005;
  std::vector<Outcome> load_out;
  const double cpu_before = ThreadCpuSeconds("ingest.");
  client.Run(load, start, &load_out, nullptr, 10.0, "\"shed\":true");
  const double server_cpu_s = ThreadCpuSeconds("ingest.") - cpu_before;
  const std::string stats = HttpGetBody(server->port(), "/ingest/stats");
  const std::string metrics_after = HttpGetBody(engine->port(), "/metrics");
  double last_ack = start;
  int64_t records_sent = 0;
  for (size_t i = 0; i < load.size(); ++i) {
    if (load[i].tag != kPost) continue;
    last_ack = std::max(last_ack, load_out[i].done);
    if (load_out[i].sent >= 0.0) records_sent += load_records[i];
  }
  const LatencySummary acks =
      Summarize(load_out, load, kPost, start, start + ingest_s + 1.0,
                WindowsFor(static_cast<double>(posts.size())));
  const LatencySummary ingest_queries =
      Summarize(load_out, load, kStreamQuery, start, start + ingest_s + 1.0);
  const int64_t records_ok = RecordsOk(load_out, load_records);
  report->Count(static_cast<int64_t>(posts.size()), acks.failed);
  report->Count(ingest_queries.sent, ingest_queries.failed);
  report->Set("ingest.ack_p50_ms", ReportedMs(acks.p50_s), "ms");
  report->Set("ingest.ack_p99_ms", ReportedMs(acks.p99_s), "ms");
  report->Set("ingest.ok_frac",
              records_sent > 0 ? static_cast<double>(records_ok) /
                                     static_cast<double>(records_sent)
                               : 0.0,
              "fraction");
  report->Set("ingest.gen_lag_p99_ms", acks.lag_p99_s * 1e3, "ms");
  report->Set("ingest.cpu_us_per_record",
              server_cpu_s / std::max<int64_t>(1, records_ok) * 1e6, "us");
  Note("ingest.reference",
       Fmt("posts=%lld ok=%lld records_sent=%lld records_ok=%lld "
           "ack_p50_ms=%.4f ack_p99_ms=%.4f gen_lag_p99_ms=%.4f "
           "stream_queries=%lld stream_failed=%lld stats=%s",
           static_cast<long long>(acks.sent), static_cast<long long>(acks.ok),
           static_cast<long long>(records_sent),
           static_cast<long long>(records_ok), acks.p50_s * 1e3,
           acks.p99_s * 1e3, acks.lag_p99_s * 1e3,
           static_cast<long long>(ingest_queries.sent),
           static_cast<long long>(ingest_queries.failed), stats.c_str()));
  Note("ingest.validity",
       acks.lag_p99_s * 1e3 > plan.ingest_limit_ms
           ? Fmt("invalid: generator p99 lateness %.3f ms over the %.1f ms "
                 "limit", acks.lag_p99_s * 1e3, plan.ingest_limit_ms)
           : std::string("valid"));
  // Correctness: every record sent is acked or deduped (a refused record
  // is a failure, counted in ingest.ok_frac, and must show as shed or
  // rejected on the server, never vanish).
  const int64_t accepted = JsonInt(stats, "acked") + JsonInt(stats, "deduped");
  const bool all_acked = records_ok == records_sent;
  if (accepted != records_ok ||
      accepted + JsonInt(stats, "shed") + JsonInt(stats, "rejected") !=
          records_sent) {
    report->Mismatch(Fmt("server accounts acked+deduped=%lld (+shed/rejected)"
                         " for %lld records sent, %lld answered 200",
                         static_cast<long long>(accepted),
                         static_cast<long long>(records_sent),
                         static_cast<long long>(records_ok)));
  }
  report->Set("stream.shed", static_cast<double>(JsonInt(stats, "shed")),
              "count");
  report->Set("stream.rejected",
              static_cast<double>(JsonInt(stats, "rejected")), "count");
  report->Set("stream.batches", static_cast<double>(JsonInt(stats, "batches")),
              "count");
  report->Set("stream.server_ack_p99_ms",
              HistogramQuantile(
                  SubtractHistogram(
                      ParsePromHistogram(metrics_after,
                                         "stream_ingest_ack_seconds"),
                      ParsePromHistogram(metrics_before,
                                         "stream_ingest_ack_seconds")),
                  0.99) * 1e3,
              "ms");

  // --- Refresh ------------------------------------------------------------
  // Round 1 runs from the last ack; rounds 2.. repeat snapshot → retrain →
  // publish → reload → answer on the same ingested state (each warm-starts
  // from the round before), and the reported times are medians over rounds.
  // The query stream goes on beside the refresh, now from its own thread,
  // while this thread refreshes (the ingest server's threads have ended).
  const std::vector<Request> stream_requests = MakeQueryStream(
      keys, plan.refresh_query_rps,
      plan.refresh_rounds * plan.refresh_timeout_s + 5.0, 0, &stream_rng);
  std::atomic<bool> stop_stream{false};
  std::vector<Outcome> stream_out;
  OpenLoopClient stream_client;
  if (!stream_client.Connect({engine->port()}, &error)) {
    report->Mismatch("query stream connect failed: " + error);
    return;
  }
  const double stream_start = Now() + 0.001;
  std::thread stream_thread([&] {
    stream_client.Run(stream_requests, stream_start, &stream_out,
                      &stop_stream, kFailureWaitS, "\"shed\":true");
  });
  std::vector<double> queryable_s, drain_s, snapshot_s, retrain_s, reload_s,
      first_answer_s;
  std::vector<std::pair<double, double>> windows;  // Refresh intervals.
  const stream::StreamIngestor& ingested = server->ingestor();
  dl::CandidateGeneration snapshot = reference.Snapshot();
  stream::OnlineTrainer::RoundResult round;
  for (int r = 0; r < plan.refresh_rounds; ++r) {
    // A traced run records spans in its last round only; the rounds before
    // it give the untraced time the overhead is measured against.
    Tracer::Get().Enable(args.trace && r == plan.refresh_rounds - 1);
    const double from = r == 0 ? last_ack : Now();
    double t = Now();
    if (r == 0) {
      ScopedSpan span("IngestServer::Stop", "stream");
      server->Stop();
      drain_s.push_back(Now() - t);
      // The replay holds every record; compare when the server took all.
      if (all_acked && (ingested.num_trips() != reference.num_trips() ||
                        ingested.updater().num_stay_points() !=
                            reference.updater().num_stay_points())) {
        report->Mismatch(Fmt(
            "server ingestor holds %lld trips / %zu stay points, the replay "
            "%lld / %zu",
            static_cast<long long>(ingested.num_trips()),
            ingested.updater().num_stay_points(),
            static_cast<long long>(reference.num_trips()),
            reference.updater().num_stay_points()));
      }
    }
    t = Now();
    {
      ScopedSpan span("StreamIngestor::Snapshot", "stream");
      snapshot = ingested.Snapshot();
    }
    snapshot_s.push_back(Now() - t);
    t = Now();
    {
      ScopedSpan span("OnlineTrainer::Retrain", "stream.online_trainer");
      round = trainer.Retrain(ingested.world(), snapshot);
    }
    retrain_s.push_back(Now() - t);
    if (!round.trained || !round.published) {
      report->Mismatch("refresh round did not train and publish: " +
                       round.skip_reason + round.publish_error);
    }
    t = Now();
    apps::QueryEngine::ReloadSummary reload;
    {
      ScopedSpan span("QueryEngine::PollShards", "apps.bundle_manager");
      reload = engine->PollShards(&error);
    }
    reload_s.push_back(Now() - t);
    if (reload.swapped != engine->num_shards()) {
      report->Mismatch(Fmt("hot reload swapped %d of %d shards: %s",
                           reload.swapped, engine->num_shards(),
                           error.c_str()));
    }
    t = Now();
    double queryable_at = -1.0;
    {
      ScopedSpan span("poll /query", "client");
      apps::HttpClient poller;
      poller.Connect(engine->port());
      while (Now() - from < plan.refresh_timeout_s) {
        size_t good = 0;
        for (const int64_t id : targets) {
          int status = 0;
          std::string body;
          if (poller.SendGet("/query?address_id=" + std::to_string(id)) &&
              poller.ReadResponse(&status, &body) && status == 200 &&
              AnswersFromAddressTier(engine.get(), id, body)) {
            ++good;
          }
        }
        if (good == targets.size()) {
          queryable_at = Now();
          break;
        }
      }
    }
    first_answer_s.push_back(Now() - t);
    if (queryable_at < 0.0) {
      if (all_acked) {
        report->Mismatch("refreshed addresses never answered from the "
                         "address tier");
      }
      queryable_at = Now();
    }
    queryable_s.push_back(queryable_at - from);
    windows.emplace_back(from, queryable_at);
    report->Count(1, 0);
  }
  Tracer::Get().Enable(false);
  stop_stream.store(true, std::memory_order_release);
  stream_thread.join();
  if (args.trace) {
    const double traced_round = queryable_s.back();
    queryable_s.pop_back();
    report->Set("refresh.trace_overhead_s",
                traced_round - Median(queryable_s), "s");
  }
  report->Set("refresh.ingest_to_queryable_s", Median(queryable_s), "s");
  report->Set("refresh.drain_s", Median(drain_s), "s");
  report->Set("refresh.snapshot_s", Median(snapshot_s), "s");
  report->Set("refresh.reload_s", Median(reload_s), "s");
  report->Set("refresh.first_answer_s", Median(first_answer_s), "s");
  // Queries due inside any refresh interval.
  std::vector<Outcome> in_refresh;
  std::vector<Request> in_refresh_requests;
  for (size_t i = 0; i < stream_out.size(); ++i) {
    for (const auto& [from, to] : windows) {
      if (stream_out[i].due >= from && stream_out[i].due < to) {
        in_refresh.push_back(stream_out[i]);
        in_refresh_requests.push_back(Request());
        break;
      }
    }
  }
  const LatencySummary refresh_queries =
      Summarize(in_refresh, in_refresh_requests, -1, 0.0, 1e300);
  const LatencySummary stream_all =
      Summarize(stream_out, stream_requests, -1, stream_start, Now());
  report->Set("refresh.query_p99_ms", ReportedMs(refresh_queries.p99_s),
              "ms");
  report->Count(stream_all.sent, stream_all.failed);
  std::string rounds_text;
  for (const double q : queryable_s) rounds_text += Fmt(" %.4f", q);
  Note("refresh.rounds", "ingest_to_queryable_s per round:" + rounds_text);
  Note("refresh",
       Fmt("rounds=%d ingest_to_queryable_s(median)=%.4f first_round_s=%.4f "
           "drain_s=%.4f snapshot_s=%.4f retrain_s=%.4f (epochs=%d train=%zu "
           "val=%zu) reload_s=%.4f first_answer_s=%.4f refresh_queries=%lld "
           "p99_ms=%.4f stream_failed=%lld",
           plan.refresh_rounds, Median(queryable_s), queryable_s.front(),
           Median(drain_s), Median(snapshot_s), Median(retrain_s),
           round.train.epochs_run, round.train_samples, round.val_samples,
           Median(reload_s), Median(first_answer_s),
           static_cast<long long>(refresh_queries.sent),
           refresh_queries.p99_s * 1e3,
           static_cast<long long>(stream_all.failed)));

  if (args.trace) {
    // Publish cost, replayed into a throwaway dir on the refreshed state, so
    // retrain_s can be reported without its own publish.
    dl::Dataset data;
    data.world = &ingested.world();
    data.gen = std::make_unique<dl::CandidateGeneration>(snapshot);
    SplitIds(ingested.world(), &data);
    const dl::SampleSet samples = dl::ExtractSamples(data, {});
    ScopedSpan span("PublishBundle", "stream.online_trainer");
    const double t0 = Now();
    std::string publish_error;
    if (!stream::PublishBundle(ingested.world(), data, samples,
                               *trainer.method(),
                               args.work_dir + "/bundle_publish_replay",
                               &publish_error)) {
      report->Mismatch("publish replay failed: " + publish_error);
    }
    const double publish_s = Now() - t0;
    report->Set("refresh.publish_s", publish_s, "s");
    report->Set("refresh.retrain_s", Median(retrain_s) - publish_s, "s");
    // Round 1's stages against round 1's end-to-end time.
    const double layer_sum = drain_s.front() + snapshot_s.front() +
                             retrain_s.front() + reload_s.front() +
                             first_answer_s.front();
    report->Set("refresh.layer_sum_s", layer_sum, "s");
    report->Set("refresh.unattributed_s", queryable_s.front() - layer_sum,
                "s");
    Tracer::Get().Enable(true);
    ReplayStreamLayers(producers, posts, city,
                       args.work_dir + "/wal_replay", report);
    Tracer::Get().Enable(false);
  }

  // --- Ladder on a fresh WAL (traced run only; its figures are per-layer) -
  if (!args.trace) {
    engine->Stop();
    return;
  }
  stream::IngestServer ladder_server(
      ServerOptions(city, args.work_dir + "/wal_ladder"));
  if (!ladder_server.Start(&error) ||
      !client.Connect(std::vector<int>(plan.ingest_connections,
                                       ladder_server.port()),
                      &error)) {
    report->Mismatch("ladder server failed: " + error);
    return;
  }
  double max_rate = records_ok / std::max(1e-9, last_ack - start);
  for (int step = 0; step < plan.ingest_ladder_steps; ++step) {
    const double rate =
        plan.ingest_ladder_base * std::pow(plan.ingest_ladder_ratio, step);
    // Enough trips for the step, recycled, under fresh client ids.
    std::vector<sim::DeliveryTrip> trips;
    int64_t planned = 0;
    while (planned < rate * plan.ingest_step_s * 1.05) {
      for (const sim::DeliveryTrip& trip : inputs.ingest_trips.trips) {
        trips.push_back(trip);
        planned += static_cast<int64_t>(trip.trajectory.points.size()) + 2;
      }
    }
    const std::vector<Producer> step_producers = MakeProducers(
        trips, "ladder" + std::to_string(step) + "-");
    std::vector<int64_t> step_posted;
    const std::vector<Request> step_posts = MakePosts(
        step_producers, rate, plan.ingest_step_s, records_per_post,
        plan.ingest_connections, &rng, &step_posted);
    std::vector<Outcome> out;
    const double step_start = Now() + 0.002;
    client.Run(step_posts, step_start, &out, nullptr, 1.0);
    const double step_stop = step_start + plan.ingest_step_s;
    const LatencySummary s =
        Summarize(out, step_posts, -1, step_start, step_stop,
                  WindowsFor(static_cast<double>(step_posts.size())));
    const LatencySummary tail =
        Summarize(out, step_posts, -1, step_stop - plan.ingest_step_s / 5,
                  step_stop);
    const double achieved =
        static_cast<double>(RecordsOk(out, step_posted)) /
        std::max(1e-9, plan.ingest_step_s);
    const Verdict verdict = JudgeStep(s, tail, plan.ingest_limit_ms * 1e-3);
    Note("ingest.ladder",
         Fmt("records_per_s=%.0f posts=%lld failed=%lld p99_ms=%.3f "
             "last_fifth_p50_ms=%.3f gen_lag_p99_ms=%.3f achieved=%.1f %s",
             rate, static_cast<long long>(s.sent),
             static_cast<long long>(s.failed), s.p99_s * 1e3,
             tail.p50_s * 1e3, s.lag_p99_s * 1e3, achieved,
             VerdictName(verdict)));
    if (verdict == Verdict::kOverload) break;
    if (verdict == Verdict::kPass) max_rate = std::max(max_rate, achieved);
  }
  ladder_server.Stop();
  report->Set("ingest.max_records_per_s", max_rate, "1/s");
  engine->Stop();
}

}  // namespace e2e
