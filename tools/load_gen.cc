// load_gen — synthetic traffic against a running query engine (DESIGN.md
// §11) or ingest server (DESIGN.md §14).
//
//   load_gen --port P [--threads 4] [--seconds 2] [--pipeline 16]
//            [--batch 0] [--max-requests 0]
//   load_gen --port P --ingest [--world FILE] [--threads 4] [--seconds 2]
//            [--pipeline 16] [--dup-every 0] [--max-requests 0]
//
// Query mode discovers the address keyspace from the engine's /inventory
// endpoint, then drives it from `--threads` keep-alive connections, each
// writing pipelined bursts of `--pipeline` GET /query requests (or, with
// `--batch N`, POST /query_batch bodies of N ids) and reading the
// responses back in order. Key streams are deterministic per thread.
//
// Ingest mode makes each thread one producer client (`lg-<i>`) streaming
// deterministic synthetic trips as transactional POST /ingest batches of
// `--pipeline` records (trips span batches freely). `--world FILE` streams
// a recorded world artifact's trips instead: thread i of T sends trips i,
// i+T, ... and stops when they run out, so `--threads 1` replays the world
// in its recorded order. `--dup-every M` re-sends every Mth POST verbatim —
// an injected producer retry the server must ack as an exact no-op
// ("deduped"). A 429 is honoured by sleeping its Retry-After and re-sending
// the same batch (counted as shed); anything other than 2xx/429 is an error.
//
// Each mode prints one machine-readable summary line:
//
//   load_gen: requests=N qps=Q p50_ms=A p99_ms=B p999_ms=C shed=S errors=E
//   load_gen: ingest records=N acked=A deduped=D rps=R p50_ms=X p99_ms=Y
//             shed=S errors=E
//
// and exits nonzero on any transport failure or unexpected status, or when
// no request completes at all, so CI smoke steps can gate on it directly.
// A malformed command line, or a value no run can honour (`--seconds 0`, a
// negative count), prints one line naming the flag and exits 2.
// `--max-requests N` sends exactly N requests (ids in batch mode, records
// in ingest mode) unless --seconds runs out first: thread i sends
// N/threads, plus one when i < N%threads, and trims its last burst or POST
// to what is left.
// Latency per request is measured as its burst's round-trip time — an upper
// bound for every request in the burst; in ingest mode it is the per-POST
// ack latency.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/http_conn.h"
#include "common/flags.h"
#include "io/codecs.h"
#include "stream/ingest_server.h"

namespace {

using dlinf::apps::HttpClient;
using dlinf::apps::HttpGetOnce;

struct Options {
  int port = 0;
  int threads = 4;
  double seconds = 2.0;
  int pipeline = 16;
  int batch = 0;              ///< 0: single GETs; N>0: /query_batch of N ids.
  int max_requests = 0;       ///< 0: until --seconds elapses.
  bool ingest = false;        ///< Drive POST /ingest instead of /query.
  int dup_every = 0;          ///< Ingest: re-send every Mth POST (0: never).
  int64_t address_count = 0;  ///< Query mode: keyspace from /inventory.
  /// Ingest: the recorded world whose trips are sent; null for synthetic.
  const dlinf::sim::World* world = nullptr;
};

struct ThreadStats {
  int64_t requests = 0;
  int64_t shed = 0;
  int64_t errors = 0;
  int64_t acked = 0;    ///< Ingest mode: fresh records the server committed.
  int64_t deduped = 0;  ///< Ingest mode: retried records acked as no-ops.
  std::vector<double> latency_s;  ///< One entry per request (burst RTT).
  std::string first_error;
};

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

using dlinf::FlagType;

/// A value no run can honour is rejected by Flags::Parse from these bounds.
constexpr dlinf::FlagSpec kFlags[] = {
    {"--port", FlagType::kInt},
    {.name = "--threads", .type = FlagType::kInt, .min = 1},
    {.name = "--seconds",
     .type = FlagType::kDouble,
     .min = 0,
     .min_exclusive = true},
    {.name = "--pipeline", .type = FlagType::kInt, .min = 1},
    {.name = "--batch", .type = FlagType::kInt, .min = 0},
    {.name = "--max-requests", .type = FlagType::kInt, .min = 0},
    {"--ingest", FlagType::kBool},
    {.name = "--dup-every", .type = FlagType::kInt, .min = 0},
    {"--world", FlagType::kString}};

/// How many requests thread `thread_index` may still send after `done`:
/// its exact share of --max-requests, unbounded without one.
int64_t RemainingShare(const Options& options, int thread_index,
                       int64_t done) {
  if (options.max_requests == 0) return std::numeric_limits<int64_t>::max();
  const int64_t share = options.max_requests / options.threads +
                        (thread_index < options.max_requests % options.threads
                             ? 1
                             : 0);
  return share - done;
}

/// The size of this thread's next burst or POST of up to `want` requests;
/// 0 once --seconds since `begin` or its share of --max-requests is spent.
int64_t NextBurst(const Options& options, int thread_index, double begin,
                  int64_t done, int64_t want) {
  if (NowSeconds() >= begin + options.seconds) return 0;
  return std::min(want, RemainingShare(options, thread_index, done));
}

void RunClient(const Options& options, int thread_index, HttpClient* client,
               ThreadStats* stats) {
  const int64_t address_count = options.address_count;
  std::string error;
  const double begin = NowSeconds();
  // Deterministic per-thread key stream: a fixed stride walk over the
  // inventory, disjoint phases per thread.
  int64_t cursor = (thread_index * 7919) % address_count;
  const int64_t stride = 13;

  for (;;) {
    const int64_t size =
        NextBurst(options, thread_index, begin, stats->requests,
                  options.batch > 0 ? options.batch : options.pipeline);
    if (size <= 0) break;
    const double start = NowSeconds();
    int64_t in_flight = 0;
    std::string burst;
    if (options.batch > 0) {
      std::string payload = "{\"address_ids\":[";
      for (int64_t i = 0; i < size; ++i) {
        if (i > 0) payload += ",";
        payload += std::to_string(cursor);
        cursor = (cursor + stride) % address_count;
      }
      payload += "]}";
      burst = "POST /query_batch HTTP/1.1\r\nHost: h\r\nContent-Type: "
              "application/json\r\nContent-Length: " +
              std::to_string(payload.size()) + "\r\n\r\n" + payload;
      in_flight = 1;
    } else {
      for (int64_t i = 0; i < size; ++i) {
        burst += "GET /query?address_id=" + std::to_string(cursor) +
                 " HTTP/1.1\r\nHost: h\r\n\r\n";
        cursor = (cursor + stride) % address_count;
      }
      in_flight = size;
    }
    if (!client->SendRaw(burst)) {
      ++stats->errors;
      if (stats->first_error.empty()) stats->first_error = "send failed";
      return;
    }
    bool burst_ok = true;
    int64_t burst_shed = 0;
    for (int64_t i = 0; i < in_flight; ++i) {
      int status = 0;
      std::string body;
      if (!client->ReadResponse(&status, &body, &error)) {
        ++stats->errors;
        if (stats->first_error.empty()) {
          stats->first_error = "read: " + error;
        }
        return;
      }
      if (status != 200) {
        ++stats->errors;
        burst_ok = false;
        if (stats->first_error.empty()) {
          stats->first_error =
              "status " + std::to_string(status) + ": " + body;
        }
      }
      size_t pos = 0;
      while ((pos = body.find("\"shed\":true", pos)) != std::string::npos) {
        ++burst_shed;
        pos += 11;
      }
    }
    const double elapsed = NowSeconds() - start;
    stats->requests += size;
    stats->shed += burst_shed;
    if (burst_ok) {
      stats->latency_s.insert(stats->latency_s.end(), size, elapsed);
    }
  }
}

/// Pulls the integer after `"key":` out of a flat JSON object, -1 if absent.
int64_t JsonInt(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = body.find(needle);
  if (pos == std::string::npos) return -1;
  return std::atoll(body.c_str() + pos + needle.size());
}

/// One producer client streaming deterministic synthetic trips, or its
/// share of a recorded world's trips. Trip t of thread i always yields the
/// same records, so a re-run (or a retry after a crash) replays the
/// identical byte stream.
class IngestStream {
 public:
  IngestStream(const Options& options, int thread_index)
      : client_id_("lg-" + std::to_string(thread_index)),
        courier_id_(1000 + thread_index),
        world_(options.world),
        world_trip_(static_cast<size_t>(thread_index)),
        world_stride_(static_cast<size_t>(options.threads)) {}

  /// Sets *line to the next protocol line (trips span POST batches freely);
  /// false once a recorded world's share of trips has been sent.
  bool NextLine(std::string* line) {
    if (next_line_ == lines_.size()) {
      if (world_ == nullptr) {
        lines_ = dlinf::stream::TripLines(client_id_, NextTrip(), &seq_);
      } else if (world_trip_ < world_->trips.size()) {
        lines_ = dlinf::stream::TripLines(client_id_,
                                          world_->trips[world_trip_], &seq_);
        world_trip_ += world_stride_;
      } else {
        return false;
      }
      next_line_ = 0;
    }
    *line = lines_[next_line_++];
    return true;
  }

 private:
  /// A deterministic drifting walk of 6-10 points; values only need to be
  /// stable.
  dlinf::sim::DeliveryTrip NextTrip() {
    dlinf::sim::DeliveryTrip trip;
    trip.courier_id = courier_id_;
    trip.start_time = static_cast<double>(trip_index_) * 3600.0;
    trip.end_time = trip.start_time + 3600.0;
    for (int64_t k = 1; k <= 6 + trip_index_ % 5; ++k) {
      const double step = static_cast<double>(k);
      trip.trajectory.points.push_back(
          {100.0 * courier_id_ + 10.0 * trip_index_ + step * 0.5,
           50.0 * courier_id_ + 5.0 * trip_index_ + step * 0.25,
           trip.start_time + step * 15.0});
    }
    ++trip_index_;
    return trip;
  }

  std::string client_id_;
  int64_t courier_id_;
  const dlinf::sim::World* world_;
  size_t world_trip_;    ///< Next recorded trip this thread sends.
  size_t world_stride_;  ///< Threads sharing the recorded trips.
  uint64_t seq_ = 0;
  int64_t trip_index_ = 0;
  std::vector<std::string> lines_;  ///< The current trip's lines.
  size_t next_line_ = 0;
};

void RunIngestClient(const Options& options, int thread_index,
                     HttpClient* client, ThreadStats* stats) {
  std::string error;
  const double begin = NowSeconds();
  IngestStream ingest_stream(options, thread_index);
  int64_t posts = 0;

  for (;;) {
    const int64_t want = NextBurst(options, thread_index, begin,
                                   stats->requests, options.pipeline);
    std::string body;
    std::string line;
    int64_t size = 0;
    while (size < want && ingest_stream.NextLine(&line)) {
      body += line;
      body += '\n';
      ++size;
    }
    if (size == 0) break;
    ++posts;
    // The verbatim retry is skipped when it would overrun --max-requests.
    const bool duplicate =
        options.dup_every > 0 && posts % options.dup_every == 0 &&
        2 * size <= RemainingShare(options, thread_index, stats->requests);
    // Each batch (and its optional verbatim duplicate) is retried through
    // 429 backpressure until the server commits it.
    for (int attempt = 0; attempt < 1 + (duplicate ? 1 : 0); ++attempt) {
      for (;;) {
        const double start = NowSeconds();
        if (!client->SendPost("/ingest", body)) {
          ++stats->errors;
          if (stats->first_error.empty()) stats->first_error = "send failed";
          return;
        }
        int status = 0;
        std::vector<std::pair<std::string, std::string>> headers;
        std::string response;
        if (!client->ReadResponse(&status, &headers, &response, &error)) {
          ++stats->errors;
          if (stats->first_error.empty()) stats->first_error = "read: " + error;
          return;
        }
        if (status == 429) {
          ++stats->shed;
          double retry_after_s = 0.05;
          for (const auto& [name, value] : headers) {
            if (name == "retry-after") retry_after_s = std::atof(value.c_str());
          }
          std::this_thread::sleep_for(std::chrono::duration<double>(
              std::min(retry_after_s, 1.0)));
          continue;
        }
        if (status != 200) {
          ++stats->errors;
          if (stats->first_error.empty()) {
            stats->first_error =
                "status " + std::to_string(status) + ": " + response;
          }
          return;
        }
        stats->requests += size;
        stats->acked += std::max<int64_t>(0, JsonInt(response, "acked"));
        stats->deduped += std::max<int64_t>(0, JsonInt(response, "deduped"));
        stats->latency_s.push_back(NowSeconds() - start);
        break;
      }
    }
  }
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank =
      std::min(sorted.size() - 1,
               static_cast<size_t>(q * static_cast<double>(sorted.size())));
  return sorted[rank];
}

using ClientLoop = void (*)(const Options&, int, HttpClient*, ThreadStats*);

/// Runs `loop` on --threads connected threads and returns their summed
/// stats with merged, sorted latencies, printing each thread's first error.
ThreadStats RunThreads(const Options& options, ClientLoop loop) {
  std::vector<ThreadStats> stats(static_cast<size_t>(options.threads));
  std::vector<std::thread> threads;
  for (int i = 0; i < options.threads; ++i) {
    threads.emplace_back([&options, loop, i, thread_stats = &stats[i]] {
      HttpClient client;
      std::string error;
      if (client.Connect(options.port, &error)) {
        loop(options, i, &client, thread_stats);
      } else {
        thread_stats->errors = 1;
        thread_stats->first_error = "connect: " + error;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ThreadStats sum;
  for (const ThreadStats& thread_stats : stats) {
    sum.requests += thread_stats.requests;
    sum.shed += thread_stats.shed;
    sum.errors += thread_stats.errors;
    sum.acked += thread_stats.acked;
    sum.deduped += thread_stats.deduped;
    sum.latency_s.insert(sum.latency_s.end(), thread_stats.latency_s.begin(),
                         thread_stats.latency_s.end());
    if (!thread_stats.first_error.empty()) {
      std::fprintf(stderr, "error: %s\n", thread_stats.first_error.c_str());
    }
  }
  std::sort(sum.latency_s.begin(), sum.latency_s.end());
  return sum;
}

/// Discovers the engine's address keyspace from /inventory; 0 (after
/// printing why) when it is unreachable or empty.
int64_t DiscoverAddressCount(int port) {
  int status = 0;
  std::string body;
  if (!HttpGetOnce(port, "/inventory", &status, &body) || status != 200) {
    std::fprintf(stderr, "error: /inventory on port %d failed (status %d)\n",
                 port, status);
    return 0;
  }
  const int64_t address_count = JsonInt(body, "count");
  if (address_count <= 0) {
    std::fprintf(stderr, "error: engine reports empty inventory: %s\n",
                 body.c_str());
  }
  return std::max<int64_t>(address_count, 0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const std::optional<dlinf::Flags> flags = dlinf::Flags::Parse(
      kFlags, std::span<char* const>(argv + 1, argc - 1), &error);
  if (!flags) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  Options options;
  options.port = flags->Int("--port", options.port);
  options.threads = flags->Int("--threads", options.threads);
  options.seconds = flags->Double("--seconds", options.seconds);
  options.pipeline = flags->Int("--pipeline", options.pipeline);
  options.batch = flags->Int("--batch", options.batch);
  options.max_requests = flags->Int("--max-requests", options.max_requests);
  options.ingest = flags->Has("--ingest");
  options.dup_every = flags->Int("--dup-every", options.dup_every);
  if (options.port <= 0) {
    std::fprintf(stderr, "error: --port P is required and must be > 0\n");
    return 2;
  }
  if (flags->Has("--world") && !options.ingest) {
    std::fprintf(stderr, "error: --world needs --ingest\n");
    return 2;
  }

  std::optional<dlinf::sim::World> world;
  if (flags->Has("--world")) {
    world = dlinf::io::LoadWorldArtifact(flags->Str("--world"), &error);
    if (!world) {
      std::fprintf(stderr, "error: cannot load world: %s\n", error.c_str());
      return 1;
    }
    options.world = &*world;
  }

  if (options.ingest) {
    std::printf("load_gen: ingest mode, %d threads, %d records/post%s%s\n",
                options.threads, options.pipeline,
                options.dup_every > 0
                    ? (", dup every " + std::to_string(options.dup_every))
                          .c_str()
                    : "",
                world ? (", " + std::to_string(world->trips.size()) +
                         " recorded trips")
                            .c_str()
                      : "");
  } else {
    options.address_count = DiscoverAddressCount(options.port);
    if (options.address_count == 0) return 2;
    std::printf("load_gen: %lld addresses, %d threads, pipeline %d%s\n",
                static_cast<long long>(options.address_count), options.threads,
                options.pipeline,
                options.batch > 0
                    ? (", batch " + std::to_string(options.batch)).c_str()
                    : "");
  }

  const double start = NowSeconds();
  const ThreadStats sum =
      RunThreads(options, options.ingest ? RunIngestClient : RunClient);
  const double wall = NowSeconds() - start;
  int64_t errors = sum.errors;
  // Every record sent must have been accounted for by the server — a
  // mismatch means an ack was lost or double-applied.
  if (options.ingest && sum.acked + sum.deduped != sum.requests) {
    std::fprintf(stderr,
                 "error: ack accounting mismatch: sent %lld, acked %lld + "
                 "deduped %lld\n",
                 static_cast<long long>(sum.requests),
                 static_cast<long long>(sum.acked),
                 static_cast<long long>(sum.deduped));
    ++errors;
  }
  // A run that completed nothing measured nothing; never pass it.
  if (sum.requests == 0) {
    std::fprintf(stderr, "error: no request completed in %.3g s\n",
                 options.seconds);
    ++errors;
  }
  const double rate =
      wall > 0.0 ? static_cast<double>(sum.requests) / wall : 0.0;
  const std::vector<double>& latency = sum.latency_s;
  if (options.ingest) {
    std::printf(
        "load_gen: ingest records=%lld acked=%lld deduped=%lld rps=%.0f "
        "p50_ms=%.3f p99_ms=%.3f shed=%lld errors=%lld\n",
        static_cast<long long>(sum.requests),
        static_cast<long long>(sum.acked), static_cast<long long>(sum.deduped),
        rate, Percentile(latency, 0.50) * 1e3, Percentile(latency, 0.99) * 1e3,
        static_cast<long long>(sum.shed), static_cast<long long>(errors));
  } else {
    std::printf(
        "load_gen: requests=%lld qps=%.0f p50_ms=%.3f p99_ms=%.3f "
        "p999_ms=%.3f shed=%lld errors=%lld\n",
        static_cast<long long>(sum.requests), rate,
        Percentile(latency, 0.50) * 1e3, Percentile(latency, 0.99) * 1e3,
        Percentile(latency, 0.999) * 1e3, static_cast<long long>(sum.shed),
        static_cast<long long>(errors));
  }
  return errors == 0 ? 0 : 1;
}
