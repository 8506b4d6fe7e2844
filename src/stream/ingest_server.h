#ifndef DLINF_STREAM_INGEST_SERVER_H_
#define DLINF_STREAM_INGEST_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "apps/admin_routes.h"
#include "apps/http_conn.h"
#include "dlinfma/candidate_generation.h"
#include "sim/world.h"
#include "stream/stream_pipeline.h"
#include "stream/wal.h"
#include "traj/trajectory.h"

/// \file
/// Durable network ingestion front end (DESIGN.md §14): an HTTP/1.1
/// `POST /ingest` endpoint that appends every accepted record to the
/// write-ahead log of wal.h *before* acking, then feeds StreamIngestor —
/// so a SIGKILL'd node restarts, replays the WAL, and resumes with zero
/// acked-record loss.
///
/// ## Record protocol
///
/// A POST body carries one or more newline-separated records:
///
///   start_trip <client> <seq> <courier_id> <t0> <t1> [wb=<id>:<addr>:<recv>:<rec>:<act> ...]
///   point <client> <seq> <x> <y> <t>
///   finish_trip <client> <seq>
///
/// `<client>` names a producer; `<seq>` is its strictly monotonic record
/// counter starting at 1. Trips from different clients interleave freely;
/// within a client records follow the trip lifecycle (start → points →
/// finish). Each POST is a transaction:
///
///   200  every fresh record WAL-committed and applied; body reports
///        {"acked":n,"deduped":m}. A retried POST whose records were all
///        committed before is an exact no-op: 200 with acked=0.
///   400  malformed record, or a record whose wire form exceeds the WAL
///        record limit (`WalOptions::max_record_bytes`) — nothing applied.
///   409  sequence gap (seq beyond last+1) or trip-lifecycle violation —
///        nothing applied. Gaps are rejected, not buffered: the producer
///        owns ordering (`ingest.reorder` injects this branch).
///   429  bounded ingest queue full (shed *before* any work), or the
///        tracked-client cap is reached with every client mid-trip
///        (rejected, reason=client_cap). Both carry a Retry-After header.
///        Never blocks the event loop, never silent.
///   503  WAL append failed (wal.{write_fail,disk_full,torn_write,
///        fsync_fail}) — dedup state unchanged, the retry is safe.
///
/// ## Client cardinality
///
/// Per-client dedup state is bounded by `Options::max_clients`. Admitting a
/// new client_id past the cap evicts the longest-idle client with no open
/// trip (counter `stream.ingest.clients_evicted`); if every tracked client
/// is mid-trip the batch is rejected with 429. Eviction drops dedup state
/// only: a retry from an evicted client gets a typed 409 sequence-gap,
/// never a silent double-apply. The cap also bounds snapshot size — the
/// trust model is that producers do not cycle client_ids adversarially; if
/// they do, the cost is their own 409s, not server memory.
///
/// ## Durability & recovery
///
/// Fresh records of a batch are framed and handed to a single write(2)
/// before the 200 goes out (WalWriter's contract). On Start() the server
/// loads the newest state snapshot (if any), replays WAL segments past the
/// snapshot's covered index through the same apply path, truncates any torn
/// tail (WalWriter::Open), and only then begins serving. Snapshots are
/// written at segment-rotation boundaries every `snapshot_every_segments`
/// rotations; segments covered by a persisted snapshot are retired.
///
/// ## Admin routes
///
/// `GET /ingest/stats` returns the Stats below as JSON; every other path
/// falls through to the shared admin routes (apps/admin_routes.h), then
/// 404s. The `/healthz` check `ingest.wal` is not-ok from a failed WAL
/// append until the next successful one, with the WAL error as its detail,
/// so the health check answers 503 exactly while POSTs do. A full queue
/// stays out of health: it is already a typed 429 with Retry-After, and
/// flipping health on it would make the check flap.
///
/// ## Threading
///
/// The epoll loop thread only parses, sheds, or enqueues; a single writer
/// thread owns the WAL, the StreamIngestor and the dedup table, applies
/// batches in arrival order (= WAL order, = recovery replay order — the
/// bit-identical anchor), and completes responses through ResponseHandle.
///
/// Counters: `stream.ingest.{received,acked,deduped,shed,recovered,
/// batches,trips_completed,clients_evicted}`, `stream.ingest.rejected#
/// reason=<malformed|gap|protocol|oversized|client_cap|wal>`, histogram
/// `stream.ingest.ack_seconds`, plus the `wal.*` family from wal.h.

namespace dlinf {
namespace stream {

/// One parsed ingest record (see the protocol grammar above).
struct IngestRecord {
  enum class Kind : uint32_t {
    kStartTrip = 1,
    kPoint = 2,
    kFinishTrip = 3,
  };

  Kind kind = Kind::kPoint;
  std::string client_id;
  uint64_t seq = 0;

  // kStartTrip fields.
  int64_t courier_id = 0;
  double start_time = 0.0;
  double end_time = 0.0;
  std::vector<sim::Waybill> waybills;

  // kPoint fields.
  double x = 0.0;
  double y = 0.0;
  double t = 0.0;
};

/// Parses one protocol line. False (reason in *error) on any syntax
/// problem; never throws, never aborts.
bool ParseIngestLine(const std::string& line, IngestRecord* record,
                     std::string* error);

/// Canonical wire form of a record. Doubles are printed with %.17g so
/// Format → Parse round-trips bit-exactly (the WAL stores these lines).
std::string FormatIngestLine(const IngestRecord& record);

/// The protocol lines that stream one recorded trip from producer
/// `client`: start_trip with its waybills, one point per trajectory fix,
/// then finish_trip. Each line takes the next sequence number from *seq.
std::vector<std::string> TripLines(const std::string& client,
                                   const sim::DeliveryTrip& trip,
                                   uint64_t* seq);

/// A POST /ingest body: every line newline-terminated.
std::string JoinLines(const std::vector<std::string>& lines);

class IngestServer {
 public:
  struct Options {
    int port = 0;  ///< 127.0.0.1 TCP port; 0 picks one (see port()).
    WalOptions wal;
    /// Static side of the world (station, communities, buildings,
    /// addresses, couriers); streamed trips land on top of it.
    sim::World city;
    dlinfma::CandidateGeneration::Options candidates;
    /// Records admitted to the ingest queue before POSTs shed with 429.
    uint64_t max_queue_records = 4096;
    int retry_after_s = 1;  ///< Retry-After header value on 429.
    /// Client_ids tracked for dedup before idle clients are evicted (and,
    /// when none is evictable, new-client batches rejected with 429).
    /// 0 disables the cap. Bounds dedup memory and snapshot size.
    uint64_t max_clients = 4096;
    /// Write a state snapshot (and retire covered segments) every this
    /// many segment rotations; 0 disables snapshots + retention.
    uint64_t snapshot_every_segments = 0;
    double idle_timeout_s = 30.0;
  };

  /// Monotonic server totals, all in records unless noted.
  struct Stats {
    int64_t received = 0;   ///< Parsed records admitted to the queue.
    int64_t acked = 0;      ///< Fresh records WAL-committed and applied.
    int64_t deduped = 0;    ///< Retried records acked as no-ops.
    int64_t shed = 0;       ///< Records turned away with 429 (queue full).
    int64_t rejected = 0;   ///< Records in 400/409/429-cap/503 batches.
    int64_t recovered = 0;  ///< Records replayed from snapshot+WAL at Start.
    int64_t batches = 0;    ///< POSTs fully processed (any status).
    int64_t trips = 0;      ///< finish_trip records applied (incl. recovery).
  };

  explicit IngestServer(Options options);
  ~IngestServer();
  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Recovers state from snapshot + WAL, opens the WAL for append, binds
  /// the port and starts serving. False with a typed reason on any failure
  /// (unreadable WAL dir, corrupt snapshot, port in use).
  bool Start(std::string* error = nullptr);

  /// Graceful: stops accepting, drains the queue, fsyncs + closes the WAL.
  void Stop();

  /// Simulates SIGKILL: serving and the writer halt immediately, queued
  /// batches are dropped unacked, the WAL fd is abandoned without fsync or
  /// truncation (bytes already written survive, a torn tail may remain).
  void CrashForTest();

  int port() const { return http_.port(); }
  bool running() const { return running_; }
  Stats stats() const;

  /// Blocks until the ingest queue is empty and the writer is idle (test
  /// sync point). False on timeout.
  bool WaitIdle(double timeout_s);

  /// The ingested state. Only valid while no writer thread runs (before
  /// Start or after Stop/CrashForTest) — the writer owns it otherwise.
  const StreamIngestor& ingestor() const { return *ingestor_; }

  /// Path of the state snapshot artifact inside the WAL dir.
  static std::string SnapshotPath(const std::string& wal_dir);

 private:
  struct ClientState {
    uint64_t last_seq = 0;
    bool trip_open = false;
    uint64_t last_active = 0;        ///< activity_clock_ at the last apply.
    sim::DeliveryTrip pending;       ///< Metadata while a trip is open.
    std::vector<TrajPoint> points;   ///< Buffered fixes of the open trip.
  };

  struct Batch {
    std::vector<IngestRecord> records;
    apps::HttpServer::ResponseHandle handle;
    double enqueue_monotonic_s = 0.0;
  };

  void HandleRequest(const apps::HttpRequest& request,
                     apps::HttpServer::ResponseHandle handle);
  void WriterLoop();
  void ProcessBatch(Batch* batch);
  /// Applies one WAL-committed record to the dedup table, pending-trip
  /// buffers and (on finish_trip) the ingestor. Shared by the live path
  /// and recovery replay.
  void ApplyRecord(const IngestRecord& record);
  bool RecoverState(std::string* error);
  bool WriteSnapshot(uint64_t covered_segment, std::string* error);
  void MaybeSnapshot();
  std::string StatsJson() const;
  /// The `ingest.wal` /healthz check (loop thread).
  apps::HealthCheck WalHealth() const;

  Options options_;
  apps::AdminRoutes admin_;
  apps::HttpServer http_;
  std::unique_ptr<StreamIngestor> ingestor_;
  std::optional<WalWriter> wal_;
  std::unordered_map<std::string, ClientState> clients_;
  uint64_t activity_clock_ = 0;  ///< Writer-thread LRU tick for eviction.
  int64_t last_covered_segment_ = -1;  ///< Newest segment a snapshot covers.
  bool running_ = false;

  std::thread writer_;
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::condition_variable idle_cv_;
  std::deque<Batch> queue_;
  bool writer_stop_ = false;       ///< Drain, then exit (Stop).
  bool writer_crashed_ = false;    ///< Exit now, drop the queue (crash).
  bool writer_busy_ = false;
  std::atomic<int64_t> queue_records_{0};

  // Stats mirrors (writer/loop threads write, any thread reads).
  std::atomic<int64_t> received_{0};
  std::atomic<int64_t> acked_{0};
  std::atomic<int64_t> deduped_{0};
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> recovered_{0};
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> trips_{0};
  std::atomic<int64_t> tracked_clients_{0};

  // WAL health: set by the writer when an append fails, cleared by the
  // next successful append, read by the /healthz check.
  std::atomic<bool> wal_failing_{false};
  mutable std::mutex wal_error_mu_;
  std::string wal_error_;  ///< Guarded by wal_error_mu_.
};

}  // namespace stream
}  // namespace dlinf

#endif  // DLINF_STREAM_INGEST_SERVER_H_
