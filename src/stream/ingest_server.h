#ifndef DLINF_STREAM_INGEST_SERVER_H_
#define DLINF_STREAM_INGEST_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
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
///   400  malformed record, a start_trip whose waybill names an address
///        outside `Options::city` (counted as malformed), or a record
///        whose wire form exceeds the WAL record limit
///        (`WalOptions::max_record_bytes`) — nothing applied.
///   409  sequence gap (seq beyond last+1) or trip-lifecycle violation —
///        nothing applied. Gaps are rejected, not buffered: the producer
///        owns ordering (`ingest.reorder` injects this branch).
///   429  the tracked-client cap is reached with every client mid-trip
///        (rejected, reason=client_cap), with a Retry-After header.
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
/// before the 200 goes out (WalWriter's contract). A frame holds the line
/// as received, less a trailing '\r': producers that send the canonical
/// form (`TripLines`) get exactly FormatIngestLine's bytes, and any other
/// spelling the parser accepts (runs of spaces, `\r\n`) parses back to the
/// same record on recovery. On Start() the server loads the newest state
/// snapshot (if any), replays WAL segments past the snapshot's covered
/// index through the same apply path, truncates any torn tail
/// (WalWriter::Open), and only then begins serving. A WAL `start_trip`
/// whose waybill names an address outside the city (acked by a binary that
/// predates that 400) never aborts recovery: the trip it opens is skipped
/// whole, its records still advance the client's sequence, and each such
/// record is logged, counted (`stream.recover.rejected`) and shown in the
/// `ingest.wal` health detail. Snapshots are written
/// at segment-rotation boundaries every `snapshot_every_segments`
/// rotations; segments covered by a persisted snapshot are retired.
///
/// ## Admin routes
///
/// `GET /ingest/stats` returns the Stats below as JSON; every other path
/// falls through to the shared admin routes (apps/admin_routes.h), then
/// 404s. The `/healthz` check `ingest.wal` is not-ok from a failed WAL
/// append until the next successful one, with the WAL error as its detail,
/// so the health check answers 503 exactly while POSTs do.
///
/// ## Threading
///
/// Everything runs on the one `ingest.loop` event-loop thread: each POST is
/// parsed, classified, WAL-committed, applied and answered inside its
/// handler, so arrival order = WAL order = apply order = recovery replay
/// order (the bit-identical anchor) without a queue. There is no ingest
/// queue to shed from: a producer that outruns the loop is slowed by TCP
/// backpressure, and an fsync (`WalOptions::fsync_every_n`/`_interval_s`)
/// delays every connection on the port while it runs. An online retrain
/// round (`Options::trainer`) runs on the loop too, between two records,
/// and holds up ingest for as long as it trains and publishes.
///
/// Counters: `stream.ingest.{received,acked,deduped,recovered,batches,
/// trips_completed,clients_evicted}`, `stream.ingest.rejected#
/// reason=<malformed|gap|protocol|oversized|client_cap|wal>`, histogram
/// `stream.ingest.ack_seconds`, plus the `wal.*` family from wal.h.

namespace dlinf {
namespace stream {

class OnlineTrainer;

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

/// The record lines of a POST /ingest body: split on '\n', one trailing
/// '\r' stripped from each, empty lines skipped. Views into `body`.
std::vector<std::string_view> IngestBodyLines(std::string_view body);

/// Parses one protocol line. Tokens are separated by runs of spaces, and a
/// waybill's fields by runs of ':'. False (reason in *error) on any syntax
/// problem; never throws, never aborts.
bool ParseIngestLine(std::string_view line, IngestRecord* record,
                     std::string* error);

/// Canonical wire form of a record. Doubles are printed as printf's %.17g
/// (AppendDouble) so Format → Parse round-trips bit-exactly (TripLines
/// sends these lines, and the WAL keeps them as received).
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
    int retry_after_s = 1;  ///< Retry-After header value on 429.
    /// Client_ids tracked for dedup before idle clients are evicted (and,
    /// when none is evictable, new-client batches rejected with 429).
    /// 0 disables the cap. Bounds dedup memory and snapshot size.
    uint64_t max_clients = 4096;
    /// Write a state snapshot (and retire covered segments) every this
    /// many segment rotations; 0 disables snapshots + retention.
    uint64_t snapshot_every_segments = 0;
    double idle_timeout_s = 30.0;
    /// Online learning (DESIGN.md §13), off unless both are set: with a
    /// borrowed `trainer` and `retrain_every_trips` N > 0, a round runs
    /// `trainer->Retrain` over the ingestor's snapshot right after each
    /// live finish_trip that makes Stats::trips a multiple of N. That
    /// record is WAL-committed by then. Recovery replay never runs a round.
    OnlineTrainer* trainer = nullptr;
    int64_t retrain_every_trips = 0;
  };

  /// Monotonic server totals, all in records unless noted.
  struct Stats {
    int64_t received = 0;   ///< Records of well-formed, non-empty POSTs.
    int64_t acked = 0;      ///< Fresh records WAL-committed and applied.
    int64_t deduped = 0;    ///< Retried records acked as no-ops.
    int64_t rejected = 0;   ///< Records in 400/409/429-cap/503 batches.
    int64_t recovered = 0;  ///< Records replayed from snapshot+WAL at Start.
    /// WAL start_trip records whose trip recovery skipped (see above).
    int64_t recover_rejected = 0;
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

  /// Graceful: stops serving (a POST in its handler finishes first), then
  /// fsyncs + closes the WAL.
  void Stop();

  /// Simulates SIGKILL: serving halts, unanswered requests get no answer,
  /// and the WAL fd is abandoned without fsync or truncation (bytes already
  /// written survive, a torn tail may remain).
  void CrashForTest();

  int port() const { return http_.port(); }
  bool running() const { return running_; }
  Stats stats() const;

  /// The ingested state. Only valid while the loop does not run (before
  /// Start or after Stop/CrashForTest) — the loop owns it otherwise.
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
    /// The open trip was skipped at recovery: its fixes are not buffered
    /// and its finish applies nothing.
    bool skip_trip = false;
  };

  void HandleRequest(const apps::HttpRequest& request,
                     apps::HttpServer::ResponseHandle handle);
  /// Classifies, WAL-commits, applies and answers one parsed POST;
  /// `lines[i]` is the received line of `(*records)[i]`.
  void HandleIngest(std::vector<IngestRecord>* records,
                    const std::vector<std::string_view>& lines,
                    const apps::HttpServer::ResponseHandle& handle,
                    double start_s);
  /// Applies one WAL-committed record to the dedup table, pending-trip
  /// buffers and (on finish_trip) the ingestor, moving its waybills out.
  /// Shared by the live path and recovery replay.
  void ApplyRecord(IngestRecord* record);
  /// Runs a retrain round when the trip count just reached a multiple of
  /// `Options::retrain_every_trips` (live path only).
  void MaybeRetrain();
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
  uint64_t activity_clock_ = 0;  ///< Loop-thread LRU tick for eviction.
  int64_t last_covered_segment_ = -1;  ///< Newest segment a snapshot covers.
  bool running_ = false;
  /// Set by a failed WAL append, cleared by the next successful one, read
  /// by the /healthz check (loop thread only).
  std::optional<std::string> wal_error_;

  // Stats mirrors (the loop writes, any thread reads).
  std::atomic<int64_t> received_{0};
  std::atomic<int64_t> acked_{0};
  std::atomic<int64_t> deduped_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> recovered_{0};
  std::atomic<int64_t> recover_rejected_{0};
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> trips_{0};
};

}  // namespace stream
}  // namespace dlinf

#endif  // DLINF_STREAM_INGEST_SERVER_H_
