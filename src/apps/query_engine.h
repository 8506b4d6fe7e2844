#ifndef DLINF_APPS_QUERY_ENGINE_H_
#define DLINF_APPS_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/admin_routes.h"
#include "apps/bundle_manager.h"
#include "apps/http_conn.h"
#include "apps/location_service.h"
#include "apps/shard_router.h"
#include "obs/metrics.h"

/// \file
/// The sharded high-QPS query front end (DESIGN.md §11).
///
/// One epoll event loop (`HttpServer`, thread `qe.loop`) accepts
/// keep-alive/pipelined HTTP and answers `/query` + `/query_batch` to
/// completion inside the handler: route by consistent hash (`ShardRouter`),
/// look up, format, respond — no queue and no thread hop. A shard is what
/// clients and operators see: its slice of the key space, its own
/// `BundleManager` over the same bundle directory (so hot-reload — stage →
/// validate → swap/rollback — happens per shard, and `state()` is an atomic
/// load that a reload never blocks), its `service.shard.{hits,shed}`
/// counters, its `/healthz` check and the `"shard"` field of each answer.
///
/// **Request correlation**: `/query` and `/query_batch` accept an
/// `X-Request-Id` header (any string; numeric values are adopted as the
/// trace id directly, other strings are hashed, and a fresh splitmix64 id
/// is generated when the header is absent). The id is echoed back in the
/// response's `X-Request-Id` header and installed as the handler's
/// `TraceScope`, so a slow request joins across /tracez spans, structured
/// log `trace_id` fields and a captured CPU profile.
///
/// **Shedding contract**: when the `service.shard.overload` fault point
/// fires for a shard (once per `/query`, once per shard slice of a
/// `/query_batch`), the request is *not* dropped and the connection is
/// *not* closed — it is answered with the geocode-tier degraded answer, the
/// same lowest tier `DegradePolicy` falls back to when upper tiers fail.
/// Every query is always answered; shedding only changes which tier answers
/// and is visible in `"shed": true` and the `service.shard.shed` counters.
///
/// The engine serves `/query`, `/query_batch` and `/inventory`, then falls
/// through to the shared admin routes (apps/admin_routes.h) on the same
/// event loop, so a stalled or slow client can never delay a health scrape
/// (the slow-loris fix; see tests/query_engine_test.cc). `/healthz` carries
/// one check per shard (`shard.<i>`, with that shard's live generation),
/// not-ok while the shard runs on a rolled-back generation.

namespace dlinf {
namespace apps {

/// Sharded query engine: one event loop answering for N shards, each with
/// its own hot-reloading bundle.
class QueryEngine {
 public:
  struct Options {
    std::string bundle_dir;
    int num_shards = 4;
    int port = 0;  ///< 0 picks an ephemeral port.
    double idle_timeout_s = 30.0;
    /// Per-shard BundleManager tuning (`dir` is overridden by bundle_dir).
    BundleManager::Config bundle;
  };

  /// Aggregate outcome of one reload pass across every shard.
  struct ReloadSummary {
    int swapped = 0;
    int rolled_back = 0;
    int unchanged = 0;
  };

  /// Boots one BundleManager per shard from `options.bundle_dir`, builds
  /// the shard ring, binds the port and starts serving. nullptr (reason in
  /// `error`) when `num_shards` < 1, the bundle fails to load or the socket
  /// setup fails.
  static std::unique_ptr<QueryEngine> Create(const Options& options,
                                             std::string* error = nullptr);

  ~QueryEngine();
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Stops accepting and joins the event loop. Idempotent.
  void Stop();

  int port() const { return server_.port(); }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ShardRouter& router() const { return router_; }

  /// Runs BundleManager::Poll on every shard (control thread only).
  ReloadSummary PollShards(std::string* error = nullptr);

  /// Runs BundleManager::ReloadNow on every shard (control thread only).
  ReloadSummary ReloadShardsNow(std::string* error = nullptr);

  /// True while any shard serves an older generation than the last push
  /// (i.e. at least one shard rolled back and hasn't recovered).
  bool AnyShardDegraded() const;

  /// Shard `i`'s reload manager (tests and the serve loop).
  BundleManager* shard_manager(int shard) {
    return shards_[static_cast<size_t>(shard)].manager.get();
  }

  /// The exact JSON body `/query` serves for `address_id` answered by
  /// `shard`. Exposed so tests can derive the expected bytes from a direct
  /// `DeliveryLocationService::Query` answer and assert bit-identical
  /// engine output (doubles are printf's %.17g, written by std::to_chars —
  /// a lossless round-trip).
  static std::string FormatAnswerJson(
      int64_t address_id, const DeliveryLocationService::Answer& answer,
      int shard, bool shed);

 private:
  struct Shard {
    std::unique_ptr<BundleManager> manager;
    obs::Counter* hits = nullptr;  ///< service.shard.hits#shard=i
    obs::Counter* shed = nullptr;  ///< service.shard.shed#shard=i
  };

  QueryEngine() = default;

  /// PollShards and ReloadShardsNow: runs `reload` on every shard, tallies
  /// the outcomes and republishes the address count.
  ReloadSummary ReloadShards(
      BundleManager::ReloadOutcome (BundleManager::*reload)(std::string*),
      std::string* error);

  void Handle(const HttpRequest& request,
              const HttpServer::ResponseHandle& handle);
  void HandleQuery(const HttpRequest& request,
                   const HttpServer::ResponseHandle& handle);
  void HandleQueryBatch(const HttpRequest& request,
                        const HttpServer::ResponseHandle& handle);

  ShardRouter router_{1};
  std::vector<Shard> shards_;
  AdminRoutes admin_;
  HttpServer server_;
  std::atomic<int64_t> address_count_{0};  ///< Bounds check on every id.
};

}  // namespace apps
}  // namespace dlinf

#endif  // DLINF_APPS_QUERY_ENGINE_H_
