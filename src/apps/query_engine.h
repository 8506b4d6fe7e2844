#ifndef DLINF_APPS_QUERY_ENGINE_H_
#define DLINF_APPS_QUERY_ENGINE_H_

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
/// look up, format, respond — no queue and no thread hop. Every shard
/// answers from the one `BundleManager` the engine owns, so a boot or a
/// reload stages one generation. A request pins that state once (a
/// `/query_batch` once for the batch) and checks its ids against the pinned
/// world, so an id that passes is always inside the world that answers it.
/// A shard is what clients and operators see: its slice of the key space,
/// its `service.shard.{hits,shed}` counters, its `/healthz` check and the
/// `"shard"` field of each answer.
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
/// one check per shard (`shard.<i>`, with the live generation), not-ok
/// while the engine runs on a rolled-back generation.

namespace dlinf {
namespace apps {

/// Sharded query engine: one event loop answering for N shards from one
/// hot-reloading bundle.
class QueryEngine {
 public:
  struct Options {
    std::string bundle_dir;
    int num_shards = 4;
    int port = 0;  ///< 0 picks an ephemeral port.
    double idle_timeout_s = 30.0;
    /// BundleManager tuning (`dir` is overridden by bundle_dir).
    BundleManager::Config bundle;
  };

  /// Outcome of one reload, counted once per shard: every shard reads the
  /// one staged generation, so a swap reports `swapped == num_shards()`.
  struct ReloadSummary {
    int swapped = 0;
    int rolled_back = 0;
    int unchanged = 0;
  };

  /// Boots the engine's BundleManager from `options.bundle_dir`, builds
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

  /// Runs BundleManager::Poll once for all shards (control thread only).
  ReloadSummary PollShards(std::string* error = nullptr);

  /// Runs BundleManager::ReloadNow once for all shards (control thread only).
  ReloadSummary ReloadShardsNow(std::string* error = nullptr);

  /// True while the shards serve an older generation than the last push
  /// (a push rolled back and no later one has swapped).
  bool AnyShardDegraded() const { return manager_->reload_degraded(); }

  /// The reload manager every shard reads; the same one for every `shard`.
  BundleManager* shard_manager(int /*shard*/) { return manager_.get(); }

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
    obs::Counter* hits = nullptr;  ///< service.shard.hits#shard=i
    obs::Counter* shed = nullptr;  ///< service.shard.shed#shard=i
  };

  QueryEngine() = default;

  void Handle(const HttpRequest& request,
              const HttpServer::ResponseHandle& handle);
  void HandleQuery(const HttpRequest& request,
                   const HttpServer::ResponseHandle& handle);
  void HandleQueryBatch(const HttpRequest& request,
                        const HttpServer::ResponseHandle& handle);

  ShardRouter router_{1};
  std::unique_ptr<BundleManager> manager_;
  std::vector<Shard> shards_;
  AdminRoutes admin_;
  HttpServer server_;
};

}  // namespace apps
}  // namespace dlinf

#endif  // DLINF_APPS_QUERY_ENGINE_H_
