#ifndef DLINF_APPS_ADMIN_ROUTES_H_
#define DLINF_APPS_ADMIN_ROUTES_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "apps/http_conn.h"

/// \file
/// The one admin surface (DESIGN.md §10). Every HTTP server in the repo
/// mounts the same `AdminRoutes`: the query engine and the ingest server.
/// An owner answers its own routes first, falls through to `Handle`, then
/// 404s, so its hot path dispatch is unchanged. The routes:
///
///   GET /metrics  Prometheus text exposition (format 0.0.4) of the global
///                 MetricsRegistry.
///   GET /varz     MetricsRegistry::SnapshotJson() (the same JSON the
///                 --metrics flag dumps).
///   GET /tracez   TraceLog::ExportChromeJson() — recent sampled trace
///                 events, loadable in Perfetto / chrome://tracing.
///   GET /profilez On-demand CPU-profile capture (DESIGN.md §15):
///                 `?seconds=N&hz=H` (default 2 s at 99 Hz) captures on a
///                 dedicated thread — the loop keeps answering meanwhile —
///                 and returns collapsed-stack text for flamegraph.pl;
///                 `&format=chrome` returns the samples merged with the
///                 TraceLog spans as one Chrome trace. 409 while another
///                 capture runs.
///   GET /healthz  One body schema for every server:
///                   {"status":"ok"|"degraded","checks":[{"name":"...",
///                    "ok":true,"generation":N,"detail":"..."},...]}
///                 one entry per health provider, in registration order
///                 ("generation" only from providers that have one). 200
///                 when every check is ok, 503 otherwise.
///
/// Every route but /profilez answers inline on the loop thread from
/// thread-safe snapshot calls. Requests answered here count in
/// `telemetry.http.requests`.

namespace dlinf {
namespace apps {

/// One /healthz check, as reported by a health provider.
struct HealthCheck {
  std::string name;
  bool ok = true;
  std::optional<uint64_t> generation;
  std::string detail;  ///< Short human-readable state; the reason when !ok.
};

/// Called on the loop thread per /healthz request; must be thread-safe
/// against whatever state it reads.
using HealthProvider = std::function<HealthCheck()>;

class AdminRoutes {
 public:
  /// The paths `Handle` answers, space-separated ("/metrics /varz ...") —
  /// the list startup banners and usage text print.
  static std::string PathList();

  /// Adds one /healthz check. Call before the owning server starts.
  void AddHealthProvider(HealthProvider provider);

  /// Answers `request` and returns true when its path is an admin route;
  /// returns false, leaving `handle` unanswered, otherwise.
  bool Handle(const HttpRequest& request,
              const HttpServer::ResponseHandle& handle) const;

 private:
  void ServeHealthz(const HttpServer::ResponseHandle& handle) const;

  std::vector<HealthProvider> providers_;
};

/// Stops `server`, first cancelling and joining any in-flight /profilez
/// capture: the capture answers through a ResponseHandle into the server's
/// loop, so it must not outlive it. Every owner of a server that mounts
/// AdminRoutes stops it through here. Idempotent, like HttpServer::Stop.
void StopAdminServer(HttpServer* server);

}  // namespace apps
}  // namespace dlinf

#endif  // DLINF_APPS_ADMIN_ROUTES_H_
