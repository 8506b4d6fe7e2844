#include "apps/admin_routes.h"

#include <cmath>
#include <string_view>
#include <utility>

#include "common/string_util.h"
#include "obs/json_escape.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace_log.h"

namespace dlinf {
namespace apps {

namespace {

enum class Route { kMetrics, kVarz, kTracez, kProfilez, kHealthz };

/// The served routes; PathList() prints exactly this table.
constexpr std::pair<std::string_view, Route> kRoutes[] = {
    {"/metrics", Route::kMetrics},   {"/varz", Route::kVarz},
    {"/tracez", Route::kTracez},     {"/profilez", Route::kProfilez},
    {"/healthz", Route::kHealthz},
};

void ServeProfilez(const HttpRequest& request,
                   const HttpServer::ResponseHandle& handle) {
  double seconds = 2.0;
  int hz = 99;
  bool chrome = false;
  std::string value;
  // Absent (or empty) parameters keep their defaults; a malformed one is
  // refused rather than silently replaced. The capture clamps valid values
  // to its own range.
  if (request.QueryParam("seconds", &value) && !value.empty() &&
      !(ParseNumber(value, &seconds) && std::isfinite(seconds))) {
    handle.Respond(400, "text/plain", "malformed seconds parameter\n");
    return;
  }
  if (request.QueryParam("hz", &value) && !value.empty() &&
      !ParseNumber(value, &hz)) {
    handle.Respond(400, "text/plain", "malformed hz parameter\n");
    return;
  }
  if (request.QueryParam("format", &value)) chrome = value == "chrome";
  // The capture runs on its own thread and answers through the handle when
  // it finishes — the event loop keeps serving /metrics etc. meanwhile.
  const bool started = obs::prof::CaptureManager::Global().Begin(
      seconds, hz, chrome,
      [handle](int status, const std::string& content_type,
               const std::string& body) {
        handle.Respond(status, content_type, body);
      });
  if (!started) {
    handle.Respond(409, "text/plain",
                   "a profile capture is already running\n");
  }
}

}  // namespace

std::string AdminRoutes::PathList() {
  std::string list;
  for (const auto& [path, route] : kRoutes) {
    if (!list.empty()) list += ' ';
    list += path;
  }
  return list;
}

void AdminRoutes::AddHealthProvider(HealthProvider provider) {
  providers_.push_back(std::move(provider));
}

bool AdminRoutes::Handle(const HttpRequest& request,
                         const HttpServer::ResponseHandle& handle) const {
  for (const auto& [path, route] : kRoutes) {
    if (request.path != path) continue;
    static obs::Counter* const requests =
        obs::MetricsRegistry::Global().GetCounter("telemetry.http.requests");
    requests->Add(1);
    switch (route) {
      case Route::kMetrics:
        handle.Respond(200, "text/plain; version=0.0.4",
                       obs::MetricsRegistry::Global().SnapshotPrometheus());
        break;
      case Route::kVarz:
        handle.Respond(200, "application/json",
                       obs::MetricsRegistry::Global().SnapshotJson());
        break;
      case Route::kTracez:
        handle.Respond(200, "application/json",
                       obs::TraceLog::Global().ExportChromeJson());
        break;
      case Route::kProfilez:
        ServeProfilez(request, handle);
        break;
      case Route::kHealthz:
        ServeHealthz(handle);
        break;
    }
    return true;
  }
  return false;
}

void AdminRoutes::ServeHealthz(
    const HttpServer::ResponseHandle& handle) const {
  bool all_ok = true;
  std::string checks;
  for (const HealthProvider& provider : providers_) {
    const HealthCheck check = provider();
    all_ok = all_ok && check.ok;
    if (!checks.empty()) checks += ',';
    checks += "{\"name\":\"" + obs::JsonEscape(check.name) + "\",\"ok\":";
    checks += check.ok ? "true" : "false";
    if (check.generation.has_value()) {
      checks += ",\"generation\":" + std::to_string(*check.generation);
    }
    checks += ",\"detail\":\"" + obs::JsonEscape(check.detail) + "\"}";
  }
  std::string body = "{\"status\":\"";
  body += all_ok ? "ok" : "degraded";
  body += "\",\"checks\":[" + checks + "]}\n";
  handle.Respond(all_ok ? 200 : 503, "application/json", body);
}

void StopAdminServer(HttpServer* server) {
  if (server->running()) obs::prof::CaptureManager::Global().CancelAndJoin();
  server->Stop();
}

}  // namespace apps
}  // namespace dlinf
