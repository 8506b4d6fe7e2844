// Admin-surface tests (DESIGN.md §10, apps/admin_routes.h).
//
// AdminContractTest holds every server that mounts AdminRoutes — a bare
// admin-only server, the QueryEngine and the IngestServer — to one
// contract: /metrics carries Prometheus TYPE lines, /varz is the JSON
// snapshot, /tracez the Chrome trace, /profilez captures (and refuses a
// concurrent capture with 409), /healthz is 200 until one of the server's
// checks reports not-ok and 503 until it recovers, and anything else 404s.
//
// TelemetryServerTest covers the bare server (an HttpServer whose handler
// is AdminRoutes::Handle, else 404): the exact /healthz body schema, stop/restart, port-in-use, and concurrent
// scrapes racing live metric updates (the case the TSan CI job cares
// about).

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/admin_routes.h"
#include "apps/http_conn.h"
#include "apps/query_engine.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "dlinfma/dlinfma_method.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "io/bundle.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace_log.h"
#include "scratch_dir.h"
#include "sim/generator.h"
#include "stream/ingest_server.h"

namespace dlinf {
namespace apps {
namespace {

using ::testing::TempDir;

/// A path in this test process's scratch directory (ctest runs cases in
/// parallel processes), removed at exit.
std::string Scratch(const std::string& name) {
  static const ScopedTempDir dir("admin_routes_test");
  return dir.Child(name);
}

/// A bare server that mounts only the admin routes.
struct Standalone {
  AdminRoutes admin;
  HttpServer server;

  ~Standalone() { StopAdminServer(&server); }

  bool Start(int port = 0, std::string* error = nullptr) {
    HttpServer::Options options;
    options.port = port;
    return server.Start(
        options,
        [this](const HttpRequest& request, HttpServer::ResponseHandle handle) {
          if (!admin.Handle(request, handle)) {
            handle.Respond(404, "text/plain", "not found\n");
          }
        },
        error);
  }
};

/// One server under the admin contract, with a way to make one of its
/// health checks report not-ok and to recover it.
class AdminTarget {
 public:
  virtual ~AdminTarget() = default;
  virtual int port() const = 0;
  virtual void Degrade() = 0;
  virtual void Recover() = 0;
};

class StandaloneTarget : public AdminTarget {
 public:
  StandaloneTarget() {
    endpoint_.admin.AddHealthProvider([this] {
      HealthCheck check;
      check.name = "test";
      check.ok = healthy_.load();
      return check;
    });
    std::string error;
    EXPECT_TRUE(endpoint_.Start(0, &error)) << error;
  }
  int port() const override { return endpoint_.server.port(); }
  void Degrade() override { healthy_.store(false); }
  void Recover() override { healthy_.store(true); }

 private:
  std::atomic<bool> healthy_{true};
  Standalone endpoint_;
};

/// A small trained bundle on disk, built once per test process.
const std::string& BundleDir() {
  static const std::string* dir = [] {
    sim::SimConfig config = sim::SynDowBJConfig();
    config.num_days = 2;
    config.num_communities = 3;
    const sim::World world = sim::GenerateWorld(config);
    const dlinfma::Dataset data = dlinfma::BuildDataset(world, {});
    const dlinfma::SampleSet samples = dlinfma::ExtractSamples(data, {});
    dlinfma::TrainConfig train_config;
    train_config.max_epochs = 1;
    train_config.early_stop_patience = 1;
    dlinfma::DlInfMaMethod method("DLInfMA", dlinfma::LocMatcherConfig{},
                                  train_config);
    method.Fit(data, samples);
    auto* path = new std::string(Scratch("bundle"));
    std::string error;
    CHECK(io::SaveBundle(*path, world, data, samples, method, &error))
        << error;
    return path;
  }();
  return *dir;
}

/// Degrades by rolling every shard back on a corrupt push.
class EngineTarget : public AdminTarget {
 public:
  EngineTarget() {
    QueryEngine::Options options;
    options.bundle_dir = BundleDir();
    options.num_shards = 2;
    std::string error;
    engine_ = QueryEngine::Create(options, &error);
    EXPECT_NE(engine_, nullptr) << error;
  }
  int port() const override { return engine_ ? engine_->port() : 0; }
  void Degrade() override {
    fault::ScopedFaultPlan armed(
        fault::FaultPlan().FailAlways("service.reload.corrupt"), 7);
    EXPECT_EQ(engine_->ReloadShardsNow().rolled_back, 2);
  }
  void Recover() override {
    EXPECT_EQ(engine_->ReloadShardsNow().swapped, 2);
  }

 private:
  std::unique_ptr<QueryEngine> engine_;
};

/// Degrades with a full disk: the POST is refused with 503 and stays so
/// until the disk has room and the retried POST acks.
class IngestTarget : public AdminTarget {
 public:
  IngestTarget() {
    sim::SimConfig config = sim::SynDowBJConfig();
    config.num_days = 1;
    config.num_communities = 3;
    stream::IngestServer::Options options;
    options.city = sim::GenerateWorld(config);
    options.city.trips.clear();
    options.wal.dir = Scratch("wal");
    server_ = std::make_unique<stream::IngestServer>(std::move(options));
    std::string error;
    EXPECT_TRUE(server_->Start(&error)) << error;
    EXPECT_TRUE(client_.Connect(server_->port()));
  }
  int port() const override { return server_->port(); }
  void Degrade() override {
    disk_full_ = std::make_unique<fault::ScopedFaultPlan>(
        fault::FaultPlan().FailAlways("wal.disk_full"), 7);
    EXPECT_EQ(Post(), 503);
  }
  void Recover() override {
    disk_full_.reset();
    EXPECT_EQ(Post(), 200);
  }

 private:
  int Post() {
    if (!client_.SendPost("/ingest", "start_trip c 1 1 0 100\n")) return -1;
    int status = 0;
    std::string body;
    return client_.ReadResponse(&status, &body) ? status : -1;
  }

  std::unique_ptr<stream::IngestServer> server_;
  HttpClient client_;
  std::unique_ptr<fault::ScopedFaultPlan> disk_full_;
};

struct TargetParam {
  const char* name;
  std::function<std::unique_ptr<AdminTarget>()> make;
};

void PrintTo(const TargetParam& param, std::ostream* os) { *os << param.name; }

class AdminContractTest : public ::testing::TestWithParam<TargetParam> {
 protected:
  void SetUp() override {
    target_ = GetParam().make();
    ASSERT_GT(target_->port(), 0);
  }

  /// GET `path`; the status, or -1 on transport failure.
  int Get(const std::string& path, std::string* body = nullptr) {
    int status = 0;
    std::string response;
    if (!HttpGetOnce(target_->port(), path, &status, &response)) return -1;
    if (body != nullptr) *body = response;
    return status;
  }

  std::unique_ptr<AdminTarget> target_;
};

TEST_P(AdminContractTest, ServesMetrics) {
  obs::MetricsRegistry::Global().GetCounter("admin_test.requests")->Add(3);
  obs::MetricsRegistry::Global()
      .GetHistogram("admin_test.latency")
      ->Observe(0.01);
  std::string body;
  ASSERT_EQ(Get("/metrics", &body), 200);
  EXPECT_NE(body.find("# TYPE admin_test_requests counter"),
            std::string::npos);
  EXPECT_NE(body.find("\nadmin_test_requests "), std::string::npos);
  EXPECT_NE(body.find("# TYPE admin_test_latency histogram"),
            std::string::npos);
  EXPECT_NE(body.find("admin_test_latency_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(body.find("admin_test_latency_count"), std::string::npos);
}

TEST_P(AdminContractTest, VarzAndTracezAreServed) {
  obs::TraceLog::Global().Start(1.0);
  obs::TraceInstant("admin_test.mark");
  std::string body;
  ASSERT_EQ(Get("/varz", &body), 200);
  EXPECT_EQ(body.rfind("{", 0), 0u) << body;
  EXPECT_NE(body.find("\"counters\""), std::string::npos);

  ASSERT_EQ(Get("/tracez", &body), 200);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("admin_test.mark"), std::string::npos);
  obs::TraceLog::Global().Stop();
}

TEST_P(AdminContractTest, ProfilezCapturesAndRefusesAConcurrentCapture) {
  // CPU for the capture to sample.
  std::atomic<bool> stop_spin{false};
  std::thread spinner([&stop_spin] {
    obs::prof::RegisterCurrentThread("admin_test.spin");
    volatile uint64_t sink = 0;
    uint64_t x = 1;
    while (!stop_spin.load(std::memory_order_relaxed)) {
      x ^= x << 13;
      x ^= x >> 7;
      sink = sink + x;
    }
  });

  HttpClient first;
  ASSERT_TRUE(first.Connect(target_->port()));
  ASSERT_TRUE(first.SendGet("/profilez?seconds=1&hz=200"));
  // Once the profiler is armed the first capture is running; a second one
  // is refused, not queued.
  for (int i = 0; i < 5000 && !obs::prof::ProfilingArmed(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(obs::prof::ProfilingArmed());
  EXPECT_EQ(Get("/profilez?seconds=0.1"), 409);

  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  ASSERT_TRUE(first.ReadResponse(&status, &headers, &body));
  EXPECT_EQ(status, 200);
  bool folded_text = false;
  for (const auto& [name, value] : headers) {
    if (name == "content-type") folded_text = value == "text/plain";
  }
  EXPECT_TRUE(folded_text);
  EXPECT_NE(body.find("admin_test.spin;"), std::string::npos) << body;

  stop_spin.store(true);
  spinner.join();
}

TEST_P(AdminContractTest, ProfilezRejectsMalformedParameters) {
  // Each row is refused up front with a 400 naming the parameter; none
  // starts a capture.
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"/profilez?seconds=abc&hz=zz", "seconds"},
      {"/profilez?seconds=nan", "seconds"},
      {"/profilez?seconds=inf", "seconds"},
      {"/profilez?seconds=1s", "seconds"},
      {"/profilez?seconds=0.1&hz=zz", "hz"},
      {"/profilez?hz=1.5", "hz"},
      {"/profilez?hz=99999999999", "hz"},
  };
  for (const auto& [path, parameter] : rows) {
    std::string body;
    EXPECT_EQ(Get(path, &body), 400) << path;
    EXPECT_NE(body.find("malformed " + parameter), std::string::npos)
        << path << ": " << body;
  }
  EXPECT_FALSE(obs::prof::ProfilingArmed());
}

TEST_P(AdminContractTest, HealthzFollowsItsChecks) {
  std::string body;
  ASSERT_EQ(Get("/healthz", &body), 200);
  EXPECT_EQ(body.rfind("{\"status\":\"ok\",\"checks\":[{\"name\":", 0), 0u)
      << body;

  target_->Degrade();
  ASSERT_EQ(Get("/healthz", &body), 503);
  EXPECT_EQ(body.rfind("{\"status\":\"degraded\",\"checks\":[", 0), 0u)
      << body;
  EXPECT_NE(body.find("\"ok\":false"), std::string::npos) << body;

  target_->Recover();
  ASSERT_EQ(Get("/healthz", &body), 200);
  EXPECT_EQ(body.find("\"ok\":false"), std::string::npos) << body;
}

TEST_P(AdminContractTest, UnknownPathIs404) {
  EXPECT_EQ(Get("/nope"), 404);
  EXPECT_EQ(Get("/metricsz"), 404);
}

INSTANTIATE_TEST_SUITE_P(
    AllServers, AdminContractTest,
    ::testing::Values(
        TargetParam{"Standalone",
                    [] { return std::make_unique<StandaloneTarget>(); }},
        TargetParam{"QueryEngine",
                    [] { return std::make_unique<EngineTarget>(); }},
        TargetParam{"IngestServer",
                    [] { return std::make_unique<IngestTarget>(); }}));

TEST(TelemetryServerTest, HealthzRendersProviderVerdict) {
  Standalone endpoint;
  ASSERT_TRUE(endpoint.Start());
  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGetOnce(endpoint.server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "{\"status\":\"ok\",\"checks\":[]}\n");
  StopAdminServer(&endpoint.server);

  // Checks render in registration order; "generation" only where the
  // provider has one; the detail is JSON-escaped.
  std::atomic<bool> healthy{true};
  endpoint.admin.AddHealthProvider([&healthy] {
    HealthCheck check;
    check.name = "bundle";
    check.ok = healthy.load();
    check.generation = 7;
    check.detail = check.ok ? "serving" : "rolled back\n\"gen 6\"";
    return check;
  });
  endpoint.admin.AddHealthProvider([] {
    HealthCheck check;
    check.name = "wal";
    return check;
  });
  ASSERT_TRUE(endpoint.Start());
  const int port = endpoint.server.port();
  ASSERT_TRUE(HttpGetOnce(port, "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body,
            "{\"status\":\"ok\",\"checks\":["
            "{\"name\":\"bundle\",\"ok\":true,\"generation\":7,"
            "\"detail\":\"serving\"},"
            "{\"name\":\"wal\",\"ok\":true,\"detail\":\"\"}]}\n");

  healthy.store(false);
  ASSERT_TRUE(HttpGetOnce(port, "/healthz", &status, &body));
  EXPECT_EQ(status, 503);
  EXPECT_EQ(body,
            "{\"status\":\"degraded\",\"checks\":["
            "{\"name\":\"bundle\",\"ok\":false,\"generation\":7,"
            "\"detail\":\"rolled back\\n\\\"gen 6\\\"\"},"
            "{\"name\":\"wal\",\"ok\":true,\"detail\":\"\"}]}\n");

  healthy.store(true);
  ASSERT_TRUE(HttpGetOnce(port, "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
}

TEST(TelemetryServerTest, StopIsIdempotentAndAllowsRestart) {
  Standalone endpoint;
  ASSERT_TRUE(endpoint.Start());
  const int first_port = endpoint.server.port();
  StopAdminServer(&endpoint.server);
  StopAdminServer(&endpoint.server);  // Idempotent.
  EXPECT_FALSE(endpoint.server.running());
  int status = 0;
  std::string body;
  EXPECT_FALSE(HttpGetOnce(first_port, "/healthz", &status, &body));

  ASSERT_TRUE(endpoint.Start());
  ASSERT_TRUE(HttpGetOnce(endpoint.server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
}

TEST(TelemetryServerTest, PortInUseFailsWithError) {
  Standalone first;
  ASSERT_TRUE(first.Start());
  Standalone second;
  std::string error;
  EXPECT_FALSE(second.Start(first.server.port(), &error));
  EXPECT_FALSE(error.empty());

  // Ports a sockaddr_in cannot hold fail the same way; cast unchecked,
  // 70000 would bind 4464 and -1 would bind 65535.
  for (const int port : {70000, -1}) {
    error.clear();
    EXPECT_FALSE(second.Start(port, &error)) << port;
    EXPECT_EQ(error, "port " + std::to_string(port) + " outside [0, 65535]");
  }
}

TEST(TelemetryServerTest, ClientRejectsOutOfRangePort) {
  for (const int port : {0, 70000, -1}) {
    HttpClient client;
    std::string error;
    EXPECT_FALSE(client.Connect(port, &error)) << port;
    EXPECT_EQ(error, "port " + std::to_string(port) + " outside [1, 65535]");
  }
}

TEST(TelemetryServerTest, ConcurrentScrapesRaceLiveUpdates) {
  // Several scraper threads hammer every endpoint while a writer thread
  // mutates the registry and trace ring — the serve-under-load shape the
  // sanitizer CI jobs run. Every request must complete with a 200.
  obs::TraceLog::Global().Start(1.0);
  Standalone endpoint;
  ASSERT_TRUE(endpoint.Start());
  const int port = endpoint.server.port();

  constexpr int kScrapers = 4;
  constexpr int kRequestsPerScraper = 25;
  std::atomic<int> failures{0};
  std::atomic<bool> stop_writer{false};
  std::thread writer([&stop_writer] {
    obs::Histogram* histogram =
        obs::MetricsRegistry::Global().GetHistogram("telemetry_test.race");
    int i = 0;
    while (!stop_writer.load()) {
      histogram->Observe(1e-4 * (i % 100));
      obs::TraceInstant("race.mark");
      ++i;
    }
  });
  {
    ThreadPool pool(kScrapers);
    const char* paths[] = {"/metrics", "/healthz", "/varz", "/tracez"};
    for (int t = 0; t < kScrapers; ++t) {
      pool.Submit([port, t, &paths, &failures] {
        for (int i = 0; i < kRequestsPerScraper; ++i) {
          int status = 0;
          std::string body;
          if (!HttpGetOnce(port, paths[(t + i) % 4], &status, &body) ||
              status != 200 || body.empty()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    pool.Wait();
  }
  stop_writer.store(true);
  writer.join();
  StopAdminServer(&endpoint.server);
  obs::TraceLog::Global().Stop();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace apps
}  // namespace dlinf
