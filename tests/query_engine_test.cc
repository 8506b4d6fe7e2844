// Deterministic concurrency tests for the sharded query engine
// (src/apps/query_engine.h, DESIGN.md §11). The harness drives the real
// epoll server over loopback with N client threads issuing pipelined
// keep-alive requests against a fixed-seed bundle, and asserts:
//  - bit-identical answers vs a direct DeliveryLocationService::Query on
//    the same bundle (the engine adds transport, never drift);
//  - shard-routing stability: the same key maps to the same shard across
//    router instances and full engine restarts;
//  - exact service.shard.* counter cross-checks (hits + shed == queries
//    issued, per-shard hits == keys routed there);
//  - the shedding contract (overload answers degraded, never drops);
//  - rollback → /healthz degradation → recovery, under live /query load
//    and a /healthz prober;
//  - one staged generation per push: every shard reads the same state, and
//    every id below /inventory's count answers after a push grows the
//    world;
//  - the slow-loris fix: a stalled connection cannot delay /healthz;
//  - a shard count below 1 is a typed error, never an abort;
//  - /query_batch rejects every id /query rejects;
//  - every answer, error paths included, echoes X-Request-Id;
//  - one pipelined burst mixing routes answers in order;
//  - answer doubles are byte-equal to printf's %.17g.
// The whole file runs under TSan in CI.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "apps/bundle_manager.h"
#include "apps/query_engine.h"
#include "apps/shard_router.h"
#include "common/check.h"
#include "dlinfma/dlinfma_method.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "io/bundle.h"
#include "obs/metrics.h"
#include "scratch_dir.h"
#include "sim/generator.h"

namespace dlinf {
namespace apps {
namespace {

using ::testing::TempDir;

int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

/// One small trained pipeline saved as an on-disk bundle (fixed seed via
/// SynDowBJConfig), shared by every test in this binary.
struct EngineFixture {
  EngineFixture() {
    sim::SimConfig config = sim::SynDowBJConfig();
    config.num_days = 3;
    config.num_communities = 5;
    world = sim::GenerateWorld(config);
    data = dlinfma::BuildDataset(world, {});
    samples = dlinfma::ExtractSamples(data, {});
    dlinfma::TrainConfig train_config;
    train_config.max_epochs = 2;
    train_config.early_stop_patience = 2;
    method = std::make_unique<dlinfma::DlInfMaMethod>(
        "DLInfMA", dlinfma::LocMatcherConfig{}, train_config);
    method->Fit(data, samples);
    // Pid suffix keeps concurrent `ctest -j` test processes (one per gtest
    // case) from writing the same bundle directory at the same time. The
    // fixture is never destroyed; the directory goes at exit.
    static const ScopedTempDir scratch("query_engine_bundle");
    dir = scratch.path();
    std::string error;
    CHECK(io::SaveBundle(dir, world, data, samples, *method, &error)) << error;

    // The reference oracle: a standalone manager over the same bundle. The
    // engine must reproduce these answers byte-for-byte over HTTP.
    BundleManager::Config manager_config;
    manager_config.dir = dir;
    reference = BundleManager::Create(manager_config, &error);
    CHECK(reference != nullptr) << error;
  }

  sim::World world;
  dlinfma::Dataset data;
  dlinfma::SampleSet samples;
  std::unique_ptr<dlinfma::DlInfMaMethod> method;
  std::string dir;
  std::unique_ptr<BundleManager> reference;
};

EngineFixture& Fixture() {
  static EngineFixture* fixture = new EngineFixture();
  return *fixture;
}

std::unique_ptr<QueryEngine> MakeEngine(int num_shards = 4) {
  QueryEngine::Options options;
  options.bundle_dir = Fixture().dir;
  options.num_shards = num_shards;
  std::string error;
  std::unique_ptr<QueryEngine> engine = QueryEngine::Create(options, &error);
  EXPECT_NE(engine, nullptr) << error;
  return engine;
}

/// The byte-exact /query body the engine must serve for `id` on the healthy
/// (non-shed) path, derived from the reference oracle.
std::string ExpectedBody(const QueryEngine& engine, int64_t id) {
  const DeliveryLocationService::Answer answer =
      Fixture().reference->state()->service->Query(id);
  return QueryEngine::FormatAnswerJson(id, answer,
                                       engine.router().ShardOf(id),
                                       /*shed=*/false);
}

TEST(ShardRouterTest, DeterministicAcrossInstances) {
  const ShardRouter a(4);
  const ShardRouter b(4);
  for (int64_t key = 0; key < 5000; ++key) {
    ASSERT_EQ(a.ShardOf(key), b.ShardOf(key)) << key;
  }
}

TEST(ShardRouterTest, CoversAllShardsRoughlyEvenly) {
  const ShardRouter router(4);
  std::vector<int> load(4, 0);
  constexpr int kKeys = 20000;
  for (int64_t key = 0; key < kKeys; ++key) ++load[router.ShardOf(key)];
  for (int shard = 0; shard < 4; ++shard) {
    // Uniform would be 5000/shard; consistent hashing with 64 vnodes keeps
    // skew well inside 2x.
    EXPECT_GT(load[shard], kKeys / 8) << "shard " << shard << " starved";
    EXPECT_LT(load[shard], kKeys / 2) << "shard " << shard << " overloaded";
  }
}

TEST(ShardRouterTest, ReshardingMovesBoundedKeyFraction) {
  const ShardRouter four(4);
  const ShardRouter five(5);
  constexpr int kKeys = 20000;
  int moved = 0;
  for (int64_t key = 0; key < kKeys; ++key) {
    if (four.ShardOf(key) != five.ShardOf(key)) ++moved;
  }
  // Consistent hashing: growing 4 -> 5 shards should move ~1/5 of keys;
  // naive modulo would move ~4/5. Assert the consistency property holds
  // with margin.
  EXPECT_LT(moved, kKeys * 2 / 5);
  EXPECT_GT(moved, 0);
}

TEST(QueryEngineTest, SingleQueryMatchesDirectServiceBitExact) {
  std::unique_ptr<QueryEngine> engine = MakeEngine();
  ASSERT_NE(engine, nullptr);

  HttpClient client;
  ASSERT_TRUE(client.Connect(engine->port()));
  for (const int64_t id : {int64_t{0}, int64_t{1}, int64_t{17}}) {
    ASSERT_TRUE(client.SendGet("/query?address_id=" + std::to_string(id)));
    int status = 0;
    std::string body;
    ASSERT_TRUE(client.ReadResponse(&status, &body));
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body, ExpectedBody(*engine, id));
  }
}

TEST(QueryEngineTest, RejectsUnknownAndMalformedIds) {
  std::unique_ptr<QueryEngine> engine = MakeEngine();
  ASSERT_NE(engine, nullptr);
  const int64_t count =
      static_cast<int64_t>(Fixture().world.addresses.size());

  HttpClient client;
  ASSERT_TRUE(client.Connect(engine->port()));
  int status = 0;
  std::string body;

  ASSERT_TRUE(client.SendGet("/query?address_id=" + std::to_string(count)));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 404);

  ASSERT_TRUE(client.SendGet("/query?address_id=-1"));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 404);

  ASSERT_TRUE(client.SendGet("/query?address_id=abc"));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 400);

  ASSERT_TRUE(client.SendGet("/query"));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 400);

  ASSERT_TRUE(client.SendGet("/no_such_endpoint"));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 404);
}

/// The tentpole harness: N threads × pipelined keep-alive batches, every
/// response byte-compared against the oracle, counters cross-checked
/// exactly.
TEST(QueryEngineTest, ConcurrentPipelinedClientsDeterministic) {
  std::unique_ptr<QueryEngine> engine = MakeEngine();
  ASSERT_NE(engine, nullptr);

  const int64_t address_count =
      static_cast<int64_t>(Fixture().world.addresses.size());
  ASSERT_GT(address_count, 0);

  constexpr int kThreads = 4;
  constexpr int kBatchesPerThread = 8;
  constexpr int kPipelineDepth = 16;

  const int64_t hits_before = CounterValue("service.shard.hits");
  const int64_t shed_before = CounterValue("service.shard.shed");
  std::vector<int64_t> per_shard_before(
      static_cast<size_t>(engine->num_shards()));
  for (int shard = 0; shard < engine->num_shards(); ++shard) {
    per_shard_before[static_cast<size_t>(shard)] = CounterValue(
        "service.shard.hits#shard=" + std::to_string(shard));
  }

  // Deterministic per-thread key streams (disjoint strides over the
  // inventory), so per-shard expected counts are computable exactly.
  std::vector<std::vector<int64_t>> streams(kThreads);
  for (int thread = 0; thread < kThreads; ++thread) {
    for (int i = 0; i < kBatchesPerThread * kPipelineDepth; ++i) {
      streams[static_cast<size_t>(thread)].push_back(
          (thread * 7919 + i * 13) % address_count);
    }
  }

  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> clients;
  for (int thread = 0; thread < kThreads; ++thread) {
    clients.emplace_back([&, thread] {
      HttpClient client;
      if (!client.Connect(engine->port())) {
        failures[static_cast<size_t>(thread)] = "connect failed";
        return;
      }
      const std::vector<int64_t>& stream =
          streams[static_cast<size_t>(thread)];
      for (int batch = 0; batch < kBatchesPerThread; ++batch) {
        // Write the whole pipelined burst, then read responses in order.
        std::string burst;
        for (int i = 0; i < kPipelineDepth; ++i) {
          const int64_t id =
              stream[static_cast<size_t>(batch * kPipelineDepth + i)];
          burst += "GET /query?address_id=" + std::to_string(id) +
                   " HTTP/1.1\r\nHost: h\r\n\r\n";
        }
        if (!client.SendRaw(burst)) {
          failures[static_cast<size_t>(thread)] = "send failed";
          return;
        }
        for (int i = 0; i < kPipelineDepth; ++i) {
          const int64_t id =
              stream[static_cast<size_t>(batch * kPipelineDepth + i)];
          int status = 0;
          std::string body;
          std::string error;
          if (!client.ReadResponse(&status, &body, &error)) {
            failures[static_cast<size_t>(thread)] = "read: " + error;
            return;
          }
          if (status != 200) {
            failures[static_cast<size_t>(thread)] =
                "status " + std::to_string(status);
            return;
          }
          const std::string expected = ExpectedBody(*engine, id);
          if (body != expected) {
            failures[static_cast<size_t>(thread)] =
                "answer drift for id " + std::to_string(id) + ": got " +
                body + " want " + expected;
            return;
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (int thread = 0; thread < kThreads; ++thread) {
    EXPECT_EQ(failures[static_cast<size_t>(thread)], "")
        << "thread " << thread;
  }

  // Exact counter cross-checks. No fault plan armed and deep queues, so
  // nothing may shed: every issued query is a shard hit.
  constexpr int64_t kTotal =
      int64_t{kThreads} * kBatchesPerThread * kPipelineDepth;
  EXPECT_EQ(CounterValue("service.shard.hits") - hits_before, kTotal);
  EXPECT_EQ(CounterValue("service.shard.shed") - shed_before, 0);

  // Per-shard hits must equal the router's placement of the issued keys.
  std::vector<int64_t> expected_per_shard(
      static_cast<size_t>(engine->num_shards()));
  for (const auto& stream : streams) {
    for (const int64_t id : stream) {
      ++expected_per_shard[static_cast<size_t>(engine->router().ShardOf(id))];
    }
  }
  int64_t sum = 0;
  for (int shard = 0; shard < engine->num_shards(); ++shard) {
    const int64_t delta =
        CounterValue("service.shard.hits#shard=" + std::to_string(shard)) -
        per_shard_before[static_cast<size_t>(shard)];
    EXPECT_EQ(delta, expected_per_shard[static_cast<size_t>(shard)])
        << "shard " << shard;
    sum += delta;
  }
  EXPECT_EQ(sum, kTotal);
}

TEST(QueryEngineTest, BatchMatchesSequentialAnswers) {
  std::unique_ptr<QueryEngine> engine = MakeEngine();
  ASSERT_NE(engine, nullptr);
  const int64_t address_count =
      static_cast<int64_t>(Fixture().world.addresses.size());

  std::vector<int64_t> ids;
  std::string payload = "{\"address_ids\":[";
  for (int i = 0; i < 40; ++i) {
    const int64_t id = (i * 31) % address_count;
    ids.push_back(id);
    if (i > 0) payload += ",";
    payload += std::to_string(id);
  }
  payload += "]}";

  HttpClient client;
  ASSERT_TRUE(client.Connect(engine->port()));
  ASSERT_TRUE(client.SendPost("/query_batch", payload));
  int status = 0;
  std::string body;
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  ASSERT_EQ(status, 200);

  // Positionally aligned, each element byte-identical to the single-query
  // answer.
  std::string expected = "{\"answers\":[";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) expected += ",";
    expected += ExpectedBody(*engine, ids[i]);
  }
  expected += "]}";
  EXPECT_EQ(body, expected);

  // Empty batch and malformed body.
  ASSERT_TRUE(client.SendPost("/query_batch", "{\"address_ids\":[]}"));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "{\"answers\":[]}");

  ASSERT_TRUE(client.SendPost("/query_batch", "{\"address_ids\":[1,zap]}"));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 400);

  ASSERT_TRUE(client.SendGet("/query_batch"));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 405);
}

TEST(QueryEngineTest, ShardAssignmentsStableAcrossEngineRestart) {
  std::vector<int64_t> probe_ids;
  for (int64_t id = 0; id < 64; ++id) probe_ids.push_back(id);

  auto shard_of = [&](QueryEngine& engine, int64_t id) {
    HttpClient client;
    EXPECT_TRUE(client.Connect(engine.port()));
    EXPECT_TRUE(client.SendGet("/query?address_id=" + std::to_string(id)));
    int status = 0;
    std::string body;
    EXPECT_TRUE(client.ReadResponse(&status, &body));
    EXPECT_EQ(status, 200);
    const size_t pos = body.find("\"shard\":");
    EXPECT_NE(pos, std::string::npos) << body;
    return std::stoi(body.substr(pos + 8));
  };

  std::vector<int> first_run;
  {
    std::unique_ptr<QueryEngine> engine = MakeEngine();
    ASSERT_NE(engine, nullptr);
    for (const int64_t id : probe_ids) {
      first_run.push_back(shard_of(*engine, id));
      // The served shard must agree with the router's pure function.
      ASSERT_EQ(first_run.back(), engine->router().ShardOf(id));
    }
    engine->Stop();
  }
  {
    std::unique_ptr<QueryEngine> engine = MakeEngine();
    ASSERT_NE(engine, nullptr);
    for (size_t i = 0; i < probe_ids.size(); ++i) {
      ASSERT_EQ(shard_of(*engine, probe_ids[i]),
                first_run[i])
          << "key " << probe_ids[i] << " migrated across restart";
    }
  }
}

TEST(QueryEngineTest, OverloadShedsToDegradedTierNeverDrops) {
  std::unique_ptr<QueryEngine> engine = MakeEngine();
  ASSERT_NE(engine, nullptr);

  const int64_t shed_before = CounterValue("service.shard.shed");
  const int64_t hits_before = CounterValue("service.shard.hits");

  fault::FaultPlan plan;
  plan.FailAlways("service.shard.overload");
  fault::ScopedFaultPlan armed(plan, 20240809);

  constexpr int kQueries = 25;
  HttpClient client;
  ASSERT_TRUE(client.Connect(engine->port()));
  for (int i = 0; i < kQueries; ++i) {
    const int64_t id = i % 16;
    ASSERT_TRUE(client.SendGet("/query?address_id=" + std::to_string(id)));
    int status = 0;
    std::string body;
    ASSERT_TRUE(client.ReadResponse(&status, &body));
    // The shedding contract: still HTTP 200, answered from the geocode
    // tier with degraded+shed flags, never a drop or 5xx.
    ASSERT_EQ(status, 200);
    EXPECT_NE(body.find("\"shed\":true"), std::string::npos) << body;
    EXPECT_NE(body.find("\"degraded\":true"), std::string::npos) << body;
    EXPECT_NE(body.find("\"source\":\"geocode\""), std::string::npos) << body;

    // Byte-exact shed answer: the world's geocoded location for the id.
    DeliveryLocationService::Answer expected;
    expected.location = Fixture().world.address(id).geocoded_location;
    expected.source = DeliveryLocationService::Source::kGeocode;
    expected.degraded = true;
    EXPECT_EQ(body,
              QueryEngine::FormatAnswerJson(
                  id, expected, engine->router().ShardOf(id), /*shed=*/true));
  }

  EXPECT_EQ(CounterValue("service.shard.shed") - shed_before, kQueries);
  EXPECT_EQ(CounterValue("service.shard.hits") - hits_before, 0);
  EXPECT_EQ(fault::FireCount("service.shard.overload"), kQueries);
}

// A corrupt push rolls every shard back and a clean one recovers them,
// while a pipelined /query client and a /healthz prober run throughout: a
// reload never surfaces as a non-200 answer or a transport error, every
// probe gets a verdict (200 or 503), and /healthz and /metrics tell the
// truth inside the degraded window.
TEST(QueryEngineTest, PerShardRollbackDegradesHealthzThenRecovers) {
  constexpr int kShards = 2;
  std::unique_ptr<QueryEngine> engine = MakeEngine(kShards);
  ASSERT_NE(engine, nullptr);
  const int port = engine->port();
  const int64_t address_count =
      static_cast<int64_t>(Fixture().world.addresses.size());

  std::atomic<int64_t> answered{0};
  std::atomic<int64_t> non_200{0};
  std::atomic<int64_t> transport_errors{0};
  std::atomic<int64_t> probes{0};
  std::atomic<int64_t> bad_probes{0};
  std::jthread load([&](std::stop_token stop) {
    HttpClient client;
    if (!client.Connect(port)) {
      transport_errors.fetch_add(1);
      return;
    }
    constexpr int kPipeline = 8;
    int64_t cursor = 0;
    while (!stop.stop_requested()) {
      std::string burst;
      for (int i = 0; i < kPipeline; ++i) {
        burst += "GET /query?address_id=" + std::to_string(cursor) +
                 " HTTP/1.1\r\nHost: h\r\n\r\n";
        cursor = (cursor + 13) % address_count;
      }
      if (!client.SendRaw(burst)) {
        transport_errors.fetch_add(1);
        return;
      }
      for (int i = 0; i < kPipeline; ++i) {
        int status = 0;
        std::string body;
        if (!client.ReadResponse(&status, &body)) {
          transport_errors.fetch_add(1);
          return;
        }
        if (status != 200) non_200.fetch_add(1);
        answered.fetch_add(1);
      }
    }
  });
  std::jthread prober([&](std::stop_token stop) {
    while (!stop.stop_requested()) {
      int status = 0;
      std::string body;
      if (!HttpGetOnce(port, "/healthz", &status, &body) ||
          (status != 200 && status != 503)) {
        bad_probes.fetch_add(1);
      }
      probes.fetch_add(1);
    }
  });
  // Bounded wait for `more` answers, so each phase runs under live load.
  auto expect_load_flows = [&](int64_t more) {
    const int64_t target = answered.load() + more;
    for (int spin = 0; spin < 5000 && answered.load() < target; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(answered.load(), target) << "query load stalled";
  };
  expect_load_flows(32);

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGetOnce(port, "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos) << body;
  EXPECT_NE(
      body.find("{\"name\":\"shard.1\",\"ok\":true,\"generation\":0"),
      std::string::npos)
      << body;

  const int64_t rollbacks_before = CounterValue("service.reload.rollbacks");
  const int64_t success_before = CounterValue("service.reload.success");
  {
    fault::FaultPlan plan;
    plan.FailAlways("service.reload.corrupt");
    fault::ScopedFaultPlan armed(plan, 20240809);
    const QueryEngine::ReloadSummary summary = engine->ReloadShardsNow();
    EXPECT_EQ(summary.rolled_back, kShards);
    EXPECT_EQ(summary.swapped, 0);
  }
  EXPECT_TRUE(engine->AnyShardDegraded());
  EXPECT_EQ(CounterValue("service.reload.rollbacks") - rollbacks_before, 1);

  ASSERT_TRUE(HttpGetOnce(port, "/healthz", &status, &body));
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("\"status\":\"degraded\""), std::string::npos)
      << body;
  EXPECT_NE(
      body.find("{\"name\":\"shard.1\",\"ok\":false,\"generation\":0"),
      std::string::npos)
      << body;
  ASSERT_TRUE(HttpGetOnce(port, "/metrics", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("# TYPE service_reload_rollbacks counter\n"
                      "service_reload_rollbacks " +
                      std::to_string(
                          CounterValue("service.reload.rollbacks")) +
                      "\n"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\nservice_reload_degraded 1\n"), std::string::npos)
      << body;

  // Queries keep answering correctly from the previous generation while
  // health is degraded.
  expect_load_flows(32);
  HttpClient client;
  ASSERT_TRUE(client.Connect(port));
  ASSERT_TRUE(client.SendGet("/query?address_id=3"));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, ExpectedBody(*engine, 3));

  // A clean push (same healthy bundle, no fault) recovers every shard.
  const QueryEngine::ReloadSummary recovered = engine->ReloadShardsNow();
  EXPECT_EQ(recovered.swapped, kShards);
  EXPECT_EQ(recovered.rolled_back, 0);
  EXPECT_FALSE(engine->AnyShardDegraded());
  EXPECT_EQ(CounterValue("service.reload.success") - success_before, 1);
  ASSERT_TRUE(HttpGetOnce(port, "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(
      body.find("{\"name\":\"shard.1\",\"ok\":true,\"generation\":1"),
      std::string::npos)
      << body;
  expect_load_flows(32);

  load.request_stop();
  prober.request_stop();
  load.join();
  prober.join();
  EXPECT_EQ(transport_errors.load(), 0);
  EXPECT_EQ(non_200.load(), 0);
  EXPECT_GT(probes.load(), 0);
  EXPECT_EQ(bad_probes.load(), 0);
}

/// Trains a 2-day world of `communities` communities and saves it as the
/// bundle at `dir` (a push when one is already there); its address count.
int64_t PushSmallBundle(int communities, const std::string& dir) {
  sim::SimConfig config = sim::SynDowBJConfig();
  config.num_days = 2;
  config.num_communities = communities;
  const sim::World world = sim::GenerateWorld(config);
  const dlinfma::Dataset data = dlinfma::BuildDataset(world, {});
  const dlinfma::SampleSet samples = dlinfma::ExtractSamples(data, {});
  dlinfma::TrainConfig train_config;
  train_config.max_epochs = 1;
  train_config.early_stop_patience = 1;
  dlinfma::DlInfMaMethod method("DLInfMA", dlinfma::LocMatcherConfig{},
                                train_config);
  method.Fit(data, samples);
  std::string error;
  EXPECT_TRUE(io::SaveBundle(dir, world, data, samples, method, &error))
      << error;
  return static_cast<int64_t>(world.addresses.size());
}

// Every shard reads the one staged generation: a push that grows the world
// is staged once, under a fault plan that fails only the second stage, so
// no shard can stay on the smaller world, and every id below /inventory's
// count answers on /query and in one /query_batch (an id beyond a shard's
// world would abort the engine in World::address).
TEST(QueryEngineTest, OneStagedGenerationServesEveryShard) {
  constexpr int kShards = 4;
  const ScopedTempDir scratch("query_engine_push");
  const std::string& dir = scratch.path();
  const int64_t boot_count = PushSmallBundle(3, dir);
  QueryEngine::Options options;
  options.bundle_dir = dir;
  options.num_shards = kShards;
  options.bundle.min_agree_fraction = 0;  // The pushed world differs.
  std::string error;
  std::unique_ptr<QueryEngine> engine = QueryEngine::Create(options, &error);
  ASSERT_NE(engine, nullptr) << error;
  const int64_t pushed_count = PushSmallBundle(5, dir);
  ASSERT_GT(pushed_count, boot_count);
  {
    fault::ScopedFaultPlan armed(
        fault::FaultPlan().Inject({.point = "service.reload.corrupt",
                                   .skip_first = 1,
                                   .max_fires = 1}),
        20261019);
    const QueryEngine::ReloadSummary summary = engine->ReloadShardsNow();
    EXPECT_EQ(summary.swapped, kShards);
  }

  const int port = engine->port();
  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGetOnce(port, "/healthz", &status, &body));
  for (int shard = 0; shard < kShards; ++shard) {
    EXPECT_NE(body.find("{\"name\":\"shard." + std::to_string(shard) +
                        "\",\"ok\":true,\"generation\":1,"),
              std::string::npos)
        << body;
  }
  EXPECT_EQ(engine->shard_manager(0)->state(),
            engine->shard_manager(kShards - 1)->state());

  ASSERT_TRUE(HttpGetOnce(port, "/inventory", &status, &body));
  ASSERT_EQ(status, 200);
  const std::string count_key = "{\"count\":";
  ASSERT_EQ(body.rfind(count_key, 0), 0u) << body;
  const int64_t count = std::stoll(body.substr(count_key.size()));
  EXPECT_EQ(count, pushed_count);

  HttpClient client;
  ASSERT_TRUE(client.Connect(port));
  std::string batch = "{\"address_ids\":[";
  for (int64_t id = 0; id < count; ++id) {
    ASSERT_TRUE(client.SendGet("/query?address_id=" + std::to_string(id)));
    ASSERT_TRUE(client.ReadResponse(&status, &body)) << id;
    EXPECT_EQ(status, 200) << id;
    batch += (id > 0 ? "," : "") + std::to_string(id);
  }
  ASSERT_TRUE(client.SendPost("/query_batch", batch + "]}"));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 200) << body;
}

TEST(QueryEngineTest, SlowLorisCannotDelayHealthz) {
  std::unique_ptr<QueryEngine> engine = MakeEngine();
  ASSERT_NE(engine, nullptr);

  // A stalled client: opens a connection, dribbles half a request line,
  // then goes silent while holding the socket.
  HttpClient loris;
  ASSERT_TRUE(loris.Connect(engine->port()));
  ASSERT_TRUE(loris.SendRaw("GET /heal"));

  // Health scrapes on other connections must complete promptly — with the
  // old sequential-accept design this blocked until the loris timed out.
  const auto start = std::chrono::steady_clock::now();
  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGetOnce(engine->port(), "/healthz", &status, &body));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(status, 200);
  EXPECT_LT(elapsed, 1.0) << "healthz stalled behind a slow-loris client";

  // And /metrics too, through the same loop.
  ASSERT_TRUE(HttpGetOnce(engine->port(), "/metrics", &status, &body));
  EXPECT_EQ(status, 200);
}

TEST(QueryEngineTest, IdleSweepEvictsStalledConnectionWith408) {
  QueryEngine::Options options;
  options.bundle_dir = Fixture().dir;
  options.num_shards = 1;
  options.idle_timeout_s = 0.5;
  std::string error;
  std::unique_ptr<QueryEngine> engine = QueryEngine::Create(options, &error);
  ASSERT_NE(engine, nullptr) << error;

  HttpClient loris;
  ASSERT_TRUE(loris.Connect(engine->port()));
  ASSERT_TRUE(loris.SendRaw("GET /partial-request-that-never-finishes"));

  // The sweep sends a typed 408 farewell and closes the connection.
  int status = 0;
  std::string body;
  ASSERT_TRUE(loris.ReadResponse(&status, &body));
  EXPECT_EQ(status, 408);
}

TEST(QueryEngineTest, RejectsNonPositiveShardCountWithTypedError) {
  for (const int num_shards : {0, -1}) {
    QueryEngine::Options options;
    options.bundle_dir = Fixture().dir;
    options.num_shards = num_shards;
    std::string error;
    EXPECT_EQ(QueryEngine::Create(options, &error), nullptr) << num_shards;
    EXPECT_NE(error.find("num_shards"), std::string::npos)
        << num_shards << ": " << error;
  }
}

TEST(QueryEngineTest, MetricsExposePerShardLabeledSeries) {
  std::unique_ptr<QueryEngine> engine = MakeEngine();
  ASSERT_NE(engine, nullptr);

  // Touch every shard at least probabilistically.
  HttpClient client;
  ASSERT_TRUE(client.Connect(engine->port()));
  for (int64_t id = 0; id < 32; ++id) {
    ASSERT_TRUE(client.SendGet("/query?address_id=" + std::to_string(id)));
    int status = 0;
    std::string body;
    ASSERT_TRUE(client.ReadResponse(&status, &body));
    ASSERT_EQ(status, 200);
  }

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGetOnce(engine->port(), "/metrics", &status, &body));
  ASSERT_EQ(status, 200);
  EXPECT_NE(body.find("service_shard_hits{shard=\"0\"}"), std::string::npos);
  EXPECT_NE(body.find("service_shard_hits{shard=\"3\"}"), std::string::npos);
  // Exactly one TYPE line for the whole family (base + labeled variants).
  const size_t first = body.find("# TYPE service_shard_hits counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(body.find("# TYPE service_shard_hits counter", first + 1),
            std::string::npos);

  // /inventory serves the load-generator's keyspace discovery.
  ASSERT_TRUE(HttpGetOnce(engine->port(), "/inventory", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"count\":" + std::to_string(
                          Fixture().world.addresses.size())),
            std::string::npos)
      << body;
}

/// Reads one response and returns the echoed x-request-id header ("" when
/// absent). Header names come back lowercased from ReadResponse.
std::string ReadRequestIdEcho(HttpClient* client, int* status,
                              std::string* body) {
  std::vector<std::pair<std::string, std::string>> headers;
  if (!client->ReadResponse(status, &headers, body)) return "";
  for (const auto& [name, value] : headers) {
    if (name == "x-request-id") return value;
  }
  return "";
}

TEST(QueryEngineTest, RequestIdIsEchoedAndGenerated) {
  std::unique_ptr<QueryEngine> engine = MakeEngine();
  ASSERT_NE(engine, nullptr);

  HttpClient client;
  ASSERT_TRUE(client.Connect(engine->port()));
  int status = 0;
  std::string body;

  // A caller-supplied id echoes back verbatim, body unchanged.
  ASSERT_TRUE(client.SendRaw(
      "GET /query?address_id=1 HTTP/1.1\r\nHost: localhost\r\n"
      "X-Request-Id: req-abc-123\r\n\r\n"));
  EXPECT_EQ(ReadRequestIdEcho(&client, &status, &body), "req-abc-123");
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, ExpectedBody(*engine, 1));

  // A numeric id is adopted as the trace id and still echoes verbatim.
  ASSERT_TRUE(client.SendRaw(
      "GET /query?address_id=2 HTTP/1.1\r\nHost: localhost\r\n"
      "X-Request-Id: 0xdeadbeef\r\n\r\n"));
  EXPECT_EQ(ReadRequestIdEcho(&client, &status, &body), "0xdeadbeef");
  EXPECT_EQ(status, 200);

  // No id supplied: the engine generates a 16-hex one.
  ASSERT_TRUE(client.SendGet("/query?address_id=3"));
  const std::string generated = ReadRequestIdEcho(&client, &status, &body);
  EXPECT_EQ(status, 200);
  ASSERT_EQ(generated.size(), 16u) << generated;
  EXPECT_EQ(generated.find_first_not_of("0123456789abcdef"),
            std::string::npos);

  // Two generated ids differ (they seed from a global counter).
  ASSERT_TRUE(client.SendGet("/query?address_id=3"));
  EXPECT_NE(ReadRequestIdEcho(&client, &status, &body), generated);

  // The batch path echoes too (response assembled across shard slices).
  const std::string batch_body = "{\"address_ids\":[1,2,3]}";
  ASSERT_TRUE(client.SendRaw(
      "POST /query_batch HTTP/1.1\r\nHost: localhost\r\n"
      "X-Request-Id: batch-7\r\n"
      "Content-Type: application/json\r\nContent-Length: " +
      std::to_string(batch_body.size()) + "\r\n\r\n" + batch_body));
  EXPECT_EQ(ReadRequestIdEcho(&client, &status, &body), "batch-7");
  EXPECT_EQ(status, 200);
}

TEST(QueryEngineTest, RequestIdIsEchoedOnEveryAnswerPath) {
  std::unique_ptr<QueryEngine> engine = MakeEngine();
  ASSERT_NE(engine, nullptr);
  HttpClient client;
  ASSERT_TRUE(client.Connect(engine->port()));

  struct Row {
    const char* method;
    const char* target;
    const char* body;
    int status;
  };
  const Row rows[] = {
      {"GET", "/query", "", 400},                     // missing address_id
      {"GET", "/query?address_id=x1", "", 400},       // malformed
      {"GET", "/query?address_id=-1", "", 404},       // unknown
      {"GET", "/query_batch", "", 405},               // not POST
      {"POST", "/query_batch", "{\"ids\":[1]}", 400},  // wrong shape
      {"POST", "/query_batch", "{\"address_ids\":[-1]}", 404},
      {"POST", "/query_batch", "{\"address_ids\":[]}", 200},  // empty
  };
  for (const Row& row : rows) {
    const std::string label = std::string(row.method) + " " + row.target +
                              " " + row.body;
    const std::string head = std::string(row.method) + " " + row.target +
                             " HTTP/1.1\r\nHost: localhost\r\n"
                             "Content-Length: " +
                             std::to_string(std::strlen(row.body)) + "\r\n";
    int status = 0;
    std::string body;

    // A caller-supplied id echoes back verbatim.
    ASSERT_TRUE(client.SendRaw(head + "X-Request-Id: err-row\r\n\r\n" +
                               row.body));
    EXPECT_EQ(ReadRequestIdEcho(&client, &status, &body), "err-row") << label;
    EXPECT_EQ(status, row.status) << label;

    // No id supplied: a generated 16-hex one.
    ASSERT_TRUE(client.SendRaw(head + "\r\n" + row.body));
    const std::string generated = ReadRequestIdEcho(&client, &status, &body);
    EXPECT_EQ(status, row.status) << label;
    EXPECT_EQ(generated.size(), 16u) << label << ": " << generated;
    EXPECT_EQ(generated.find_first_not_of("0123456789abcdef"),
              std::string::npos)
        << label << ": " << generated;
  }
}

TEST(QueryEngineTest, BatchRejectsWhatSingleQueryRejects) {
  std::unique_ptr<QueryEngine> engine = MakeEngine();
  ASSERT_NE(engine, nullptr);
  HttpClient client;
  ASSERT_TRUE(client.Connect(engine->port()));
  int status = 0;
  std::string body;

  // /query answers 400 for an id that overflows int64; so does the batch.
  ASSERT_TRUE(client.SendGet("/query?address_id=99999999999999999999"));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 400);

  for (const std::string bad : {
           "{\"address_ids\":[99999999999999999999]}",
           "{\"address_ids\":[1,,2]}",
           "{\"address_ids\":[,3]}",
           "{\"address_ids\":[+5]}",
           "{\"address_ids\":[1,]}",
           "{\"address_ids\":[1 2]}",
           "{\"address_ids\":[1]}x",
           "{\"address_ids\":[1]} }",
           "{\"address_ids\":[1]",
           "{\"other\":0,\"address_ids\":[1]}",
       }) {
    ASSERT_TRUE(client.SendPost("/query_batch", bad));
    ASSERT_TRUE(client.ReadResponse(&status, &body));
    EXPECT_EQ(status, 400) << bad;
  }

  // A negative id is well-formed but unknown, as on /query.
  ASSERT_TRUE(client.SendPost("/query_batch", "{\"address_ids\":[-1]}"));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 404);

  // JSON whitespace between tokens is well-formed and answers the same.
  ASSERT_TRUE(client.SendPost("/query_batch",
                              " {\n\"address_ids\" : [ 1 ,\t2 ]\r\n} "));
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "{\"answers\":[" + ExpectedBody(*engine, 1) + "," +
                      ExpectedBody(*engine, 2) + "]}");
}

TEST(QueryEngineTest, MixedPipelinedBurstAnswersInOrder) {
  std::unique_ptr<QueryEngine> engine = MakeEngine();
  ASSERT_NE(engine, nullptr);
  const int shards = engine->num_shards();
  const int64_t address_count =
      static_cast<int64_t>(Fixture().world.addresses.size());

  // A batch with ids on every shard.
  std::vector<int64_t> batch_ids;
  std::vector<bool> covered(static_cast<size_t>(shards), false);
  for (int64_t id = 0; id < address_count; ++id) {
    batch_ids.push_back(id);
    covered[static_cast<size_t>(engine->router().ShardOf(id))] = true;
    if (batch_ids.size() >= 8 &&
        std::count(covered.begin(), covered.end(), true) == shards) {
      break;
    }
  }
  ASSERT_EQ(std::count(covered.begin(), covered.end(), true), shards);
  std::string batch_body = "{\"address_ids\":[";
  std::string batch_answer = "{\"answers\":[";
  for (size_t i = 0; i < batch_ids.size(); ++i) {
    if (i > 0) {
      batch_body += ',';
      batch_answer += ',';
    }
    batch_body += std::to_string(batch_ids[i]);
    batch_answer += ExpectedBody(*engine, batch_ids[i]);
  }
  batch_body += "]}";
  batch_answer += "]}";

  const int64_t first = 5 % address_count;
  const int64_t shed = 7 % address_count;
  const int64_t last = 11 % address_count;
  auto get = [](const std::string& target) {
    return "GET " + target + " HTTP/1.1\r\nHost: h\r\n\r\n";
  };
  const std::string burst =
      get("/query?address_id=" + std::to_string(first)) +
      "POST /query_batch HTTP/1.1\r\nHost: h\r\nContent-Length: " +
      std::to_string(batch_body.size()) + "\r\n\r\n" + batch_body +
      get("/healthz") + get("/query?address_id=" + std::to_string(shed)) +
      get("/query?address_id=" + std::to_string(last));

  DeliveryLocationService::Answer shed_answer;
  shed_answer.location = Fixture().world.address(shed).geocoded_location;
  shed_answer.source = DeliveryLocationService::Source::kGeocode;
  shed_answer.degraded = true;
  const std::vector<std::string> expected = {
      ExpectedBody(*engine, first),
      batch_answer,
      "",  // /healthz: checked by status and shape below.
      QueryEngine::FormatAnswerJson(shed, shed_answer,
                                    engine->router().ShardOf(shed),
                                    /*shed=*/true),
      ExpectedBody(*engine, last),
  };

  std::vector<int64_t> hits_want(static_cast<size_t>(shards), 0);
  std::vector<int64_t> shed_want(static_cast<size_t>(shards), 0);
  for (const int64_t id : batch_ids) {
    ++hits_want[static_cast<size_t>(engine->router().ShardOf(id))];
  }
  ++hits_want[static_cast<size_t>(engine->router().ShardOf(first))];
  ++hits_want[static_cast<size_t>(engine->router().ShardOf(last))];
  ++shed_want[static_cast<size_t>(engine->router().ShardOf(shed))];
  auto per_shard = [&](const std::string& name) {
    std::vector<int64_t> values;
    for (int s = 0; s < shards; ++s) {
      values.push_back(CounterValue(name + "#shard=" + std::to_string(s)));
    }
    return values;
  };
  const std::vector<int64_t> hits_before = per_shard("service.shard.hits");
  const std::vector<int64_t> shed_before = per_shard("service.shard.shed");

  // The overload point is hit once per /query and once per shard slice of
  // the batch; skip those ahead of the fourth request so only it sheds.
  fault::FaultPlan plan;
  plan.Inject({.point = "service.shard.overload",
               .skip_first = 1 + shards,
               .max_fires = 1});
  fault::ScopedFaultPlan armed(plan, 20240809);

  HttpClient client;
  ASSERT_TRUE(client.Connect(engine->port()));
  ASSERT_TRUE(client.SendRaw(burst));
  for (size_t i = 0; i < expected.size(); ++i) {
    int status = 0;
    std::string body;
    ASSERT_TRUE(client.ReadResponse(&status, &body)) << i;
    EXPECT_EQ(status, 200) << i;
    if (i == 2) {
      EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos) << body;
    } else {
      EXPECT_EQ(body, expected[i]) << i;
    }
  }
  EXPECT_EQ(fault::FireCount("service.shard.overload"), 1);
  EXPECT_EQ(fault::HitCount("service.shard.overload"), 3 + shards);
  const std::vector<int64_t> hits_after = per_shard("service.shard.hits");
  const std::vector<int64_t> shed_after = per_shard("service.shard.shed");
  for (int s = 0; s < shards; ++s) {
    const size_t i = static_cast<size_t>(s);
    EXPECT_EQ(hits_after[i] - hits_before[i], hits_want[i]) << "shard " << s;
    EXPECT_EQ(shed_after[i] - shed_before[i], shed_want[i]) << "shard " << s;
  }
}

/// The answer JSON with both doubles written by printf's %.17g.
std::string PrintfAnswerJson(int64_t id, double x, double y, int shard) {
  char xs[40];
  char ys[40];
  std::snprintf(xs, sizeof(xs), "%.17g", x);
  std::snprintf(ys, sizeof(ys), "%.17g", y);
  return "{\"address_id\":" + std::to_string(id) + ",\"x\":" + xs +
         ",\"y\":" + ys +
         ",\"source\":\"building\",\"degraded\":true,\"shed\":false,"
         "\"shard\":" +
         std::to_string(shard) + "}";
}

TEST(QueryEngineFormatTest, DoublesMatchPrintfPercent17g) {
  using Limits = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0, -0.0, Limits::denorm_min(), -Limits::denorm_min(),
      std::nextafter(Limits::min(), 0.0),  // Largest subnormal.
      Limits::min(), 1e300, -1e300, Limits::max(), Limits::lowest(),
      9007199254740992.0,   // 2^53.
      9007199254740994.0,   // 2^53 + 2.
      -9007199254740996.0,  // -(2^53 + 4).
      1152921504606846976.0,  // 2^60.
      1e17, 123456789012345678.0, 1e22, 0.1, 1.5, -2.5, 100.0, 1e-5,
      440000.12345678901};
  std::mt19937_64 rng(20241018);
  std::uniform_real_distribution<double> coordinate(-5e4, 5e4);
  while (values.size() < 100000) {
    // Half raw bit patterns (every exponent), half map coordinates.
    const double raw = std::bit_cast<double>(rng());
    if (std::isfinite(raw)) values.push_back(raw);
    values.push_back(coordinate(rng));
  }
  DeliveryLocationService::Answer answer;
  answer.source = DeliveryLocationService::Source::kBuilding;
  answer.degraded = true;
  for (size_t i = 0; i < values.size(); ++i) {
    const double x = values[i];
    const double y = values[values.size() - 1 - i];
    answer.location.x = x;
    answer.location.y = y;
    const int64_t id = static_cast<int64_t>(i) * 7919;
    ASSERT_EQ(QueryEngine::FormatAnswerJson(id, answer, 3, /*shed=*/false),
              PrintfAnswerJson(id, x, y, 3))
        << i;
  }
}

}  // namespace
}  // namespace apps
}  // namespace dlinf
