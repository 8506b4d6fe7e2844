// Chaos runner: named fault-injection scenario suites over the full
// pipeline (DESIGN.md §8). Each scenario arms a deterministic FaultPlan,
// drives a slice of the stack (artifact I/O, simulation + mining under
// dirty GPS, the 3-tier serving chain), and checks the degradation
// contract: every query answered, typed errors instead of aborts, and
// fault/fallback counters exactly matching the injected fault counts.
//
// Usage:
//   chaos_runner --suite smoke      # fast scenarios (default)
//   chaos_runner --suite full       # everything, incl. the e2e pipeline
//   chaos_runner --scenario NAME    # one scenario by name
//   chaos_runner --list             # print scenario names and exit
//   chaos_runner --seed S           # fault-plan base seed (default 20240807)
//
// Exits nonzero if any scenario fails a contract check (a crash also exits
// nonzero, by nature), and 2 on a malformed command line. Run under
// ASan/UBSan/TSan in CI.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/admin_routes.h"
#include "apps/bundle_manager.h"
#include "apps/http_conn.h"
#include "apps/location_service.h"
#include "apps/query_engine.h"
#include "common/flags.h"
#include "common/random.h"
#include "dlinfma/dlinfma_method.h"
#include "dlinfma/trainer.h"
#include "fault/fault.h"
#include "io/artifact.h"
#include "io/bundle.h"
#include "io/checkpoint.h"
#include "io/codecs.h"
#include "io/wal_frame.h"
#include "obs/metrics.h"
#include "sim/generator.h"
#include "stream/ingest_server.h"
#include "stream/online_trainer.h"
#include "stream/stream_pipeline.h"
#include "stream/wal.h"

namespace dlinf {
namespace {

uint64_t g_base_seed = 20240807;

/// Collects contract violations for one scenario; empty == pass.
struct Checker {
  std::vector<std::string> failures;

  void Expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }

  void ExpectEq(int64_t got, int64_t want, const std::string& what) {
    if (got != want) {
      failures.push_back(what + ": got " + std::to_string(got) +
                         ", want " + std::to_string(want));
    }
  }
};

/// One GET /healthz reply; status 0 when the endpoint was unreachable.
struct HealthzReply {
  int status = 0;
  std::string body;
};

/// GETs /healthz on `port`, recording a failure when it is unreachable.
HealthzReply GetHealthz(Checker& check, int port, const std::string& when) {
  HealthzReply reply;
  if (!apps::HttpGetOnce(port, "/healthz", &reply.status, &reply.body)) {
    check.Expect(false, "healthz unreachable " + when);
    reply.status = 0;
  }
  return reply;
}

int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

std::string ScratchPath(const std::string& name) {
  static const std::string dir = [] {
    std::string d = (std::filesystem::temp_directory_path() /
                     "dlinf_chaos")
                        .string();
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// One small trained pipeline, built lazily and shared by every scenario
/// that serves queries; training happens once, with no plan armed.
struct Fixture {
  Fixture() {
    sim::SimConfig config = sim::SynDowBJConfig();
    config.num_days = 3;
    config.num_communities = 6;
    world = sim::GenerateWorld(config);
    data = dlinfma::BuildDataset(world, {});
    samples = dlinfma::ExtractSamples(data, {});
    dlinfma::TrainConfig train_config;
    train_config.max_epochs = 2;
    train_config.early_stop_patience = 2;
    method = std::make_unique<dlinfma::DlInfMaMethod>(
        "DLInfMA", dlinfma::LocMatcherConfig{}, train_config);
    method->Fit(data, samples);
    all_samples = io::AllSamples(samples);
    service = std::make_unique<apps::DeliveryLocationService>(
        apps::DeliveryLocationService::BuildFromInferrer(
            world, data, all_samples, method.get()));
  }

  sim::World world;
  dlinfma::Dataset data;
  dlinfma::SampleSet samples;
  std::vector<dlinfma::AddressSample> all_samples;
  std::unique_ptr<dlinfma::DlInfMaMethod> method;
  std::unique_ptr<apps::DeliveryLocationService> service;
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

/// Continuous QueryBatch load on a background thread over the first 64
/// addresses `manager` serves. Each batch pins one generation (state()),
/// as each engine request does, so every answer must be present and finite
/// no matter what the control thread does to the bundle.
class BackgroundQueryLoad {
 public:
  explicit BackgroundQueryLoad(const apps::BundleManager* manager)
      : manager_(manager) {
    for (const dlinfma::AddressSample& sample : manager->state()->samples) {
      ids_.push_back(sample.address_id);
      if (ids_.size() >= 64) break;
    }
    thread_ = std::thread([this] { Run(); });
  }
  BackgroundQueryLoad(const BackgroundQueryLoad&) = delete;
  BackgroundQueryLoad& operator=(const BackgroundQueryLoad&) = delete;
  ~BackgroundQueryLoad() { Join(); }

  /// Stops the load and checks its contract held through `churn`.
  void Finish(Checker& check, const std::string& churn) {
    Join();
    check.Expect(answered_.load() > 0, "query load never answered anything");
    check.ExpectEq(bad_answers_.load(), 0,
                   "dropped or non-finite answers under " + churn);
  }

 private:
  void Run() {
    while (!stop_.load(std::memory_order_acquire)) {
      const std::shared_ptr<const apps::BundleManager::ServingState> pinned =
          manager_->state();
      const std::vector<apps::DeliveryLocationService::Answer> answers =
          pinned->service->QueryBatch(ids_);
      if (answers.size() != ids_.size()) {
        bad_answers_.fetch_add(1, std::memory_order_relaxed);
      }
      for (const auto& answer : answers) {
        if (!std::isfinite(answer.location.x) ||
            !std::isfinite(answer.location.y)) {
          bad_answers_.fetch_add(1, std::memory_order_relaxed);
        }
        answered_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  void Join() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  const apps::BundleManager* manager_;
  std::vector<int64_t> ids_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> answered_{0};
  std::atomic<int64_t> bad_answers_{0};
  std::thread thread_;
};

/// Saves the fixture bundle into `dir` and boots a BundleManager on it;
/// nullptr, with the failure recorded, when either step fails.
std::unique_ptr<apps::BundleManager> BootFixtureBundle(
    Checker& check, const std::string& dir) {
  Fixture& fx = GetFixture();
  std::string error;
  check.Expect(
      io::SaveBundle(dir, fx.world, fx.data, fx.samples, *fx.method, &error),
      "fixture bundle save failed: " + error);
  apps::BundleManager::Config config;
  config.dir = dir;
  std::unique_ptr<apps::BundleManager> manager =
      apps::BundleManager::Create(config, &error);
  check.Expect(manager != nullptr, "bundle manager boot failed: " + error);
  return manager;
}

/// Writes the fixture world to a valid artifact file once; scenarios that
/// corrupt it work on copies.
const std::string& ValidWorldArtifact() {
  static const std::string path = [] {
    std::string p = ScratchPath("world.art");
    if (!io::SaveWorldArtifact(GetFixture().world, p)) {
      std::fprintf(stderr, "FATAL: cannot write fixture artifact %s\n",
                   p.c_str());
      std::exit(2);
    }
    return p;
  }();
  return path;
}

// --- Scenario: on-disk corruption classes ---------------------------------

/// Every corruption class an artifact file can suffer on disk — bad magic,
/// future version, flipped payload byte, truncation at several boundaries —
/// must surface as a typed error with a human-readable reason, never a
/// crash or a partially decoded world.
void RunDiskCorruption(Checker& check) {
  const std::string valid = ReadFileBytes(ValidWorldArtifact());
  check.Expect(valid.size() > 24, "fixture artifact implausibly small");
  const std::string path = ScratchPath("corrupt.art");

  auto expect_load_fails = [&](const std::string& label) {
    std::string error;
    auto world = io::LoadWorldArtifact(path, &error);
    check.Expect(!world.has_value(), label + ": load unexpectedly succeeded");
    check.Expect(!error.empty(), label + ": error string is empty");
  };

  // Class 1: bad magic (first header byte flipped).
  std::string bytes = valid;
  bytes[0] ^= 0x5a;
  WriteFileBytes(path, bytes);
  expect_load_fails("bad magic");

  // Class 2: future format version (explicit version+1 patched into the
  // header, not just a flipped byte).
  bytes = valid;
  const uint32_t future = io::kArtifactVersion + 1;
  std::memcpy(&bytes[4], &future, sizeof(future));
  WriteFileBytes(path, bytes);
  expect_load_fails("future version");

  // Class 3: payload bit rot (CRC must catch a single flipped byte).
  bytes = valid;
  bytes[20 + (bytes.size() - 24) / 2] ^= 0x01;
  WriteFileBytes(path, bytes);
  expect_load_fails("payload bit flip");

  // Class 4: truncation — inside the header, at the header/payload
  // boundary, mid-payload, and one byte short of complete.
  for (const size_t keep :
       {size_t{3}, size_t{12}, size_t{20}, valid.size() / 2,
        valid.size() - 1}) {
    WriteFileBytes(path, valid.substr(0, keep));
    expect_load_fails("truncated to " + std::to_string(keep) + " bytes");
  }

  // Control: the untouched file still loads.
  std::string error;
  check.Expect(io::LoadWorldArtifact(ValidWorldArtifact(), &error).has_value(),
               "control load of valid artifact failed: " + error);
}

// --- Scenario: injected I/O faults ----------------------------------------

/// The `io.artifact.*` injection points drive the same typed-error branches
/// as real corruption, deterministically, on a pristine file — and each
/// fire is visible both through fault::FireCount and the obs counters.
void RunIoFaults(Checker& check) {
  const std::string& path = ValidWorldArtifact();
  const char* read_points[] = {"io.artifact.short_read",
                               "io.artifact.bit_flip",
                               "io.artifact.stale_version"};
  for (const char* point : read_points) {
    const int64_t counter_before =
        CounterValue(std::string("fault.fires.") + point);
    const int64_t total_before = CounterValue("fault.fires");
    {
      fault::ScopedFaultPlan armed(fault::FaultPlan().FailAlways(point),
                                   g_base_seed);
      std::string error;
      auto world = io::LoadWorldArtifact(path, &error);
      check.Expect(!world.has_value(),
                   std::string(point) + ": load unexpectedly succeeded");
      check.Expect(!error.empty(),
                   std::string(point) + ": error string is empty");
    }
    check.ExpectEq(fault::FireCount(point), 1,
                   std::string(point) + ": FireCount");
    check.ExpectEq(CounterValue(std::string("fault.fires.") + point) -
                       counter_before,
                   1, std::string(point) + ": fault.fires.<point> counter");
    check.ExpectEq(CounterValue("fault.fires") - total_before, 1,
                   std::string(point) + ": fault.fires total counter");
  }

  // write_fail: Finish reports failure and leaves no file behind.
  {
    const std::string out = ScratchPath("write_fail.art");
    std::filesystem::remove(out);
    fault::ScopedFaultPlan armed(
        fault::FaultPlan().FailAlways("io.artifact.write_fail"), g_base_seed);
    check.Expect(!io::SaveWorldArtifact(GetFixture().world, out),
                 "write_fail: save unexpectedly succeeded");
    check.Expect(!std::filesystem::exists(out),
                 "write_fail: failed save left a file behind");
  }

  // Control: disarmed, the same file loads cleanly.
  std::string error;
  check.Expect(io::LoadWorldArtifact(path, &error).has_value(),
               "control load after fault scenarios failed: " + error);
}

// --- Scenario: dirty GPS end-to-end ---------------------------------------

/// Train → corrupt → serve: the whole offline pipeline runs with GPS-level
/// faults armed (dropouts, duplicates, out-of-order points, NaN
/// coordinates, clock skew, whole trajectories dropped) and must still
/// produce finite inferences and answer every query.
void RunDirtyGpsPipeline(Checker& check) {
  fault::FaultPlan plan;
  plan.FailWithProbability("traj.gps.dropout", 0.05)
      .FailWithProbability("traj.gps.duplicate", 0.02)
      .FailWithProbability("traj.gps.out_of_order", 0.02)
      .FailWithProbability("traj.gps.nan", 0.01)
      .Inject({.point = "traj.gps.clock_skew",
               .probability = 0.005,
               .param = 600})
      .FailWithProbability("sim.trip.drop_trajectory", 0.05);
  fault::ScopedFaultPlan armed(plan, g_base_seed);

  sim::SimConfig config = sim::SynDowBJConfig();
  config.num_days = 3;
  config.num_communities = 6;
  const sim::World world = sim::GenerateWorld(config);
  const dlinfma::Dataset data = dlinfma::BuildDataset(world, {});
  const dlinfma::SampleSet samples = dlinfma::ExtractSamples(data, {});

  dlinfma::TrainConfig train_config;
  train_config.max_epochs = 2;
  train_config.early_stop_patience = 2;
  dlinfma::DlInfMaMethod method("DLInfMA", dlinfma::LocMatcherConfig{},
                                train_config);
  method.Fit(data, samples);

  const std::vector<Point> inferred = method.InferAll(data, samples.test);
  check.ExpectEq(static_cast<int64_t>(inferred.size()),
                 static_cast<int64_t>(samples.test.size()),
                 "inference count");
  for (const Point& p : inferred) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      check.Expect(false, "non-finite inferred location escaped the pipeline");
      break;
    }
  }

  // The corruption must actually have happened for this scenario to mean
  // anything.
  check.Expect(fault::TotalFires() > 0, "no GPS faults fired at all");
  for (const char* point :
       {"traj.gps.dropout", "traj.gps.duplicate", "traj.gps.out_of_order",
        "traj.gps.nan", "sim.trip.drop_trajectory"}) {
    check.Expect(fault::HitCount(point) > 0,
                 std::string(point) + ": injection point never hit");
  }

  // Serving on top of the dirty-trained model still answers everything
  // (tiers themselves are healthy here, so nothing is degraded).
  std::vector<dlinfma::AddressSample> all = samples.train;
  all.insert(all.end(), samples.test.begin(), samples.test.end());
  const apps::DeliveryLocationService service =
      apps::DeliveryLocationService::BuildFromInferrer(world, data, all,
                                                       &method);
  for (size_t i = 0; i < std::min<size_t>(50, all.size()); ++i) {
    const auto answer = service.Query(all[i].address_id);
    check.Expect(std::isfinite(answer.location.x) &&
                     std::isfinite(answer.location.y),
                 "query answered with a non-finite location");
    check.Expect(!answer.degraded,
                 "healthy tiers produced a degraded answer");
  }
}

// --- Scenario: address tier fails K times ---------------------------------

/// The address tier fails exactly K times (no retries allowed): exactly K
/// queries must degrade to a lower tier, everything still gets an answer,
/// and every counter matches the injected fault count exactly.
void RunTierFailAddress(Checker& check) {
  Fixture& fx = GetFixture();
  constexpr int64_t kFailures = 25;
  constexpr int64_t kQueries = 100;
  check.Expect(static_cast<int64_t>(fx.all_samples.size()) >= 1,
               "fixture has no samples");

  apps::DeliveryLocationService::DegradePolicy policy;
  policy.tier_deadline_ms = 1000.0;  // Generous: only injected fails count.
  policy.max_retries = 0;
  fx.service->set_degrade_policy(policy);

  const int64_t failures_before = CounterValue("service.tier.failures.address");
  const int64_t fallbacks_before = CounterValue("service.query.fallbacks");
  const int64_t degraded_before = CounterValue("service.query.degraded");

  int64_t degraded_answers = 0;
  {
    fault::ScopedFaultPlan armed(
        fault::FaultPlan().FailFirst("service.tier.address.fail", kFailures),
        g_base_seed);
    for (int64_t i = 0; i < kQueries; ++i) {
      const int64_t address_id =
          fx.all_samples[i % fx.all_samples.size()].address_id;
      const auto answer = fx.service->Query(address_id);
      if (answer.degraded) {
        ++degraded_answers;
        check.Expect(
            answer.source != apps::DeliveryLocationService::Source::kAddress,
            "degraded answer claims the failed address tier");
      } else {
        check.Expect(
            answer.source == apps::DeliveryLocationService::Source::kAddress,
            "healthy query missed the address tier");
      }
    }
  }

  check.ExpectEq(degraded_answers, kFailures, "degraded answers");
  check.ExpectEq(fault::FireCount("service.tier.address.fail"), kFailures,
                 "FireCount(service.tier.address.fail)");
  check.ExpectEq(CounterValue("service.tier.failures.address") -
                     failures_before,
                 kFailures, "service.tier.failures.address");
  check.ExpectEq(CounterValue("service.query.fallbacks") - fallbacks_before,
                 kFailures, "service.query.fallbacks");
  check.ExpectEq(CounterValue("service.query.degraded") - degraded_before,
                 kFailures, "service.query.degraded");
  fx.service->set_degrade_policy({});
}

// --- Scenario: both KV tiers down -----------------------------------------

/// With the address AND building tiers hard-down, every query must still be
/// answered — by the terminal geocode tier, marked degraded, with two
/// fallbacks per query on the books.
void RunTierFailBoth(Checker& check) {
  Fixture& fx = GetFixture();
  constexpr int64_t kQueries = 20;

  apps::DeliveryLocationService::DegradePolicy policy;
  policy.tier_deadline_ms = 1000.0;
  policy.max_retries = 0;
  fx.service->set_degrade_policy(policy);

  const int64_t fallbacks_before = CounterValue("service.query.fallbacks");
  const int64_t degraded_before = CounterValue("service.query.degraded");

  {
    fault::FaultPlan plan;
    plan.FailAlways("service.tier.address.fail")
        .FailAlways("service.tier.building.fail");
    fault::ScopedFaultPlan armed(plan, g_base_seed);
    for (int64_t i = 0; i < kQueries; ++i) {
      const int64_t address_id = fx.all_samples[i].address_id;
      const auto answer = fx.service->Query(address_id);
      check.Expect(
          answer.source == apps::DeliveryLocationService::Source::kGeocode,
          "total tier outage not answered by geocode");
      check.Expect(answer.degraded, "total tier outage not marked degraded");
      const Point& geocode =
          fx.world.address(address_id).geocoded_location;
      check.Expect(answer.location.x == geocode.x &&
                       answer.location.y == geocode.y,
                   "geocode fallback returned the wrong location");
    }
  }

  check.ExpectEq(fault::FireCount("service.tier.address.fail"), kQueries,
                 "FireCount(service.tier.address.fail)");
  check.ExpectEq(fault::FireCount("service.tier.building.fail"), kQueries,
                 "FireCount(service.tier.building.fail)");
  check.ExpectEq(CounterValue("service.query.fallbacks") - fallbacks_before,
                 2 * kQueries, "service.query.fallbacks");
  check.ExpectEq(CounterValue("service.query.degraded") - degraded_before,
                 kQueries, "service.query.degraded");
  fx.service->set_degrade_policy({});
}

// --- Scenario: slow address tier ------------------------------------------

/// Injected latency pushes every address-tier attempt past its deadline:
/// the tier is treated as failed (initial attempt + one retry), and the
/// query degrades to the building tier.
void RunTierLatency(Checker& check) {
  Fixture& fx = GetFixture();
  constexpr int64_t kQueries = 6;

  apps::DeliveryLocationService::DegradePolicy policy;
  policy.tier_deadline_ms = 5.0;
  policy.max_retries = 1;
  policy.backoff_ms = 0.5;
  fx.service->set_degrade_policy(policy);

  const int64_t failures_before = CounterValue("service.tier.failures.address");
  const int64_t retries_before = CounterValue("service.tier.retries");

  {
    fault::ScopedFaultPlan armed(
        fault::FaultPlan().AddLatencyMs("service.tier.address.latency", 50.0),
        g_base_seed);
    for (int64_t i = 0; i < kQueries; ++i) {
      const auto answer = fx.service->Query(fx.all_samples[i].address_id);
      check.Expect(answer.degraded,
                   "deadline-blown address tier not marked degraded");
      check.Expect(
          answer.source != apps::DeliveryLocationService::Source::kAddress,
          "deadline-blown address tier still answered");
    }
  }

  check.ExpectEq(fault::FireCount("service.tier.address.latency"),
                 2 * kQueries, "latency fires (attempt + retry per query)");
  check.ExpectEq(CounterValue("service.tier.failures.address") -
                     failures_before,
                 2 * kQueries, "service.tier.failures.address");
  check.ExpectEq(CounterValue("service.tier.retries") - retries_before,
                 kQueries, "service.tier.retries");
  fx.service->set_degrade_policy({});
}

// --- Scenario: retry masks a transient failure ----------------------------

/// One transient failure on the address tier's first attempt: the bounded
/// retry must absorb it, so the answer comes from the intended tier and is
/// NOT degraded.
void RunRetryRecovers(Checker& check) {
  Fixture& fx = GetFixture();
  constexpr int64_t kQueries = 5;

  apps::DeliveryLocationService::DegradePolicy policy;
  policy.tier_deadline_ms = 1000.0;
  policy.max_retries = 1;
  policy.backoff_ms = 0.1;
  fx.service->set_degrade_policy(policy);

  const int64_t retries_before = CounterValue("service.tier.retries");
  const int64_t fallbacks_before = CounterValue("service.query.fallbacks");
  const int64_t degraded_before = CounterValue("service.query.degraded");

  {
    fault::ScopedFaultPlan armed(
        fault::FaultPlan().FailFirst("service.tier.address.fail", 1),
        g_base_seed);
    for (int64_t i = 0; i < kQueries; ++i) {
      const auto answer = fx.service->Query(fx.all_samples[i].address_id);
      check.Expect(
          answer.source == apps::DeliveryLocationService::Source::kAddress,
          "retry did not restore the address tier");
      check.Expect(!answer.degraded,
                   "transient failure absorbed by retry still degraded");
    }
  }

  check.ExpectEq(fault::FireCount("service.tier.address.fail"), 1,
                 "FireCount(service.tier.address.fail)");
  check.ExpectEq(CounterValue("service.tier.retries") - retries_before, 1,
                 "service.tier.retries");
  check.ExpectEq(CounterValue("service.query.fallbacks") - fallbacks_before,
                 0, "service.query.fallbacks");
  check.ExpectEq(CounterValue("service.query.degraded") - degraded_before, 0,
                 "service.query.degraded");
  fx.service->set_degrade_policy({});
}

// --- Scenario: kill mid-train, resume bit-identical -----------------------

/// Exact float-bit equality across two parameter snapshots (NaN-proof and
/// -0.0-strict, unlike operator==).
bool BitIdentical(const std::vector<std::vector<float>>& a,
                  const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    if (!a[i].empty() &&
        std::memcmp(a[i].data(), b[i].data(),
                    a[i].size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// The crash-safe checkpoint contract (DESIGN.md §9), end to end through the
/// CKPT artifact codec: a run killed right after an epoch-boundary
/// checkpoint write, then resumed in a fresh "process" (fresh model, fresh
/// optimizer, fresh RNG), finishes **bit-identical** to a run that was never
/// interrupted — across a learning-rate halving boundary. And an injected
/// `train.checkpoint.write_fail` never aborts training: the failure is
/// counted, no file appears, and the final model is unchanged.
void RunKillMidTrainResume(Checker& check) {
  Fixture& fx = GetFixture();
  dlinfma::TrainConfig base;
  base.max_epochs = 8;
  base.early_stop_patience = 8;
  base.lr_halve_epochs = 3;  // A halving lands both before and after epoch 4.
  base.seed = 20240807;

  auto fresh_model = [&] {
    Rng rng(base.seed);
    return std::make_unique<dlinfma::LocMatcher>(dlinfma::LocMatcherConfig{},
                                                 &rng);
  };
  auto snapshot = [](const dlinfma::LocMatcher& model) {
    std::vector<std::vector<float>> out;
    for (const nn::Tensor& t : model.Parameters()) out.push_back(t.data());
    return out;
  };

  // Golden run: uninterrupted, but capturing the epoch-4 checkpoint — the
  // exact bytes that would be on disk when the process dies right after
  // that boundary's atomic rename.
  std::optional<dlinfma::TrainCheckpoint> at_kill;
  std::vector<std::vector<float>> golden;
  {
    dlinfma::TrainConfig config = base;
    config.checkpoint_every_epochs = 4;
    config.checkpoint_sink = [&](const dlinfma::TrainCheckpoint& ck) {
      if (ck.next_epoch == 4) at_kill = ck;
      return true;
    };
    auto model = fresh_model();
    dlinfma::TrainLocMatcher(model.get(), fx.samples.train, fx.samples.val,
                             config);
    golden = snapshot(*model);
  }
  check.Expect(at_kill.has_value(), "epoch-4 checkpoint never emitted");
  if (!at_kill.has_value()) return;

  // Kill → restart: persist through the real CKPT artifact (envelope, CRC,
  // atomic rename) and decode it back, as `dlinf_cli train --resume` does.
  const std::string ck_path = ScratchPath("resume.ckpt.art");
  std::filesystem::remove(ck_path);
  check.Expect(io::SaveCheckpointArtifact(*at_kill, ck_path),
               "checkpoint artifact save failed");
  std::string error;
  const std::optional<dlinfma::TrainCheckpoint> restored =
      io::LoadCheckpointArtifact(ck_path, &error);
  check.Expect(restored.has_value(), "checkpoint artifact load failed: " +
                                         error);
  if (!restored.has_value()) return;

  const int64_t resumes_before = CounterValue("train.resumes");
  {
    dlinfma::TrainConfig config = base;
    config.resume = &*restored;
    auto model = fresh_model();
    const dlinfma::TrainResult result = dlinfma::TrainLocMatcher(
        model.get(), fx.samples.train, fx.samples.val, config);
    check.ExpectEq(result.epochs_run, base.max_epochs,
                   "resumed run total epochs");
    check.Expect(BitIdentical(snapshot(*model), golden),
                 "resumed model is not bit-identical to the golden run");
  }
  check.ExpectEq(CounterValue("train.resumes") - resumes_before, 1,
                 "train.resumes counter");

  // Injected write failure: every checkpoint write fails, training shrugs —
  // same final model, exact failure count, nothing left on disk.
  {
    const int64_t failures_before = CounterValue("train.checkpoint.failures");
    const int64_t writes_before = CounterValue("train.checkpoint.writes");
    const std::string out = ScratchPath("ckpt_write_fail.art");
    std::filesystem::remove(out);
    fault::ScopedFaultPlan armed(
        fault::FaultPlan().FailAlways("train.checkpoint.write_fail"),
        g_base_seed);
    dlinfma::TrainConfig config = base;
    config.checkpoint_every_epochs = 4;
    config.checkpoint_sink = [&](const dlinfma::TrainCheckpoint& ck) {
      return io::SaveCheckpointArtifact(ck, out);
    };
    auto model = fresh_model();
    dlinfma::TrainLocMatcher(model.get(), fx.samples.train, fx.samples.val,
                             config);
    check.Expect(BitIdentical(snapshot(*model), golden),
                 "failed checkpoint writes changed the trained model");
    check.Expect(!std::filesystem::exists(out),
                 "failed checkpoint write left a file behind");
    // Emissions at epochs 4 and 8 (the terminal one coincides with epoch 8).
    check.ExpectEq(CounterValue("train.checkpoint.failures") - failures_before,
                   2, "train.checkpoint.failures");
    check.ExpectEq(CounterValue("train.checkpoint.writes") - writes_before, 0,
                   "train.checkpoint.writes during injected failure");
  }
}

// --- Scenario: corrupt push rolls back under load --------------------------

/// The hot-reload contract (DESIGN.md §9) under live QueryBatch load: a
/// corrupt push and a validation-failing push each roll back — the old
/// generation keeps answering every in-flight query, rollbacks are counted,
/// the degraded flag is raised — and a subsequent healthy push swaps in with
/// zero downtime and clears it. Real on-disk corruption (flipped byte in
/// model.art) must take the same rollback path as the injected faults.
void RunCorruptPushRollback(Checker& check) {
  const std::string dir = ScratchPath("reload_bundle");
  std::unique_ptr<apps::BundleManager> manager = BootFixtureBundle(check, dir);
  if (manager == nullptr) return;

  BackgroundQueryLoad load(manager.get());

  const int64_t attempts_before = CounterValue("service.reload.attempts");
  const int64_t rollbacks_before = CounterValue("service.reload.rollbacks");
  const int64_t success_before = CounterValue("service.reload.success");

  // Push 1: corrupt at stage time (injected torn push) → rollback.
  {
    fault::ScopedFaultPlan armed(
        fault::FaultPlan().FailAlways("service.reload.corrupt"), g_base_seed);
    std::string why;
    check.Expect(manager->ReloadNow(&why) ==
                     apps::BundleManager::ReloadOutcome::kRolledBack,
                 "corrupt push did not roll back");
    check.Expect(!why.empty(), "corrupt-push rollback gave no reason");
  }
  check.ExpectEq(static_cast<int64_t>(manager->generation()), 0,
                 "generation after corrupt push");
  check.Expect(manager->reload_degraded(),
               "rollback did not raise the degraded flag");

  // Push 2: decodes fine but the shadow probes veto it → rollback.
  {
    fault::ScopedFaultPlan armed(
        fault::FaultPlan().FailAlways("service.reload.validation_fail"),
        g_base_seed);
    std::string why;
    check.Expect(manager->ReloadNow(&why) ==
                     apps::BundleManager::ReloadOutcome::kRolledBack,
                 "validation-failing push did not roll back");
  }
  check.ExpectEq(static_cast<int64_t>(manager->generation()), 0,
                 "generation after validation failure");

  // Push 3: real on-disk corruption — flip one payload byte in model.art;
  // the CRC check in staging must reject it through the same rollback path.
  const std::string model_path = dir + "/model.art";
  const std::string model_bytes = ReadFileBytes(model_path);
  check.Expect(model_bytes.size() > 64, "model artifact implausibly small");
  {
    std::string mutated = model_bytes;
    mutated[mutated.size() / 2] ^= 0x01;
    WriteFileBytes(model_path, mutated);
    std::string why;
    check.Expect(manager->ReloadNow(&why) ==
                     apps::BundleManager::ReloadOutcome::kRolledBack,
                 "on-disk corrupt push did not roll back");
    check.Expect(!why.empty(), "on-disk rollback gave no reason");
    WriteFileBytes(model_path, model_bytes);  // Heal the push.
  }
  check.Expect(manager->reload_degraded(),
               "degraded flag dropped while the last push was still bad");

  // Push 4: healthy → swap; the degraded flag clears, generation advances.
  {
    std::string why;
    check.Expect(manager->ReloadNow(&why) ==
                     apps::BundleManager::ReloadOutcome::kSwapped,
                 "healthy push did not swap: " + why);
  }
  check.ExpectEq(static_cast<int64_t>(manager->generation()), 1,
                 "generation after healthy push");
  check.Expect(!manager->reload_degraded(),
               "successful swap did not clear the degraded flag");

  load.Finish(check, "reload churn");

  check.ExpectEq(CounterValue("service.reload.attempts") - attempts_before, 4,
                 "service.reload.attempts");
  check.ExpectEq(CounterValue("service.reload.rollbacks") - rollbacks_before,
                 3, "service.reload.rollbacks");
  check.ExpectEq(CounterValue("service.reload.success") - success_before, 1,
                 "service.reload.success");
}

// --- Scenario: /healthz tracks a rollback window ---------------------------

/// The external health contract (DESIGN.md §10): the embedded /healthz
/// endpoint must answer 503 for exactly the degraded window a corrupt push
/// opens — from the rollback until the next healthy swap — and 200 outside
/// it, while a concurrent prober hammers the endpoint throughout. /metrics
/// must expose the rollback counter in Prometheus form the whole time.
void RunHealthzDuringRollback(Checker& check) {
  std::unique_ptr<apps::BundleManager> manager =
      BootFixtureBundle(check, ScratchPath("healthz_bundle"));
  if (manager == nullptr) return;
  std::string error;

  // The standalone telemetry endpoint: a bare HttpServer mounting the
  // admin routes, on an ephemeral port so parallel CI runs cannot collide.
  apps::AdminRoutes admin;
  admin.AddHealthProvider(apps::BundleManagerHealth("bundle", manager.get()));
  apps::HttpServer telemetry;
  check.Expect(telemetry.Start({}, admin.StandaloneHandler(), &error),
               "telemetry server start failed: " + error);
  if (!telemetry.running()) return;
  const int port = telemetry.port();

  // Healthy boot: 200 with status "ok".
  {
    const auto [status, body] = GetHealthz(check, port, "at boot");
    check.ExpectEq(status, 200, "healthz status at boot");
    check.Expect(body.find("\"status\":\"ok\"") != std::string::npos,
                 "healthz body at boot: " + body);
  }

  // Concurrent prober for the whole rollback/recovery cycle: every probe
  // must get *some* valid verdict (200 or 503), never a transport error.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> probes{0};
  std::atomic<int64_t> bad_probes{0};
  std::thread prober([&] {
    while (!stop.load(std::memory_order_acquire)) {
      int status = 0;
      std::string body;
      if (!apps::HttpGetOnce(port, "/healthz", &status, &body) ||
          (status != 200 && status != 503)) {
        bad_probes.fetch_add(1, std::memory_order_relaxed);
      }
      probes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Corrupt push → rollback: the degraded window opens and /healthz flips
  // to 503 with the still-serving generation in the body.
  {
    fault::ScopedFaultPlan armed(
        fault::FaultPlan().FailAlways("service.reload.corrupt"), g_base_seed);
    std::string why;
    check.Expect(manager->ReloadNow(&why) ==
                     apps::BundleManager::ReloadOutcome::kRolledBack,
                 "corrupt push did not roll back");
  }
  {
    const auto [status, body] =
        GetHealthz(check, port, "during rollback window");
    check.ExpectEq(status, 503, "healthz status during rollback window");
    check.Expect(body.find("\"status\":\"degraded\"") != std::string::npos,
                 "healthz body during rollback window: " + body);
    check.Expect(body.find("\"generation\":0") != std::string::npos,
                 "healthz generation during rollback window: " + body);
  }

  // /metrics keeps serving Prometheus exposition mid-window, including the
  // rollback counter.
  {
    int status = 0;
    std::string body;
    check.Expect(apps::HttpGetOnce(port, "/metrics", &status, &body),
                 "metrics unreachable during rollback window");
    check.ExpectEq(status, 200, "metrics status during rollback window");
    check.Expect(
        body.find("# TYPE service_reload_rollbacks counter") !=
            std::string::npos,
        "metrics missing rollback counter TYPE line");
    check.Expect(body.find("service_reload_degraded 1") != std::string::npos,
                 "metrics missing degraded gauge = 1");
  }

  // Healthy push → swap: the window closes, /healthz recovers to 200 on the
  // new generation.
  {
    std::string why;
    check.Expect(manager->ReloadNow(&why) ==
                     apps::BundleManager::ReloadOutcome::kSwapped,
                 "healthy push did not swap: " + why);
  }
  {
    const auto [status, body] = GetHealthz(check, port, "after recovery");
    check.ExpectEq(status, 200, "healthz status after recovery");
    check.Expect(body.find("\"status\":\"ok\"") != std::string::npos,
                 "healthz body after recovery: " + body);
    check.Expect(body.find("\"generation\":1") != std::string::npos,
                 "healthz generation after recovery: " + body);
  }

  stop.store(true, std::memory_order_release);
  prober.join();
  apps::StopAdminServer(&telemetry);
  check.Expect(probes.load() > 0, "concurrent prober never completed a probe");
  check.ExpectEq(bad_probes.load(), 0,
                 "probes with transport errors or unexpected statuses");
}

// --- Scenario: sharded reload under live HTTP load --------------------------

/// The sharded query engine's reload contract (DESIGN.md §11) under real
/// HTTP load: pipelined keep-alive clients hammer `/query` while every
/// shard's bundle is reloaded — once with `service.reload.corrupt` armed
/// (every shard rolls back) and once clean (every shard swaps). The checks:
/// zero non-200 answers on `/query` throughout (the never-drop contract —
/// a reload must not surface as a 5xx), `/healthz` reads 503 exactly inside
/// the degraded window and 200 outside it, and the
/// `service.reload.rollbacks` / `service.reload.success` counter deltas
/// equal the per-shard outcome counts the reload pass reported.
void RunShardReloadUnderLoad(Checker& check) {
  Fixture& fx = GetFixture();
  const std::string dir = ScratchPath("shard_reload_bundle");
  std::string error;
  check.Expect(
      io::SaveBundle(dir, fx.world, fx.data, fx.samples, *fx.method, &error),
      "fixture bundle save failed: " + error);

  constexpr int kShards = 2;
  apps::QueryEngine::Options options;
  options.bundle_dir = dir;
  options.num_shards = kShards;
  std::unique_ptr<apps::QueryEngine> engine =
      apps::QueryEngine::Create(options, &error);
  check.Expect(engine != nullptr, "query engine boot failed: " + error);
  if (engine == nullptr) return;
  const int port = engine->port();
  const int64_t address_count =
      static_cast<int64_t>(fx.world.addresses.size());

  // Continuous pipelined /query load: every response must be 200 no matter
  // what the control thread does to the shards' bundles.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> answered{0};
  std::atomic<int64_t> non_200{0};
  std::atomic<int64_t> transport_errors{0};
  std::thread load([&] {
    apps::HttpClient client;
    if (!client.Connect(port)) {
      transport_errors.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    int64_t cursor = 0;
    constexpr int kPipeline = 8;
    while (!stop.load(std::memory_order_acquire)) {
      std::string burst;
      for (int i = 0; i < kPipeline; ++i) {
        burst += "GET /query?address_id=" + std::to_string(cursor) +
                 " HTTP/1.1\r\nHost: h\r\n\r\n";
        cursor = (cursor + 13) % address_count;
      }
      if (!client.SendRaw(burst)) {
        transport_errors.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      for (int i = 0; i < kPipeline; ++i) {
        int status = 0;
        std::string body;
        if (!client.ReadResponse(&status, &body)) {
          transport_errors.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        if (status != 200) non_200.fetch_add(1, std::memory_order_relaxed);
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // Bounded wait for the load to actually flow before churning reloads.
  auto wait_for_answers = [&](int64_t target, const char* when) {
    for (int spin = 0; spin < 5000 && answered.load() < target; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    check.Expect(answered.load() >= target,
                 std::string("query load stalled ") + when);
  };
  wait_for_answers(32, "before the first reload");

  const int64_t rollbacks_before = CounterValue("service.reload.rollbacks");
  const int64_t success_before = CounterValue("service.reload.success");

  // Healthy boot: /healthz is 200 with every shard on generation 0.
  {
    const auto [status, body] = GetHealthz(check, port, "at boot");
    check.ExpectEq(status, 200, "healthz status at boot");
    check.Expect(body.find("\"status\":\"ok\"") != std::string::npos &&
                     body.find("{\"name\":\"shard.1\",\"ok\":true,"
                               "\"generation\":0") != std::string::npos,
                 "healthz body at boot: " + body);
  }

  // Corrupt push under load: every shard rolls back, the degraded window
  // opens, and /query keeps answering 200 throughout.
  {
    fault::ScopedFaultPlan armed(
        fault::FaultPlan().FailAlways("service.reload.corrupt"), g_base_seed);
    const apps::QueryEngine::ReloadSummary summary =
        engine->ReloadShardsNow(&error);
    check.ExpectEq(summary.rolled_back, kShards,
                   "shards rolled back on corrupt push");
    check.ExpectEq(summary.swapped, 0, "shards swapped on corrupt push");
  }
  check.Expect(engine->AnyShardDegraded(),
               "corrupt push did not open the degraded window");
  check.ExpectEq(CounterValue("service.reload.rollbacks") - rollbacks_before,
                 kShards, "service.reload.rollbacks == rolled-back shards");
  {
    const auto [status, body] =
        GetHealthz(check, port, "during rollback window");
    check.ExpectEq(status, 503, "healthz status during rollback window");
    check.Expect(body.find("\"status\":\"degraded\"") != std::string::npos &&
                     body.find("{\"name\":\"shard.1\",\"ok\":false,"
                               "\"generation\":0") != std::string::npos,
                 "healthz body during rollback window: " + body);
  }
  wait_for_answers(answered.load() + 32, "inside the rollback window");

  // Healthy push under load: every shard swaps, the window closes.
  {
    const apps::QueryEngine::ReloadSummary summary =
        engine->ReloadShardsNow(&error);
    check.ExpectEq(summary.swapped, kShards,
                   "shards swapped on healthy push: " + error);
    check.ExpectEq(summary.rolled_back, 0,
                   "shards rolled back on healthy push");
  }
  check.Expect(!engine->AnyShardDegraded(),
               "healthy push did not close the degraded window");
  check.ExpectEq(CounterValue("service.reload.success") - success_before,
                 kShards, "service.reload.success == swapped shards");
  {
    const auto [status, body] = GetHealthz(check, port, "after recovery");
    check.ExpectEq(status, 200, "healthz status after recovery");
    check.Expect(body.find("\"status\":\"ok\"") != std::string::npos &&
                     body.find("{\"name\":\"shard.1\",\"ok\":true,"
                               "\"generation\":1") != std::string::npos,
                 "healthz body after recovery: " + body);
  }
  wait_for_answers(answered.load() + 32, "after recovery");

  stop.store(true, std::memory_order_release);
  load.join();
  engine->Stop();
  check.Expect(answered.load() > 0, "query load never answered anything");
  check.ExpectEq(transport_errors.load(), 0,
                 "transport errors under reload churn");
  check.ExpectEq(non_200.load(), 0,
                 "non-200 /query answers under reload churn (5xx contract)");
}

// --- Scenario: streaming ingest + online loop under faults ------------------

/// The streaming loop's degradation contract (DESIGN.md §13) end to end:
/// sustained point-at-a-time ingest with `stream.ingest.*` faults armed
/// (drops, duplicates, latency) must absorb every trip; the online retrain
/// rounds over the faulted stream must publish servable bundles; and the
/// publication path into the hot-reload watcher must honor the same
/// rollback contract as offline pushes — a corrupt publication rolls back
/// (degraded /healthz window, counters exact) while a background QueryBatch
/// load never sees a dropped or non-finite answer, and an injected
/// `stream.publish.fail` surfaces as a counted typed error, not a crash.
void RunStreamIngestUnderFaults(Checker& check) {
  Fixture& fx = GetFixture();
  const std::string dir = ScratchPath("stream_chaos_bundle");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  // Phase 1: sustained ingest with the stream fault points armed.
  stream::StreamIngestor ingestor(fx.world, {});
  const int64_t points_before = CounterValue("stream.ingest.points");
  const int64_t dropped_before = CounterValue("stream.ingest.dropped_points");
  const int64_t dup_before = CounterValue("stream.ingest.duplicated_points");
  int64_t raw_points = 0;
  {
    fault::FaultPlan plan;
    plan.FailWithProbability("stream.ingest.drop_point", 0.05)
        .FailWithProbability("stream.ingest.duplicate_point", 0.03)
        .Inject({.point = "stream.ingest.latency",
                 .probability = 0.0005,
                 .latency_ms = 1.0});
    fault::ScopedFaultPlan armed(plan, g_base_seed);
    for (const sim::DeliveryTrip& trip : fx.world.trips) {
      raw_points += static_cast<int64_t>(trip.trajectory.size());
      ingestor.ReplayTrip(trip);
    }
  }
  const int64_t drops = fault::FireCount("stream.ingest.drop_point");
  const int64_t dups = fault::FireCount("stream.ingest.duplicate_point");
  check.Expect(drops > 0, "stream.ingest.drop_point never fired");
  check.Expect(dups > 0, "stream.ingest.duplicate_point never fired");
  check.Expect(fault::HitCount("stream.ingest.latency") > 0,
               "stream.ingest.latency never hit");
  check.ExpectEq(ingestor.num_trips(),
                 static_cast<int64_t>(fx.world.trips.size()),
                 "every trip ingested despite stream faults");
  check.ExpectEq(CounterValue("stream.ingest.dropped_points") - dropped_before,
                 drops, "stream.ingest.dropped_points == drop fires");
  check.ExpectEq(CounterValue("stream.ingest.duplicated_points") - dup_before,
                 dups, "stream.ingest.duplicated_points == duplicate fires");
  // Delivered = raw - drops + duplicate redeliveries, exactly.
  check.ExpectEq(CounterValue("stream.ingest.points") - points_before,
                 raw_points - drops + dups,
                 "stream.ingest.points accounting");
  check.Expect(ingestor.updater().num_stay_points() > 0,
               "faulted stream produced no stay points");

  // Phase 2: online round 1 over the faulted stream publishes the boot
  // bundle (faults disarmed: publication itself is healthy here).
  stream::OnlineTrainer::Options trainer_options;
  trainer_options.train.max_epochs = 2;
  trainer_options.train.early_stop_patience = 2;
  trainer_options.publish_dir = dir;
  stream::OnlineTrainer trainer(trainer_options);
  {
    const stream::OnlineTrainer::RoundResult round =
        trainer.Retrain(ingestor.world(), ingestor.Snapshot());
    check.Expect(round.trained, "round 1 skipped: " + round.skip_reason);
    check.Expect(round.published,
                 "round 1 publish failed: " + round.publish_error);
    if (!round.published) return;
  }

  // Serve the published bundle through the hot-reload watcher. Online
  // rounds legitimately drift from the boot generation, so the shadow
  // probes only gate on sanity (finite, in-bounds), not agreement.
  apps::BundleManager::Config config;
  config.dir = dir;
  config.min_agree_fraction = 0.0;
  std::string error;
  std::unique_ptr<apps::BundleManager> manager =
      apps::BundleManager::Create(config, &error);
  check.Expect(manager != nullptr, "bundle manager boot failed: " + error);
  if (manager == nullptr) return;

  apps::AdminRoutes admin;
  admin.AddHealthProvider(apps::BundleManagerHealth("bundle", manager.get()));
  apps::HttpServer telemetry;
  check.Expect(telemetry.Start({}, admin.StandaloneHandler(), &error),
               "telemetry server start failed: " + error);
  if (!telemetry.running()) return;
  const int port = telemetry.port();

  // Background QueryBatch load for the whole publish/reload cycle: the
  // zero-dropped-queries contract, regardless of what the publication side
  // does.
  BackgroundQueryLoad load(manager.get());

  const int64_t attempts_before = CounterValue("service.reload.attempts");
  const int64_t success_before = CounterValue("service.reload.success");
  const int64_t rollbacks_before = CounterValue("service.reload.rollbacks");
  const int64_t publish_failures_before =
      CounterValue("stream.publish.failures");
  check.ExpectEq(GetHealthz(check, port, "at boot").status, 200,
                 "healthz status at boot");

  // Round 2: a healthy online publication swaps in under load.
  {
    const stream::OnlineTrainer::RoundResult round =
        trainer.Retrain(ingestor.world(), ingestor.Snapshot());
    check.Expect(round.trained && round.published,
                 "round 2 did not publish: " + round.skip_reason +
                     round.publish_error);
    check.Expect(manager->ReloadNow(&error) ==
                     apps::BundleManager::ReloadOutcome::kSwapped,
                 "healthy online publication did not swap: " + error);
  }
  check.ExpectEq(static_cast<int64_t>(manager->generation()), 1,
                 "generation after healthy online publication");
  check.ExpectEq(GetHealthz(check, port, "after round 2 swap").status, 200,
                 "healthz status after round 2 swap");

  // Corrupt publication: one flipped payload byte in the pushed model
  // artifact must take the rollback path and open the degraded window.
  const std::string model_path = dir + "/model.art";
  const std::string model_bytes = ReadFileBytes(model_path);
  check.Expect(model_bytes.size() > 64, "published model implausibly small");
  {
    std::string mutated = model_bytes;
    mutated[mutated.size() / 2] ^= 0x01;
    WriteFileBytes(model_path, mutated);
    check.Expect(manager->ReloadNow(&error) ==
                     apps::BundleManager::ReloadOutcome::kRolledBack,
                 "corrupt online publication did not roll back");
  }
  check.Expect(manager->reload_degraded(),
               "corrupt publication did not raise the degraded flag");
  check.ExpectEq(GetHealthz(check, port, "during rollback window").status, 503,
                 "healthz status during rollback window");

  // Injected publication failure: the round trains but reports a typed
  // publish error, leaving the (corrupt) on-disk push untouched.
  {
    fault::ScopedFaultPlan armed(
        fault::FaultPlan().FailAlways("stream.publish.fail"), g_base_seed);
    const stream::OnlineTrainer::RoundResult round =
        trainer.Retrain(ingestor.world(), ingestor.Snapshot());
    check.Expect(round.trained, "round 3 skipped: " + round.skip_reason);
    check.Expect(!round.published && !round.publish_error.empty(),
                 "injected stream.publish.fail did not surface");
  }
  check.ExpectEq(CounterValue("stream.publish.failures") -
                     publish_failures_before,
                 1, "stream.publish.failures");
  check.ExpectEq(
      GetHealthz(check, port, "while last push still bad").status, 503,
      "healthz while the last push is still bad");

  // Heal the push: the degraded window closes on the next reload.
  WriteFileBytes(model_path, model_bytes);
  check.Expect(manager->ReloadNow(&error) ==
                   apps::BundleManager::ReloadOutcome::kSwapped,
               "healed publication did not swap: " + error);
  check.Expect(!manager->reload_degraded(),
               "healed swap did not clear the degraded flag");
  check.ExpectEq(GetHealthz(check, port, "after recovery").status, 200,
                 "healthz status after recovery");

  load.Finish(check, "publication churn");
  apps::StopAdminServer(&telemetry);
  check.ExpectEq(CounterValue("service.reload.attempts") - attempts_before, 3,
                 "service.reload.attempts");
  check.ExpectEq(CounterValue("service.reload.success") - success_before, 2,
                 "service.reload.success");
  check.ExpectEq(CounterValue("service.reload.rollbacks") - rollbacks_before,
                 1, "service.reload.rollbacks");
}

// --- Scenario: kill -9 mid network ingest, recover from the WAL -------------

namespace ingest_chaos {

/// POSTs one batch; returns the HTTP status, -1 on transport failure.
int PostBatch(apps::HttpClient* client, const std::string& body) {
  if (!client->SendPost("/ingest", body)) return -1;
  int status = 0;
  std::string response;
  if (!client->ReadResponse(&status, &response)) return -1;
  return status;
}

/// True when the two ingestors mined byte-identical stay-point lists.
bool StaysBitIdentical(const stream::StreamIngestor& a,
                       const stream::StreamIngestor& b) {
  const auto stays_a = a.Snapshot().stay_points();
  const auto stays_b = b.Snapshot().stay_points();
  if (stays_a.size() != stays_b.size()) return false;
  for (size_t i = 0; i < stays_a.size(); ++i) {
    if (std::memcmp(&stays_a[i], &stays_b[i], sizeof(StayPoint)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace ingest_chaos

/// The durable-ingestion crash contract (DESIGN.md §14): a node SIGKILL'd
/// mid network ingest must restart from its WAL with every acked record
/// intact (recovered == acked, cross-checked against stream.ingest.*), ack
/// the producer's retry of the in-flight batch as an exact dedup no-op, and
/// finish the stream with stay points bit-identical to a run that was never
/// killed. A full disk after the restart must read as 503 on both /ingest
/// and /healthz, and both must return to 200 once appends succeed again.
void RunKillMidIngestRecover(Checker& check) {
  Fixture& fx = GetFixture();
  sim::World city = fx.world;
  city.trips.clear();

  const std::string dir = ScratchPath("ingest_kill_wal");
  const std::string golden_dir = ScratchPath("ingest_kill_wal_golden");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::remove_all(golden_dir, ec);

  uint64_t seq = 0;
  std::vector<std::string> bodies;
  for (const sim::DeliveryTrip& trip : fx.world.trips) {
    bodies.push_back(stream::JoinLines(stream::TripLines("chaos", trip, &seq)));
  }
  const size_t kill_after = bodies.size() / 2;

  // Golden run: the same stream against a server that is never killed.
  stream::IngestServer::Options golden_options;
  golden_options.wal.dir = golden_dir;
  golden_options.city = city;
  stream::IngestServer golden(golden_options);
  std::string error;
  check.Expect(golden.Start(&error), "golden ingest start: " + error);
  if (!golden.running()) return;
  {
    apps::HttpClient client;
    check.Expect(client.Connect(golden.port(), &error),
                 "golden connect: " + error);
    for (const std::string& body : bodies) {
      check.ExpectEq(ingest_chaos::PostBatch(&client, body), 200,
                     "golden ingest batch status");
    }
  }
  golden.Stop();

  // Chaos run, phase 1: stream half, then die like SIGKILL (no fsync, no
  // drain, a torn tail may remain).
  const int64_t acked_counter_before = CounterValue("stream.ingest.acked");
  int64_t acked_at_kill = 0;
  {
    stream::IngestServer::Options options;
    options.wal.dir = dir;
    options.city = city;
    stream::IngestServer server(options);
    check.Expect(server.Start(&error), "ingest start: " + error);
    if (!server.running()) return;
    apps::HttpClient client;
    check.Expect(client.Connect(server.port(), &error),
                 "ingest connect: " + error);
    for (size_t i = 0; i < kill_after; ++i) {
      check.ExpectEq(ingest_chaos::PostBatch(&client, bodies[i]), 200,
                     "pre-kill batch status");
    }
    acked_at_kill = server.stats().acked;
    server.CrashForTest();
  }

  // Phase 2: restart on the same WAL dir. Every acked record is recovered
  // — the exact cross-check of the durability contract.
  const int64_t recovered_before = CounterValue("stream.ingest.recovered");
  stream::IngestServer::Options options;
  options.wal.dir = dir;
  options.city = city;
  stream::IngestServer server(options);
  check.Expect(server.Start(&error), "ingest restart: " + error);
  if (!server.running()) return;
  check.ExpectEq(server.stats().recovered, acked_at_kill,
                 "records recovered after kill == records acked before");
  check.ExpectEq(CounterValue("stream.ingest.recovered") - recovered_before,
                 acked_at_kill, "stream.ingest.recovered counter");

  // Phase 3: the producer retries its last acked batch (it never saw the
  // crash) — an exact dedup no-op — then streams the rest. The first fresh
  // batch first meets a full disk: refused with 503 while /healthz reads
  // 503 too; the loop then resends it once the disk has room.
  const int64_t deduped_before = CounterValue("stream.ingest.deduped");
  {
    apps::HttpClient client;
    check.Expect(client.Connect(server.port(), &error),
                 "post-restart connect: " + error);
    if (kill_after > 0) {
      check.ExpectEq(ingest_chaos::PostBatch(&client, bodies[kill_after - 1]),
                     200, "retried batch status");
    }
    if (kill_after < bodies.size()) {
      fault::ScopedFaultPlan armed(
          fault::FaultPlan().FailAlways("wal.disk_full"), g_base_seed);
      check.ExpectEq(ingest_chaos::PostBatch(&client, bodies[kill_after]),
                     503, "batch status while the disk is full");
      check.ExpectEq(GetHealthz(check, server.port(), "while the disk is full")
                         .status,
                     503, "healthz while the disk is full");
    }
    for (size_t i = kill_after; i < bodies.size(); ++i) {
      check.ExpectEq(ingest_chaos::PostBatch(&client, bodies[i]), 200,
                     "post-restart batch status");
    }
  }
  check.ExpectEq(
      GetHealthz(check, server.port(), "after the disk recovers").status, 200,
      "healthz after the disk recovers");
  server.Stop();

  int64_t retried_records = 0;
  if (kill_after > 0) {
    for (char c : bodies[kill_after - 1]) retried_records += c == '\n';
  }
  check.ExpectEq(CounterValue("stream.ingest.deduped") - deduped_before,
                 retried_records,
                 "retried batch deduped exactly once per record");
  check.ExpectEq(server.stats().acked + acked_at_kill,
                 static_cast<int64_t>(seq),
                 "acked records across kill == records sent");
  // acked_counter_before was read after the golden run, so the delta covers
  // exactly the killed-and-recovered pair of server instances.
  check.ExpectEq(CounterValue("stream.ingest.acked") - acked_counter_before,
                 static_cast<int64_t>(seq),
                 "stream.ingest.acked counter across the kill");
  check.Expect(ingest_chaos::StaysBitIdentical(server.ingestor(),
                                               golden.ingestor()),
               "stay points after kill/recover != never-killed run");
}

// --- Scenario: corrupt WAL tail is truncated, serving continues -------------

/// The WAL corruption contract (DESIGN.md §14): a bit-flipped or torn tail
/// frame yields a typed replay stop (never a crash), recovery truncates at
/// exactly the last whole frame (wal.truncated_bytes counts the discarded
/// tail), and the reopened log accepts appends whose replay returns the
/// clean prefix plus the new records.
void RunWalCorruptTailTruncate(Checker& check) {
  const std::string dir = ScratchPath("wal_corrupt_tail");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  stream::WalOptions options;
  options.dir = dir;
  const int kRecords = 24;
  {
    std::optional<stream::WalWriter> writer = stream::WalWriter::Open(options);
    check.Expect(writer.has_value(), "wal open failed");
    if (!writer) return;
    std::string error;
    for (int i = 0; i < kRecords; ++i) {
      check.Expect(writer->Append(1, "record-" + std::to_string(i), &error),
                   "wal append: " + error);
    }
    writer->AbandonForCrashTest();  // SIGKILL: bytes stay, no fsync.
  }
  const std::string segment_path =
      dir + "/" + io::WalSegmentFileName(0);

  // Corrupt the tail: flip one bit inside the last frame's payload.
  std::string bytes = ReadFileBytes(segment_path);
  check.Expect(bytes.size() > io::kWalSegmentHeaderSize,
               "wal segment unexpectedly empty");
  if (bytes.size() <= io::kWalSegmentHeaderSize) return;
  bytes[bytes.size() - 2] = static_cast<char>(bytes[bytes.size() - 2] ^ 0x10);
  WriteFileBytes(segment_path, bytes);

  // Replay stops at the last whole frame with a typed status — never an
  // abort — and reports the poisoned tail exactly.
  stream::WalReplayStats stats;
  std::string error;
  int64_t replayed = 0;
  check.Expect(
      stream::ReplayWal(options,
                        [&](uint64_t, uint32_t, const std::string&) {
                          ++replayed;
                        },
                        &stats, &error),
      "replay over corrupt tail reported an environmental error: " + error);
  check.ExpectEq(replayed, kRecords - 1, "clean-prefix frames replayed");
  check.Expect(stats.tail_status == io::WalStatus::kBadCrc,
               "corrupt tail status != kBadCrc");

  // Reopen for append: the poisoned tail is truncated (counted), and the
  // log keeps serving appends.
  const int64_t truncated_before = CounterValue("wal.truncated_bytes");
  {
    std::optional<stream::WalWriter> writer =
        stream::WalWriter::Open(options, &error);
    check.Expect(writer.has_value(), "wal reopen after corruption: " + error);
    if (!writer) return;
    check.Expect(writer->Append(1, "post-corruption", &error),
                 "append after truncation: " + error);
    writer->Close();
  }
  const int64_t truncated_bytes =
      CounterValue("wal.truncated_bytes") - truncated_before;
  check.Expect(truncated_bytes > 0, "truncated tail was not counted");

  stream::WalReplayStats stats_after;
  std::vector<std::string> payloads;
  check.Expect(
      stream::ReplayWal(options,
                        [&](uint64_t, uint32_t, const std::string& payload) {
                          payloads.push_back(payload);
                        },
                        &stats_after, &error),
      "replay after truncation failed: " + error);
  check.ExpectEq(static_cast<int64_t>(payloads.size()), kRecords,
                 "frames after truncate + append");
  check.Expect(stats_after.tail_status == io::WalStatus::kEof,
               "reopened log does not end clean");
  check.Expect(!payloads.empty() && payloads.back() == "post-corruption",
               "post-truncation append not replayed last");
  // The truncate point is exactly the last whole frame: the poisoned
  // record is gone, its predecessor survives.
  check.Expect(payloads.size() >= 2 &&
                   payloads[payloads.size() - 2] ==
                       "record-" + std::to_string(kRecords - 2),
               "truncate point is not the last whole frame");
}

// --- Registry and driver ---------------------------------------------------

struct Scenario {
  const char* name;
  const char* description;
  bool smoke;  ///< Member of the fast suite (full runs everything).
  void (*run)(Checker&);
};

constexpr Scenario kScenarios[] = {
    {"disk_corruption", "4 on-disk corruption classes -> typed errors", true,
     RunDiskCorruption},
    {"io_faults", "injected short read / bit flip / stale version / write "
                  "fail -> typed errors + exact counters",
     true, RunIoFaults},
    {"tier_fail_address", "address tier fails K times -> K degraded answers",
     true, RunTierFailAddress},
    {"tier_fail_both", "both KV tiers down -> geocode answers everything",
     false, RunTierFailBoth},
    {"tier_latency", "slow address tier blows its deadline -> degrade", false,
     RunTierLatency},
    {"retry_recovers", "transient failure absorbed by one retry", false,
     RunRetryRecovers},
    {"dirty_gps_pipeline", "train -> corrupt -> serve with GPS faults armed",
     false, RunDirtyGpsPipeline},
    {"kill_mid_train_resume",
     "kill at a checkpoint boundary -> resume bit-identical", false,
     RunKillMidTrainResume},
    {"corrupt_push_rollback",
     "corrupt/invalid bundle pushes roll back under query load", false,
     RunCorruptPushRollback},
    {"healthz_during_rollback",
     "/healthz answers 503 for exactly the rollback window", false,
     RunHealthzDuringRollback},
    {"shard_reload_under_load",
     "per-shard reload churn under live HTTP load -> zero non-200", false,
     RunShardReloadUnderLoad},
    {"stream_ingest_under_faults",
     "streamed ingest + online publish under stream.* faults -> rollback "
     "contract, zero dropped queries",
     false, RunStreamIngestUnderFaults},
    {"kill_mid_ingest_recover",
     "kill -9 mid network ingest -> WAL recovery, dedup'd retry, "
     "bit-identical stay points",
     false, RunKillMidIngestRecover},
    {"wal_corrupt_tail_truncate",
     "bit-flipped WAL tail -> typed stop, exact truncate point, appends "
     "continue",
     false, RunWalCorruptTailTruncate},
};

int RunScenarios(const std::vector<const Scenario*>& selected) {
  int failed = 0;
  for (const Scenario* scenario : selected) {
    Checker check;
    scenario->run(check);
    fault::Disarm();  // Belt and braces: no scenario leaks an armed plan.
    if (check.failures.empty()) {
      std::printf("PASS  %-20s %s\n", scenario->name, scenario->description);
    } else {
      ++failed;
      std::printf("FAIL  %-20s %s\n", scenario->name, scenario->description);
      for (const std::string& failure : check.failures) {
        std::printf("      - %s\n", failure.c_str());
      }
    }
  }
  std::printf("%d/%d scenarios passed\n",
              static_cast<int>(selected.size()) - failed,
              static_cast<int>(selected.size()));
  return failed == 0 ? 0 : 1;
}

constexpr FlagSpec kFlags[] = {{"--suite", FlagType::kString},
                               {"--scenario", FlagType::kString},
                               {"--seed", FlagType::kUint64},
                               {"--list", FlagType::kBool},
                               {"--help", FlagType::kBool},
                               {"-h", FlagType::kBool}};

int Main(int argc, char** argv) {
  std::string error;
  const std::optional<Flags> flags =
      Flags::Parse(kFlags, std::span<char* const>(argv + 1, argc - 1), &error);
  if (!flags) {
    std::fprintf(stderr, "error: %s (try --help)\n", error.c_str());
    return 2;
  }
  if (flags->Has("--help") || flags->Has("-h")) {
    std::printf(
        "usage: chaos_runner [--suite smoke|full] [--scenario NAME] "
        "[--seed S] [--list]\n");
    return 0;
  }
  const std::string suite = flags->Str("--suite", "smoke");
  const std::string only = flags->Str("--scenario");
  g_base_seed = flags->Uint64("--seed", g_base_seed);

  if (flags->Has("--list")) {
    for (const Scenario& scenario : kScenarios) {
      std::printf("%-20s [%s] %s\n", scenario.name,
                  scenario.smoke ? "smoke" : "full ", scenario.description);
    }
    return 0;
  }

  std::vector<const Scenario*> selected;
  for (const Scenario& scenario : kScenarios) {
    if (!only.empty()) {
      if (only == scenario.name) selected.push_back(&scenario);
    } else if (suite == "full" || scenario.smoke) {
      selected.push_back(&scenario);
    }
  }
  if (suite != "smoke" && suite != "full") {
    std::fprintf(stderr, "unknown suite '%s' (smoke|full)\n", suite.c_str());
    return 2;
  }
  if (selected.empty()) {
    std::fprintf(stderr, "no scenario matches\n");
    return 2;
  }
  return RunScenarios(selected);
}

}  // namespace
}  // namespace dlinf

int main(int argc, char** argv) { return dlinf::Main(argc, argv); }
