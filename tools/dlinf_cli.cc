// dlinf_cli — command-line driver for the DLInfMA pipeline.
//
//   dlinf_cli generate --preset dowbj|subbj [--days N] [--seed S] --out FILE
//       Synthesize a dataset and save it as one checksummed world artifact
//       (io::SaveWorldArtifact; by convention world.art). Every --world and
//       --city flag below reads this file; real trips enter through
//       `stream --listen`'s POST /ingest instead.
//
//   dlinf_cli stats --world FILE
//       Print dataset statistics (Table I style).
//
//   dlinf_cli train --world FILE --bundle DIR [--quick]
//              [--ckpt FILE [--ckpt-every N] [--resume [FILE]]]
//       The offline pipeline: candidate generation + feature extraction,
//       train LocMatcher on the train/val splits, report test metrics, then
//       persist the full artifact bundle (world, candidate pool + retrieval
//       indexes, feature tensors, checksummed model weights; see
//       io/bundle.h) so that serve/infer warm-start without retraining.
//       --ckpt writes a crash-safe CKPT artifact (io/checkpoint.h) every N
//       epochs (default 5); --resume restores it first, so a killed run
//       finishes bit-identical to an uninterrupted one.
//
//   dlinf_cli serve --bundle DIR [--queries N] [--batch B] [--threads T]
//              [--poll-every K]
//              [--telemetry-port P [--trace-sample R] [--linger-seconds S]]
//              [--shards N [--port P] [--serve-seconds S] [--poll-every K]]
//       The online service: warm-start from the bundle (milliseconds, no
//       retraining) through the hot-reload BundleManager
//       (apps/bundle_manager.h), build the 3-tier delivery-location
//       service, then answer N address queries (default 10000) in batches
//       of B (default 256) on T pool threads (default 4) through the
//       QueryBatch API, reporting per-batch latency. Every K batches
//       (default 8) the bundle directory is polled: a fresh push is staged,
//       shadow-validated and swapped in with zero downtime, and a bad push
//       rolls back to the live bundle. --telemetry-port starts the
//       standalone telemetry endpoint (port 0 picks a free port) serving
//       the shared admin routes (apps/admin_routes.h; the startup line
//       lists them), arms trace recording at sampling rate R (default
//       0.01), and keeps the process (and the endpoint) alive S extra
//       seconds after the query load finishes so external scrapers can read
//       the final state. With --shards N the command instead boots the
//       sharded HTTP query engine (DESIGN.md §11): N shards answered by
//       one epoll event loop on --port P (default 0 = ephemeral), serving
//       /query, /query_batch, /inventory and the admin routes until
//       --serve-seconds S elapses (default 0 = until SIGINT/SIGTERM),
//       polling for bundle pushes every --poll-every K seconds, then stops
//       the engine and prints its final counters; drive it with
//       tools/load_gen.
//
//   dlinf_cli infer --bundle DIR --out FILE.csv
//       Write the inferred delivery location of every delivered address as
//       CSV (address_id,x,y); the whole pipeline state is warm-started from
//       the bundle's artifacts.
//
//   dlinf_cli stream --world FILE --publish-dir DIR [--retrain-every N]
//              [--max-trips M] [--rate R] [--quick] [--epochs E]
//              [--watch [--agree-frac F]] [--ckpt FILE [--ckpt-every K]]
//              [--telemetry-port P [--linger-seconds S]]
//       The streaming ingestion + online learning loop (DESIGN.md §13):
//       replay the world's recorded trips as a live GPS feed, one point at
//       a time, through the incremental stay-point detector and candidate
//       index (src/stream). Every N completed trips (and once at end of
//       stream; default N=0 means end-of-stream only) an online retrain
//       round runs over the accumulated snapshot — warm-started from the
//       previous round's weights — and publishes a fresh artifact bundle
//       into --publish-dir with the manifest-last protocol the hot-reload
//       watcher keys on. --rate R throttles the replay to R points/second
//       (0 = full speed). --quick caps rounds at 20 epochs (--epochs
//       overrides exactly). --watch additionally boots a BundleManager on
//       the publish directory after the first publication and hot-reloads
//       it after each subsequent one, printing swap/rollback outcomes
//       (--agree-frac relaxes the shadow-validation agreement threshold;
//       online rounds legitimately drift from the boot generation).
//       --ckpt writes a crash-safe CKPT artifact every K epochs during
//       each round, so a round killed mid-training resumes without losing
//       accumulated samples (`dlinf_cli train --resume` semantics).
//       --telemetry-port starts the telemetry endpoint (the admin routes)
//       up front, so scrapers watch stream.ingest.* counters live, and
//       keeps it up S extra seconds after the feed drains.
//
//   dlinf_cli stream --listen PORT --wal-dir DIR [--city FILE]
//              [--serve-seconds S] [--fsync-every N] [--fsync-interval S]
//              [--segment-bytes B] [--snapshot-every K]
//       Durable network ingestion (DESIGN.md §14): instead of replaying a
//       recorded world, serve POST /ingest, /ingest/stats and the admin
//       routes on PORT (0 = ephemeral) and stream whatever producers send
//       through the same incremental pipeline. Each POST is parsed,
//       WAL-committed under --wal-dir, applied and acked on the one
//       ingest.loop thread (no queue: a producer that outruns it meets TCP
//       backpressure, and an fsync holds up every connection); on startup the
//       WAL (plus the newest state snapshot, written every K segment
//       rotations) is replayed, so a kill -9'd listener resumes with zero
//       acked-record loss — drive it with `load_gen --ingest`. --city
//       seeds the static world (station, buildings, addresses) from a
//       world artifact, its trips dropped; the default is the built-in
//       synthetic city. Mutually exclusive with --world. Serves until S
//       elapses (0 = until SIGINT/SIGTERM), then stops and prints the
//       final counters.
//
//   dlinf_cli evaluate --world FILE [--quick]
//       Compare DLInfMA against the heuristic baselines on the test split.
//
//   Any command additionally accepts --metrics [FILE]: after the command
//   finishes, dump the process metrics registry (pipeline stage timers,
//   service tier hits, thread-pool stats; see DESIGN.md §6) as JSON to FILE,
//   or to stdout when no FILE is given. Two more global telemetry flags
//   (DESIGN.md §10):
//     --trace-out FILE   record every span/instant event (sampling rate 1)
//                        for the whole command and write Chrome trace-event
//                        JSON to FILE on exit (open in Perfetto).
//     --log-json [FILE]  emit structured JSON-lines telemetry (per-epoch
//                        training stats, reload transitions, degradation
//                        warnings) to FILE, or stderr when no FILE given.
//     --profile-out FILE arm the sampling CPU profiler (DESIGN.md §15) for
//                        the whole command and write the collapsed-stack
//                        ("folded") profile to FILE on exit — feed it to
//                        flamegraph.pl. FILE ending in .json writes the
//                        Chrome-trace merge (samples + spans) instead.
//     --profile-hz H     sampling rate for --profile-out (default 99).
//
//   Each command accepts only its own flags plus these global ones
//   (common/flags.h): an unknown flag, a stray argument, a missing value
//   or a malformed or out-of-range number prints one line naming it and
//   exits 2.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "apps/admin_routes.h"
#include "apps/bundle_manager.h"
#include "apps/http_conn.h"
#include "apps/location_service.h"
#include "apps/query_engine.h"
#include "baselines/evaluation.h"
#include "baselines/simple_baselines.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "dlinfma/dlinfma_method.h"
#include "dlinfma/inferrer.h"
#include "io/bundle.h"
#include "io/checkpoint.h"
#include "io/codecs.h"
#include "nn/kernels.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/structured_log.h"
#include "obs/trace_log.h"
#include "sim/generator.h"
#include "sim/config.h"
#include "stream/ingest_server.h"
#include "stream/online_trainer.h"
#include "stream/stream_pipeline.h"

namespace {

using namespace dlinf;

int Usage() {
  std::fprintf(stderr,
               "usage: dlinf_cli "
               "<generate|stats|train|serve|infer|stream|evaluate> "
               "[--flags]\n(see the header comment of tools/dlinf_cli.cc)\n");
  return 2;
}

/// Typed user-input validation: a path handed to --world/--bundle/--ckpt
/// must exist (and be the right kind of entry) before any loader touches
/// it, so a typo'd path is a clean one-line error and exit 1 — never a
/// CHECK abort or a cascade of decode errors.
bool PathUsable(const char* what, const std::string& path, bool want_dir) {
  std::error_code ec;
  const std::filesystem::file_status status =
      std::filesystem::status(path, ec);
  if (ec || !std::filesystem::exists(status)) {
    std::fprintf(stderr, "error: %s path %s does not exist or is unreadable\n",
                 what, path.c_str());
    return false;
  }
  if (want_dir && !std::filesystem::is_directory(status)) {
    std::fprintf(stderr, "error: %s path %s is not a directory\n", what,
                 path.c_str());
    return false;
  }
  if (!want_dir && std::filesystem::is_directory(status)) {
    std::fprintf(stderr, "error: %s path %s is a directory, expected a file\n",
                 what, path.c_str());
    return false;
  }
  return true;
}

int CmdGenerate(const Flags& flags) {
  if (!flags.Has("--out")) return Usage();
  sim::SimConfig config = flags.Str("--preset") == "subbj"
                              ? sim::SynSubBJConfig()
                              : sim::SynDowBJConfig();
  config.num_days = flags.Int("--days", config.num_days);
  config.seed = flags.Uint64("--seed", config.seed);
  const std::string out = flags.Str("--out");
  const sim::World world = sim::GenerateWorld(config);
  if (!io::SaveWorldArtifact(world, out)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu addresses, %zu trips, %lld waybills\n",
              out.c_str(), world.addresses.size(), world.trips.size(),
              static_cast<long long>(world.TotalWaybills()));
  return 0;
}

/// Loads the world artifact named by `flag` (--world or --city), which the
/// caller checked is given. Returns nullopt after printing the codec's typed
/// reason (bad magic, kind mismatch, truncated payload, CRC) on failure.
std::optional<sim::World> LoadWorldFlag(const Flags& flags,
                                        const char* flag = "--world") {
  const std::string path = flags.Str(flag);
  if (!PathUsable(flag, path, /*want_dir=*/false)) return std::nullopt;
  std::string error;
  std::optional<sim::World> world = io::LoadWorldArtifact(path, &error);
  if (!world) {
    std::fprintf(stderr, "error: cannot load world: %s\n", error.c_str());
  }
  return world;
}

int CmdStats(const Flags& flags) {
  if (!flags.Has("--world")) return Usage();
  const auto world = LoadWorldFlag(flags);
  if (!world) return 1;
  const dlinfma::Dataset data = dlinfma::BuildDataset(*world, {});
  std::printf("dataset %s\n", world->name.c_str());
  std::printf("  communities        %zu\n", world->communities.size());
  std::printf("  buildings          %zu\n", world->buildings.size());
  std::printf("  addresses          %zu (delivered %zu)\n",
              world->addresses.size(), world->DeliveredAddressIds().size());
  std::printf("  trips              %zu\n", world->trips.size());
  std::printf("  waybills           %lld\n",
              static_cast<long long>(world->TotalWaybills()));
  std::printf("  GPS points         %lld\n",
              static_cast<long long>(world->TotalTrajectoryPoints()));
  std::printf("  stay points        %zu\n", data.gen->stay_points().size());
  std::printf("  candidates         %zu\n", data.gen->candidates().size());
  std::printf("  split train/val/test  %zu/%zu/%zu\n", data.train_ids.size(),
              data.val_ids.size(), data.test_ids.size());
  return 0;
}

int CmdTrain(const Flags& flags) {
  if (!flags.Has("--world") || !flags.Has("--bundle")) return Usage();
  const auto world = LoadWorldFlag(flags);
  if (!world) return 1;

  // Resolve checkpointing flags before any heavy lifting: --resume needs a
  // checkpoint path (its own value, or the one from --ckpt) that names a
  // readable CKPT artifact.
  const std::string ckpt_path = flags.Str("--ckpt");
  std::string resume_path;
  if (flags.Has("--resume")) {
    resume_path = flags.Str("--resume", ckpt_path);
    if (resume_path.empty()) {
      std::fprintf(stderr, "error: --resume needs a checkpoint (pass --ckpt "
                           "FILE or --resume FILE)\n");
      return 1;
    }
    if (!PathUsable("--resume", resume_path, /*want_dir=*/false)) return 1;
  }
  std::optional<dlinfma::TrainCheckpoint> resume_state;
  if (!resume_path.empty()) {
    std::string error;
    resume_state = io::LoadCheckpointArtifact(resume_path, &error);
    if (!resume_state) {
      std::fprintf(stderr, "error: cannot resume from %s: %s\n",
                   resume_path.c_str(), error.c_str());
      return 1;
    }
  }

  const dlinfma::Dataset data = dlinfma::BuildDataset(*world, {});
  const dlinfma::SampleSet samples = dlinfma::ExtractSamples(data, {});

  dlinfma::TrainConfig train_config;
  if (flags.Has("--quick")) {
    train_config.max_epochs = 20;
    train_config.early_stop_patience = 5;
  }
  if (flags.Has("--ckpt")) {
    train_config.checkpoint_every_epochs =
        std::max(1, flags.Int("--ckpt-every", 5));
    train_config.checkpoint_sink =
        [ckpt_path](const dlinfma::TrainCheckpoint& state) {
          return io::SaveCheckpointArtifact(state, ckpt_path);
        };
  }
  if (resume_state) {
    // The trainer CHECKs these invariants; user input gets a typed error.
    if (resume_state->seed != train_config.seed) {
      std::fprintf(stderr,
                   "error: checkpoint %s was written with seed %llu, this "
                   "run uses seed %llu\n",
                   resume_path.c_str(),
                   static_cast<unsigned long long>(resume_state->seed),
                   static_cast<unsigned long long>(train_config.seed));
      return 1;
    }
    if (resume_state->sample_order.size() != samples.train.size()) {
      std::fprintf(stderr,
                   "error: checkpoint %s was written for %zu training "
                   "samples, this dataset has %zu\n",
                   resume_path.c_str(), resume_state->sample_order.size(),
                   samples.train.size());
      return 1;
    }
    train_config.resume = &*resume_state;
    std::printf("resuming from %s at epoch %d\n", resume_path.c_str(),
                resume_state->next_epoch);
  }

  dlinfma::DlInfMaMethod method("DLInfMA", {}, train_config);
  baselines::MethodResult result = baselines::RunMethod(&method, data, samples);
  std::printf("trained %d epochs in %.1fs; test %s\n",
              method.train_result().epochs_run, result.fit_seconds,
              result.metrics.ToString().c_str());
  if (flags.Has("--ckpt")) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    std::printf(
        "checkpoints: %s every %d epochs (%lld written, %lld failed)\n",
        ckpt_path.c_str(), train_config.checkpoint_every_epochs,
        static_cast<long long>(
            registry.GetCounter("train.checkpoint.writes")->value()),
        static_cast<long long>(
            registry.GetCounter("train.checkpoint.failures")->value()));
  }

  const std::string bundle_dir = flags.Str("--bundle");
  std::string error;
  if (!io::SaveBundle(bundle_dir, *world, data, samples, method, &error)) {
    std::fprintf(stderr, "error: cannot save bundle: %s\n", error.c_str());
    return 1;
  }
  std::printf("artifact bundle: %s\n", bundle_dir.c_str());
  return 0;
}

int CmdInfer(const Flags& flags) {
  if (!flags.Has("--bundle") || !flags.Has("--out")) return Usage();
  const std::string dir = flags.Str("--bundle");
  const std::string out = flags.Str("--out");
  if (!PathUsable("--bundle", dir, /*want_dir=*/true)) return 1;
  Stopwatch watch;
  std::string error;
  std::optional<io::WarmBundle> bundle = io::LoadBundle(dir, &error);
  if (!bundle) {
    std::fprintf(stderr, "error: cannot load bundle: %s\n", error.c_str());
    return 1;
  }
  std::printf(
      "warm-start: bundle %s loaded in %.1f ms (%zu addresses, %zu "
      "candidates, %lld model parameters; no retraining)\n",
      dir.c_str(), watch.ElapsedSeconds() * 1e3,
      bundle->world->addresses.size(), bundle->data.gen->candidates().size(),
      static_cast<long long>(bundle->method->model()->NumParameters()));

  // Every pipeline artifact comes from the bundle.
  const std::vector<dlinfma::AddressSample> samples =
      io::AllSamples(bundle->samples);
  const std::vector<Point> locations =
      bundle->method->InferAll(bundle->data, samples);
  std::FILE* file = std::fopen(out.c_str(), "w");
  bool written = file != nullptr &&
                 std::fputs("address_id,x,y\n", file) >= 0;
  for (size_t i = 0; written && i < samples.size(); ++i) {
    written = std::fprintf(file, "%lld,%.2f,%.2f\n",
                           static_cast<long long>(samples[i].address_id),
                           locations[i].x, locations[i].y) >= 0;
  }
  if (file != nullptr && std::fclose(file) != 0) written = false;
  if (!written) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("inferred %zu delivery locations -> %s\n", samples.size(),
              out.c_str());
  return 0;
}

/// The standalone telemetry endpoint behind --telemetry-port: a bare
/// HttpServer mounting the shared admin routes.
struct TelemetryEndpoint {
  apps::AdminRoutes admin;
  apps::HttpServer server;
  ~TelemetryEndpoint() { apps::StopAdminServer(&server); }
};

/// Starts `telemetry` when --telemetry-port is given (add health providers
/// first); true when the flag is absent. False, with the error printed,
/// when the port cannot be bound.
bool StartTelemetry(const Flags& flags, TelemetryEndpoint* telemetry) {
  if (!flags.Has("--telemetry-port")) return true;
  apps::HttpServer::Options options;
  options.port = flags.Int("--telemetry-port", 0);
  options.thread_name = "telemetry.loop";
  std::string error;
  if (!telemetry->server.Start(options, telemetry->admin.StandaloneHandler(),
                               &error)) {
    std::fprintf(stderr, "error: cannot start telemetry server: %s\n",
                 error.c_str());
    return false;
  }
  std::printf("telemetry: http://127.0.0.1:%d (%s)\n",
              telemetry->server.port(),
              apps::AdminRoutes::PathList().c_str());
  std::fflush(stdout);
  return true;
}

/// Keeps a running endpoint up --linger-seconds for scrapers, then stops it.
void LingerAndStopTelemetry(const Flags& flags, TelemetryEndpoint* telemetry) {
  if (!telemetry->server.running()) return;
  const int linger = flags.Int("--linger-seconds", 0);
  if (linger > 0) {
    std::printf("telemetry: lingering %d s for scrapers\n", linger);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(linger));
  }
  apps::StopAdminServer(&telemetry->server);
}

/// Prints a swap or a rollback (with its reason); false when the reload
/// left the bundle unchanged.
bool PrintReload(apps::BundleManager::ReloadOutcome outcome,
                 const apps::BundleManager& manager, const std::string& error) {
  switch (outcome) {
    case apps::BundleManager::ReloadOutcome::kSwapped:
      std::printf("hot-reload: swapped to generation %llu\n",
                  static_cast<unsigned long long>(manager.generation()));
      return true;
    case apps::BundleManager::ReloadOutcome::kRolledBack:
      std::printf("hot-reload: rolled back (%s)\n", error.c_str());
      return true;
    case apps::BundleManager::ReloadOutcome::kUnchanged:
      break;
  }
  return false;
}

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

/// The serve-until loop of every long-running server: returns once
/// --serve-seconds elapses (0 = no limit) or SIGINT/SIGTERM arrives, so the
/// caller always gets to stop its server cleanly. `tick`, when set, runs
/// every 50 ms with the seconds served so far.
void ServeUntilStopped(const Flags& flags,
                       const std::function<void(double)>& tick) {
  g_stop_requested = 0;
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  const double serve_seconds = flags.Double("--serve-seconds", 0.0);
  Stopwatch watch;
  while (g_stop_requested == 0 &&
         (serve_seconds <= 0.0 || watch.ElapsedSeconds() < serve_seconds)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (tick) tick(watch.ElapsedSeconds());
  }
}

/// `serve --shards N`: the sharded HTTP query engine (DESIGN.md §11).
/// Boots a QueryEngine over the bundle, prints the bound port, then serves
/// until ServeUntilStopped returns, polling every shard's bundle directory
/// for pushes every --poll-every seconds.
int CmdServeEngine(const Flags& flags) {
  const std::string dir = flags.Str("--bundle");
  if (!PathUsable("--bundle", dir, /*want_dir=*/true)) return 1;

  apps::QueryEngine::Options options;
  options.bundle_dir = dir;
  options.num_shards = std::max(1, flags.Int("--shards", 4));
  options.port = flags.Int("--port", 0);
  Stopwatch watch;
  std::string error;
  std::unique_ptr<apps::QueryEngine> engine =
      apps::QueryEngine::Create(options, &error);
  if (engine == nullptr) {
    std::fprintf(stderr, "error: cannot start query engine: %s\n",
                 error.c_str());
    return 1;
  }
  std::printf(
      "query engine up in %.2f s: %d shards on http://127.0.0.1:%d "
      "(/query /query_batch /inventory %s)\n",
      watch.ElapsedSeconds(), engine->num_shards(), engine->port(),
      apps::AdminRoutes::PathList().c_str());
  std::fflush(stdout);

  const int poll_every_s = std::max(1, flags.Int("--poll-every", 5));
  double last_poll = 0.0;
  ServeUntilStopped(flags, [&](double elapsed) {
    if (elapsed - last_poll < poll_every_s) return;
    last_poll = elapsed;
    const apps::QueryEngine::ReloadSummary summary =
        engine->PollShards(&error);
    if (summary.swapped > 0 || summary.rolled_back > 0) {
      std::printf("hot-reload: %d shard(s) swapped, %d rolled back%s%s\n",
                  summary.swapped, summary.rolled_back,
                  summary.rolled_back > 0 ? ": " : "",
                  summary.rolled_back > 0 ? error.c_str() : "");
      std::fflush(stdout);
    }
  });
  engine->Stop();

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  int64_t hits = 0;
  int64_t shed = 0;
  for (int shard = 0; shard < engine->num_shards(); ++shard) {
    const std::string label = "#shard=" + std::to_string(shard);
    hits += registry.GetCounter("service.shard.hits" + label)->value();
    shed += registry.GetCounter("service.shard.shed" + label)->value();
  }
  std::printf("query engine done: %lld shard hits, %lld shed\n",
              static_cast<long long>(hits), static_cast<long long>(shed));
  return 0;
}

int CmdServe(const Flags& flags) {
  if (!flags.Has("--bundle")) return Usage();
  if (flags.Has("--shards")) return CmdServeEngine(flags);
  const std::string dir = flags.Str("--bundle");
  if (!PathUsable("--bundle", dir, /*want_dir=*/true)) return 1;
  const int poll_every = std::max(1, flags.Int("--poll-every", 8));

  // Serve through the hot-reload BundleManager: every batch re-resolves the
  // live generation, and the directory is polled for pushes.
  Stopwatch watch;
  apps::BundleManager::Config config;
  config.dir = dir;
  std::string error;
  std::unique_ptr<apps::BundleManager> manager =
      apps::BundleManager::Create(config, &error);
  if (manager == nullptr) {
    std::fprintf(stderr, "error: cannot load bundle: %s\n", error.c_str());
    return 1;
  }
  {
    const auto state = manager->state();
    std::printf(
        "service up in %.2f s (generation %llu, watching %s): %zu address "
        "entries, %zu building entries\n",
        watch.ElapsedSeconds(),
        static_cast<unsigned long long>(state->generation), dir.c_str(),
        state->service->address_entries(), state->service->building_entries());
  }

  // Embedded telemetry endpoint: scrapeable while the query load runs (and
  // for --linger-seconds after it, so CI / operators can read final state).
  TelemetryEndpoint telemetry;
  telemetry.admin.AddHealthProvider(
      apps::BundleManagerHealth("bundle", manager.get()));
  if (!StartTelemetry(flags, &telemetry)) return 1;
  // Arm per-query trace sampling unless --trace-out already armed a
  // record-everything session in main().
  if (telemetry.server.running() && !obs::TracingArmed()) {
    obs::TraceLog::Global().Start(flags.Double("--trace-sample", 0.01));
  }

  // Drive a batched query load through the pool-backed QueryBatch API.
  const int num_queries = flags.Int("--queries", 10000);
  const int batch_size = std::max(1, flags.Int("--batch", 256));
  const int num_threads = flags.Int("--threads", 4);
  ThreadPool pool(num_threads);

  watch.Reset();
  int64_t answered = 0;
  int64_t tier_hits[3] = {0, 0, 0};
  std::vector<int64_t> batch;
  batch.reserve(batch_size);
  for (int q = 0, batch_index = 0; q < num_queries; ++batch_index) {
    if (batch_index % poll_every == 0) {
      PrintReload(manager->Poll(&error), *manager, error);
    }
    // Pin one generation per batch: in-flight answers always come from a
    // single consistent bundle even if a swap lands mid-run.
    const std::shared_ptr<const apps::BundleManager::ServingState> pinned =
        manager->state();
    const std::vector<sim::Address>& addresses =
        pinned->bundle.world->addresses;
    if (addresses.empty()) {
      std::fprintf(stderr, "error: bundle world has no addresses\n");
      return 1;
    }
    batch.clear();
    for (; q < num_queries && static_cast<int>(batch.size()) < batch_size;
         ++q) {
      batch.push_back(addresses[q % addresses.size()].id);
    }
    for (const auto& answer : pinned->service->QueryBatch(batch, &pool)) {
      ++tier_hits[static_cast<int>(answer.source)];
      ++answered;
    }
  }
  const double elapsed = watch.ElapsedSeconds();
  std::printf(
      "answered %lld queries in %.3f s (%.0f queries/s, batch=%d, "
      "threads=%d)\n",
      static_cast<long long>(answered), elapsed,
      elapsed > 0 ? static_cast<double>(answered) / elapsed : 0.0, batch_size,
      num_threads);
  std::printf("tier hits: address %lld, building %lld, geocode %lld\n",
              static_cast<long long>(tier_hits[0]),
              static_cast<long long>(tier_hits[1]),
              static_cast<long long>(tier_hits[2]));
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Histogram* batch_latency =
      registry.GetHistogram("service.query.batch_latency_seconds");
  if (batch_latency->count() > 0) {
    std::printf("batch latency: p50 %.0f us, p95 %.0f us, max %.0f us\n",
                batch_latency->Quantile(0.5) * 1e6,
                batch_latency->Quantile(0.95) * 1e6,
                batch_latency->max() * 1e6);
  }
  std::printf(
      "hot-reload: generation %llu, %lld attempts, %lld swapped, "
      "%lld rolled back%s\n",
      static_cast<unsigned long long>(manager->generation()),
      static_cast<long long>(
          registry.GetCounter("service.reload.attempts")->value()),
      static_cast<long long>(
          registry.GetCounter("service.reload.success")->value()),
      static_cast<long long>(
          registry.GetCounter("service.reload.rollbacks")->value()),
      manager->reload_degraded() ? " [degraded: last push rejected]" : "");
  LingerAndStopTelemetry(flags, &telemetry);
  return 0;
}

/// `stream --listen`: durable network ingestion (see the header comment).
int CmdStreamListen(const Flags& flags) {
  stream::IngestServer::Options options;
  options.port = flags.Int("--listen", 0);
  if (options.port < 0) {
    std::fprintf(stderr, "error: --listen wants a port number, got %d\n",
                 options.port);
    return 2;
  }
  if (!flags.Has("--wal-dir")) {
    std::fprintf(stderr, "error: --listen requires --wal-dir DIR\n");
    return 2;
  }
  options.wal.dir = flags.Str("--wal-dir");
  std::error_code ec;
  std::filesystem::create_directories(options.wal.dir, ec);

  if (flags.Has("--city")) {
    std::optional<sim::World> world = LoadWorldFlag(flags, "--city");
    if (!world) return 1;
    world->trips.clear();  // Trips arrive over the wire, not from disk.
    options.city = std::move(*world);
  } else {
    sim::SimConfig config = sim::SynDowBJConfig();
    config.num_days = 1;
    options.city = sim::GenerateWorld(config);
    options.city.trips.clear();
  }

  options.wal.fsync_every_n = flags.Int("--fsync-every", 0);
  options.wal.fsync_interval_s = flags.Double("--fsync-interval", 0.0);
  options.wal.segment_bytes =
      static_cast<uint64_t>(flags.Int("--segment-bytes", 4 << 20));
  options.snapshot_every_segments =
      static_cast<uint64_t>(flags.Int("--snapshot-every", 0));

  stream::IngestServer server(std::move(options));
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "error: cannot start ingest server: %s\n",
                 error.c_str());
    return 1;
  }
  const stream::IngestServer::Stats boot = server.stats();
  std::printf("ingest: http://127.0.0.1:%d (/ingest /ingest/stats %s) "
              "(wal %s)\n",
              server.port(), apps::AdminRoutes::PathList().c_str(),
              flags.Str("--wal-dir").c_str());
  std::printf(
      "ingest: recovered %lld records (%lld trips) from snapshot + wal\n",
      static_cast<long long>(boot.recovered),
      static_cast<long long>(boot.trips));
  std::fflush(stdout);

  Stopwatch serve_time;
  ServeUntilStopped(flags, nullptr);
  server.Stop();  // Finishes the POST in hand, then fsyncs the WAL.

  const stream::IngestServer::Stats stats = server.stats();
  std::printf(
      "ingest done in %.1f s: received=%lld acked=%lld deduped=%lld "
      "rejected=%lld recovered=%lld trips=%lld\n",
      serve_time.ElapsedSeconds(), static_cast<long long>(stats.received),
      static_cast<long long>(stats.acked),
      static_cast<long long>(stats.deduped),
      static_cast<long long>(stats.rejected),
      static_cast<long long>(stats.recovered),
      static_cast<long long>(stats.trips));
  return 0;
}

/// `stream`: replay recorded trips as a live GPS feed through the
/// incremental pipeline, retraining and publishing bundles as the stream
/// progresses (see the header comment).
int CmdStream(const Flags& flags) {
  if (flags.Has("--listen")) {
    if (flags.Has("--world") || flags.Has("--publish-dir")) {
      std::fprintf(stderr,
                   "error: stream --listen (network ingestion) and --world/"
                   "--publish-dir (recorded replay) are mutually exclusive\n");
      return 2;
    }
    return CmdStreamListen(flags);
  }
  if (!flags.Has("--world") || !flags.Has("--publish-dir")) return Usage();
  const auto world = LoadWorldFlag(flags);
  if (!world) return 1;
  const std::string publish_dir = flags.Str("--publish-dir");

  // Telemetry comes up before the first point, so scrapers watch the
  // stream.ingest.* counters move while the feed is live.
  TelemetryEndpoint telemetry;
  if (!StartTelemetry(flags, &telemetry)) return 1;

  const int retrain_every = flags.Int("--retrain-every", 0);
  const int max_trips =
      flags.Int("--max-trips", static_cast<int>(world->trips.size()));
  const double rate = flags.Double("--rate", 0.0);

  stream::StreamIngestor ingestor(*world, {});
  stream::OnlineTrainer::Options trainer_options;
  if (flags.Has("--quick")) {
    trainer_options.train.max_epochs = 20;
    trainer_options.train.early_stop_patience = 5;
  }
  trainer_options.train.max_epochs =
      flags.Int("--epochs", trainer_options.train.max_epochs);
  if (flags.Has("--ckpt")) {
    trainer_options.checkpoint_path = flags.Str("--ckpt");
    trainer_options.checkpoint_every_epochs =
        std::max(1, flags.Int("--ckpt-every", 5));
  }
  trainer_options.publish_dir = publish_dir;
  stream::OnlineTrainer trainer(trainer_options);

  const bool watch = flags.Has("--watch");
  std::unique_ptr<apps::BundleManager> manager;

  auto retrain = [&]() {
    const stream::OnlineTrainer::RoundResult result =
        trainer.Retrain(ingestor.world(), ingestor.Snapshot());
    if (!result.trained) {
      std::printf("round %d skipped after %lld trips: %s\n", result.round,
                  static_cast<long long>(ingestor.num_trips()),
                  result.skip_reason.c_str());
      return;
    }
    std::printf(
        "round %d: %lld trips, %zu/%zu train/val samples, %d epochs, "
        "val loss %.4f\n",
        result.round, static_cast<long long>(ingestor.num_trips()),
        result.train_samples, result.val_samples, result.train.epochs_run,
        result.train.best_val_loss);
    if (!result.published) {
      std::fprintf(stderr, "error: publish failed: %s\n",
                   result.publish_error.c_str());
      return;
    }
    std::printf("published bundle -> %s\n", publish_dir.c_str());
    if (!watch) return;
    std::string error;
    if (manager == nullptr) {
      apps::BundleManager::Config config;
      config.dir = publish_dir;
      config.min_agree_fraction = flags.Double("--agree-frac", 0.0);
      manager = apps::BundleManager::Create(config, &error);
      if (manager == nullptr) {
        std::fprintf(stderr, "error: cannot watch %s: %s\n",
                     publish_dir.c_str(), error.c_str());
      } else {
        std::printf("watching %s (generation %llu live)\n",
                    publish_dir.c_str(),
                    static_cast<unsigned long long>(manager->generation()));
      }
      return;
    }
    if (!PrintReload(manager->ReloadNow(&error), *manager, error)) {
      std::printf("hot-reload: unchanged\n");
    }
  };

  Stopwatch watch_time;
  int trips = 0;
  for (const sim::DeliveryTrip& trip : world->trips) {
    if (trips >= max_trips) break;
    ingestor.StartTrip(trip);
    for (const TrajPoint& point : trip.trajectory.points) {
      ingestor.PushPoint(point);
      if (rate > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(1.0 / rate));
      }
    }
    ingestor.FinishTrip();
    ++trips;
    if (retrain_every > 0 && trips % retrain_every == 0) retrain();
    std::fflush(stdout);
  }
  // End-of-stream round, unless the last periodic round already saw every
  // trip.
  if (trips > 0 && (retrain_every <= 0 || trips % retrain_every != 0)) {
    retrain();
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  std::printf(
      "stream done in %.1f s: %lld points (%lld dropped), %lld trips, "
      "%lld stay points, %zu clusters, %lld/%lld rounds trained/skipped, "
      "%lld/%lld publishes ok/failed\n",
      watch_time.ElapsedSeconds(),
      static_cast<long long>(
          registry.GetCounter("stream.ingest.points")->value()),
      static_cast<long long>(
          registry.GetCounter("stream.ingest.dropped_points")->value()),
      static_cast<long long>(ingestor.num_trips()),
      static_cast<long long>(
          registry.GetCounter("stream.ingest.stay_points")->value()),
      ingestor.updater().num_clusters(),
      static_cast<long long>(
          registry.GetCounter("stream.retrain.rounds")->value()),
      static_cast<long long>(
          registry.GetCounter("stream.retrain.skipped")->value()),
      static_cast<long long>(
          registry.GetCounter("stream.publish.success")->value()),
      static_cast<long long>(
          registry.GetCounter("stream.publish.failures")->value()));
  LingerAndStopTelemetry(flags, &telemetry);
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  if (!flags.Has("--world")) return Usage();
  const auto world = LoadWorldFlag(flags);
  if (!world) return 1;
  const dlinfma::Dataset data = dlinfma::BuildDataset(*world, {});
  const dlinfma::SampleSet samples = dlinfma::ExtractSamples(data, {});

  std::vector<baselines::MethodResult> results;
  baselines::GeocodingBaseline geocoding;
  results.push_back(baselines::RunMethod(&geocoding, data, samples));
  baselines::MinDistBaseline min_dist;
  results.push_back(baselines::RunMethod(&min_dist, data, samples));
  baselines::MaxTcIlcBaseline max_tc_ilc;
  results.push_back(baselines::RunMethod(&max_tc_ilc, data, samples));

  dlinfma::TrainConfig train_config;
  if (flags.Has("--quick")) {
    train_config.max_epochs = 20;
    train_config.early_stop_patience = 5;
  }
  dlinfma::DlInfMaMethod method("DLInfMA", {}, train_config);
  results.push_back(baselines::RunMethod(&method, data, samples));
  baselines::PrintResultsTable("evaluate (" + world->name + ")", results);
  return 0;
}

constexpr FlagSpec kGenerateFlags[] = {{"--preset", FlagType::kString},
                                       {"--days", FlagType::kInt},
                                       {"--seed", FlagType::kUint64},
                                       {"--out", FlagType::kString}};
constexpr FlagSpec kStatsFlags[] = {{"--world", FlagType::kString}};
constexpr FlagSpec kTrainFlags[] = {{"--world", FlagType::kString},
                                    {"--bundle", FlagType::kString},
                                    {"--quick", FlagType::kBool},
                                    {"--ckpt", FlagType::kString},
                                    {"--ckpt-every", FlagType::kInt},
                                    {"--resume", FlagType::kString, true}};
constexpr FlagSpec kServeFlags[] = {
    {"--bundle", FlagType::kString},
    {"--queries", FlagType::kInt},
    {"--batch", FlagType::kInt},
    {"--threads", FlagType::kInt},
    {"--poll-every", FlagType::kInt},
    {"--telemetry-port", FlagType::kInt, true},
    {"--trace-sample", FlagType::kDouble},
    {"--linger-seconds", FlagType::kInt},
    {"--shards", FlagType::kInt},
    {"--port", FlagType::kInt},
    {"--serve-seconds", FlagType::kDouble}};
constexpr FlagSpec kInferFlags[] = {{"--bundle", FlagType::kString},
                                    {"--out", FlagType::kString}};
constexpr FlagSpec kStreamFlags[] = {
    {"--world", FlagType::kString},
    {"--publish-dir", FlagType::kString},
    {"--retrain-every", FlagType::kInt},
    {"--max-trips", FlagType::kInt},
    {"--rate", FlagType::kDouble},
    {"--quick", FlagType::kBool},
    {"--epochs", FlagType::kInt},
    {"--watch", FlagType::kBool},
    {"--agree-frac", FlagType::kDouble},
    {"--ckpt", FlagType::kString},
    {"--ckpt-every", FlagType::kInt},
    {"--telemetry-port", FlagType::kInt, true},
    {"--linger-seconds", FlagType::kInt},
    {"--listen", FlagType::kInt},
    {"--wal-dir", FlagType::kString},
    {"--city", FlagType::kString},
    {"--serve-seconds", FlagType::kDouble},
    {"--fsync-every", FlagType::kInt},
    {"--fsync-interval", FlagType::kDouble},
    {"--segment-bytes", FlagType::kInt},
    {"--snapshot-every", FlagType::kInt}};
constexpr FlagSpec kEvaluateFlags[] = {{"--world", FlagType::kString},
                                       {"--quick", FlagType::kBool}};
/// Accepted by every command (see the header comment).
constexpr FlagSpec kGlobalFlags[] = {{"--metrics", FlagType::kString, true},
                                     {"--trace-out", FlagType::kString},
                                     {"--log-json", FlagType::kString, true},
                                     {"--profile-out", FlagType::kString},
                                     {"--profile-hz", FlagType::kInt}};

struct Command {
  std::string_view name;
  std::span<const FlagSpec> flags;
  int (*run)(const Flags&);
};

constexpr Command kCommands[] = {
    {"generate", kGenerateFlags, CmdGenerate},
    {"stats", kStatsFlags, CmdStats},
    {"train", kTrainFlags, CmdTrain},
    {"serve", kServeFlags, CmdServe},
    {"infer", kInferFlags, CmdInfer},
    {"stream", kStreamFlags, CmdStream},
    {"evaluate", kEvaluateFlags, CmdEvaluate}};

}  // namespace

int main(int argc, char** argv) {
  SetMinLogLevel(LogLevel::kWarning);
  if (argc < 2) return Usage();
  const Command* command = nullptr;
  for (const Command& candidate : kCommands) {
    if (candidate.name == argv[1]) command = &candidate;
  }
  if (command == nullptr) return Usage();
  std::vector<FlagSpec> specs(command->flags.begin(), command->flags.end());
  specs.insert(specs.end(), std::begin(kGlobalFlags), std::end(kGlobalFlags));
  std::string parse_error;
  const std::optional<Flags> flags = Flags::Parse(
      specs, std::span<char* const>(argv + 2, argc - 2), &parse_error);
  if (!flags) {
    std::fprintf(stderr, "error: %s\n", parse_error.c_str());
    return 2;
  }

  if (flags->Has("--log-json")) {
    const std::string path = flags->Str("--log-json");
    if (path.empty()) {
      obs::StructuredLog::Global().UseStderr();
    } else if (!obs::StructuredLog::Global().OpenFile(path)) {
      std::fprintf(stderr, "error: cannot open %s for --log-json\n",
                   path.c_str());
      return 1;
    }
  }
  const std::string trace_out = flags->Str("--trace-out");
  if (!trace_out.empty()) {
    obs::TraceLog::Global().Start(/*sample_rate=*/1.0);
  }
  const std::string profile_out = flags->Str("--profile-out");
  if (!profile_out.empty()) {
    obs::prof::RegisterCurrentThread("main");
    obs::prof::CpuProfiler::Options profile_options;
    profile_options.hz = flags->Int("--profile-hz", profile_options.hz);
    std::string error;
    if (!obs::prof::CpuProfiler::Global().Start(profile_options, &error)) {
      std::fprintf(stderr, "error: cannot start profiler: %s\n",
                   error.c_str());
      return 1;
    }
  }

  // Which nn/ kernel path this process dispatched to (DESIGN.md §12) —
  // first thing in every structured log, so a perf report from the field
  // states whether it ran vectorized.
  obs::LogLine(obs::LogSeverity::kInfo, "startup.kernel_path")
      .Str("path", nn::kernel::PathName());

  int status = command->run(*flags);

  if (flags->Has("--metrics")) {
    const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    const std::string path = flags->Str("--metrics");
    if (path.empty()) {
      std::fputs(registry.SnapshotJson().c_str(), stdout);
    } else if (!registry.DumpJson(path)) {
      std::fprintf(stderr, "error: cannot write metrics to %s\n",
                   path.c_str());
      if (status == 0) status = 1;
    }
  }
  if (!profile_out.empty()) {
    obs::prof::CpuProfiler& profiler = obs::prof::CpuProfiler::Global();
    profiler.Stop();
    bool written = false;
    if (profile_out.ends_with(".json")) {
      std::FILE* file = std::fopen(profile_out.c_str(), "w");
      if (file != nullptr) {
        const std::string json = obs::prof::ExportCombinedChromeJson();
        const bool full =
            std::fwrite(json.data(), 1, json.size(), file) == json.size();
        written = std::fclose(file) == 0 && full;
      }
    } else {
      written = profiler.ExportFolded(profile_out);
    }
    if (written) {
      std::fprintf(stderr, "profile: %lld samples @ %d Hz -> %s\n",
                   static_cast<long long>(profiler.sample_count()),
                   profiler.hz(), profile_out.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write profile to %s\n",
                   profile_out.c_str());
      if (status == 0) status = 1;
    }
  }
  if (!trace_out.empty()) {
    obs::TraceLog::Global().Stop();
    if (obs::TraceLog::Global().ExportChromeJson(trace_out)) {
      std::fprintf(stderr, "trace: %lld events -> %s\n",
                   static_cast<long long>(
                       obs::TraceLog::Global().recorded_events()),
                   trace_out.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   trace_out.c_str());
      if (status == 0) status = 1;
    }
  }
  obs::StructuredLog::Global().Close();
  return status;
}
