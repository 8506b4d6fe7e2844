// dlinf_cli — command-line driver for the DLInfMA pipeline.
//
//   dlinf_cli generate --preset dowbj|subbj [--days N] [--seed S] --out DIR
//       Synthesize a dataset and save it as CSV (see sim/world_io.h; the
//       same files are the interchange format for real waybill/GPS data).
//
//   dlinf_cli stats --world DIR
//       Print dataset statistics (Table I style).
//
//   dlinf_cli train --world DIR --bundle DIR [--model FILE] [--quick]
//              [--ckpt FILE [--ckpt-every N] [--resume]]
//       The offline pipeline: candidate generation + feature extraction,
//       train LocMatcher on the train/val splits, report test metrics, then
//       persist the full artifact bundle (world, candidate pool + retrieval
//       indexes, feature tensors, model weights; see io/bundle.h) so that
//       serve/infer warm-start without retraining. --model additionally
//       writes a bare nn checkpoint (legacy format). --ckpt writes a
//       crash-safe CKPT artifact (io/checkpoint.h) every N epochs (default
//       5); --resume restores it first, so a killed run finishes
//       bit-identical to an uninterrupted one.
//
//   dlinf_cli serve --bundle DIR [--queries N] [--batch B] [--threads T]
//              [--watch-bundle [--poll-every K]]
//              [--telemetry-port P [--trace-sample R] [--linger-seconds S]]
//              [--shards N [--port P] [--serve-seconds S] [--poll-every K]]
//       The online service: warm-start from the bundle (milliseconds, no
//       retraining), score every delivered address, build the 3-tier
//       delivery-location service, then answer N address queries (default
//       10000) in batches of B (default 256) on T pool threads (default 4)
//       through the QueryBatch API, reporting warm-start and per-batch
//       latency. --watch-bundle serves through the hot-reload BundleManager
//       (apps/bundle_manager.h): every K batches (default 8) the bundle
//       directory is polled, a fresh push is staged + shadow-validated and
//       swapped in with zero downtime, and a bad push rolls back to the
//       live bundle. --telemetry-port starts the standalone telemetry
//       endpoint (port 0 picks a free port) serving the shared admin
//       routes (apps/admin_routes.h; the startup line lists them), arms
//       trace recording at sampling rate R (default 0.01), and keeps the
//       process (and the endpoint) alive S extra seconds after the query
//       load finishes so external scrapers can read the final state. With
//       --shards N the command instead boots the sharded HTTP query engine
//       (DESIGN.md §11): N shard workers behind one epoll event loop on
//       --port P (default 0 = ephemeral), serving /query, /query_batch,
//       /inventory and the admin routes until --serve-seconds S elapses
//       (default 0 = until killed), polling for bundle pushes every
//       --poll-every K seconds; drive it with tools/load_gen.
//
//   dlinf_cli infer (--bundle DIR | --world DIR --model FILE) --out FILE.csv
//       Write the inferred delivery location of every delivered address as
//       CSV (address_id,x,y). With --bundle the whole pipeline state is
//       warm-started from artifacts; the legacy --world/--model path
//       re-mines candidates and only loads the checkpoint.
//
//   dlinf_cli stream --world DIR --publish-dir DIR [--retrain-every N]
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
//   dlinf_cli stream --listen PORT --wal-dir DIR [--city DIR]
//              [--serve-seconds S] [--fsync-every N] [--fsync-interval S]
//              [--segment-bytes B] [--snapshot-every K] [--max-queue Q]
//       Durable network ingestion (DESIGN.md §14): instead of replaying a
//       recorded world, serve POST /ingest, /ingest/stats and the admin
//       routes on PORT (0 = ephemeral) and stream whatever producers send
//       through the same incremental pipeline. Every accepted record is
//       WAL-committed under --wal-dir before it is acked; on startup the
//       WAL (plus the newest state snapshot, written every K segment
//       rotations) is replayed, so a kill -9'd listener resumes with zero
//       acked-record loss — drive it with `load_gen --ingest`. --city seeds the static world (station,
//       buildings, addresses) from a world dir; the default is the
//       built-in synthetic city. Mutually exclusive with --world. Serves
//       until S elapses (0 = until SIGINT/SIGTERM), then drains and
//       prints the final counters.
//
//   dlinf_cli evaluate --world DIR [--quick]
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

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "apps/admin_routes.h"
#include "apps/bundle_manager.h"
#include "apps/http_conn.h"
#include "apps/location_service.h"
#include "apps/query_engine.h"
#include "baselines/evaluation.h"
#include "baselines/simple_baselines.h"
#include "common/csv.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "dlinfma/dlinfma_method.h"
#include "dlinfma/inferrer.h"
#include "io/bundle.h"
#include "io/checkpoint.h"
#include "nn/kernels.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/structured_log.h"
#include "obs/trace_log.h"
#include "sim/generator.h"
#include "sim/world_io.h"
#include "sim/config.h"
#include "stream/ingest_server.h"
#include "stream/online_trainer.h"
#include "stream/stream_pipeline.h"

namespace {

using namespace dlinf;

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[key] = argv[++i];
    } else {
      flags[key] = "true";
    }
  }
  return flags;
}

int Usage() {
  std::fprintf(stderr,
               "usage: dlinf_cli "
               "<generate|stats|train|serve|infer|stream|evaluate> "
               "[--flags]\n(see the header comment of tools/dlinf_cli.cc)\n");
  return 2;
}

int IntFlag(const std::map<std::string, std::string>& flags,
            const std::string& key, int fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : std::stoi(it->second);
}

double DoubleFlag(const std::map<std::string, std::string>& flags,
                  const std::string& key, double fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : std::stod(it->second);
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

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  sim::SimConfig config = sim::SynDowBJConfig();
  auto preset = flags.find("preset");
  if (preset != flags.end() && preset->second == "subbj") {
    config = sim::SynSubBJConfig();
  }
  if (auto it = flags.find("days"); it != flags.end()) {
    config.num_days = std::stoi(it->second);
  }
  if (auto it = flags.find("seed"); it != flags.end()) {
    config.seed = std::stoull(it->second);
  }
  auto out = flags.find("out");
  if (out == flags.end()) return Usage();
  const sim::World world = sim::GenerateWorld(config);
  if (!sim::SaveWorldCsv(world, out->second)) {
    std::fprintf(stderr, "error: cannot write %s\n", out->second.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu addresses, %zu trips, %lld waybills\n",
              out->second.c_str(), world.addresses.size(), world.trips.size(),
              static_cast<long long>(world.TotalWaybills()));
  return 0;
}

std::optional<sim::World> LoadWorldFlag(
    const std::map<std::string, std::string>& flags) {
  auto it = flags.find("world");
  if (it == flags.end()) return std::nullopt;
  if (!PathUsable("--world", it->second, /*want_dir=*/true)) {
    return std::nullopt;
  }
  std::optional<sim::World> world = sim::LoadWorldCsv(it->second);
  if (!world) {
    std::fprintf(stderr, "error: cannot load world from %s\n",
                 it->second.c_str());
  }
  return world;
}

int CmdStats(const std::map<std::string, std::string>& flags) {
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

int CmdTrain(const std::map<std::string, std::string>& flags) {
  auto bundle_dir = flags.find("bundle");
  auto model_path = flags.find("model");
  if (flags.count("world") == 0 ||
      (bundle_dir == flags.end() && model_path == flags.end())) {
    return Usage();
  }
  const auto world = LoadWorldFlag(flags);
  if (!world) return 1;

  // Resolve checkpointing flags before any heavy lifting: --resume needs a
  // checkpoint path (its own value, or the one from --ckpt) that names a
  // readable CKPT artifact.
  auto ckpt = flags.find("ckpt");
  std::string resume_path;
  if (auto it = flags.find("resume"); it != flags.end()) {
    resume_path = it->second != "true" ? it->second
                  : ckpt != flags.end() ? ckpt->second
                                        : std::string();
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
  if (flags.count("quick") > 0) {
    train_config.max_epochs = 20;
    train_config.early_stop_patience = 5;
  }
  if (ckpt != flags.end()) {
    train_config.checkpoint_every_epochs =
        std::max(1, IntFlag(flags, "ckpt-every", 5));
    const std::string ckpt_path = ckpt->second;
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
  if (ckpt != flags.end()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    std::printf(
        "checkpoints: %s every %d epochs (%lld written, %lld failed)\n",
        ckpt->second.c_str(), train_config.checkpoint_every_epochs,
        static_cast<long long>(
            registry.GetCounter("train.checkpoint.writes")->value()),
        static_cast<long long>(
            registry.GetCounter("train.checkpoint.failures")->value()));
  }

  if (bundle_dir != flags.end()) {
    std::string error;
    if (!io::SaveBundle(bundle_dir->second, *world, data, samples, method,
                        &error)) {
      std::fprintf(stderr, "error: cannot save bundle: %s\n", error.c_str());
      return 1;
    }
    std::printf("artifact bundle: %s\n", bundle_dir->second.c_str());
  }
  if (model_path != flags.end()) {
    if (!method.SaveModel(model_path->second)) {
      std::fprintf(stderr, "error: cannot save model to %s\n",
                   model_path->second.c_str());
      return 1;
    }
    std::printf("checkpoint: %s\n", model_path->second.c_str());
  }
  return 0;
}

/// Loads the artifact bundle named by --bundle, reporting the warm-start
/// time. Returns nullopt (after printing the reason) on failure.
std::optional<io::WarmBundle> LoadBundleFlag(
    const std::map<std::string, std::string>& flags) {
  auto it = flags.find("bundle");
  if (it == flags.end()) return std::nullopt;
  if (!PathUsable("--bundle", it->second, /*want_dir=*/true)) {
    return std::nullopt;
  }
  Stopwatch watch;
  std::string error;
  std::optional<io::WarmBundle> bundle = io::LoadBundle(it->second, &error);
  if (!bundle) {
    std::fprintf(stderr, "error: cannot load bundle: %s\n", error.c_str());
    return std::nullopt;
  }
  std::printf(
      "warm-start: bundle %s loaded in %.1f ms (%zu addresses, %zu "
      "candidates, %lld model parameters; no retraining)\n",
      it->second.c_str(), watch.ElapsedSeconds() * 1e3,
      bundle->world->addresses.size(), bundle->data.gen->candidates().size(),
      static_cast<long long>(bundle->method->model()->NumParameters()));
  return bundle;
}

bool WriteLocationsCsv(const std::string& path,
                       const std::vector<dlinfma::AddressSample>& samples,
                       const std::vector<Point>& locations) {
  CsvTable table;
  table.header = {"address_id", "x", "y"};
  for (size_t i = 0; i < samples.size(); ++i) {
    table.rows.push_back({std::to_string(samples[i].address_id),
                          StrPrintf("%.2f", locations[i].x),
                          StrPrintf("%.2f", locations[i].y)});
  }
  return WriteCsv(path, table);
}

int CmdInfer(const std::map<std::string, std::string>& flags) {
  auto out = flags.find("out");
  if (out == flags.end()) return Usage();

  if (flags.count("bundle") > 0) {
    // Warm path: every pipeline artifact comes from the bundle.
    std::optional<io::WarmBundle> bundle = LoadBundleFlag(flags);
    if (!bundle) return 1;
    const std::vector<dlinfma::AddressSample> samples =
        io::AllSamples(bundle->samples);
    const std::vector<Point> locations =
        bundle->method->InferAll(bundle->data, samples);
    if (!WriteLocationsCsv(out->second, samples, locations)) {
      std::fprintf(stderr, "error: cannot write %s\n", out->second.c_str());
      return 1;
    }
    std::printf("inferred %zu delivery locations -> %s\n", samples.size(),
                out->second.c_str());
    return 0;
  }

  // Legacy path: CSV world + bare checkpoint; re-mines candidates.
  const auto world = LoadWorldFlag(flags);
  auto model_path = flags.find("model");
  if (!world || model_path == flags.end()) return Usage();
  const dlinfma::Dataset data = dlinfma::BuildDataset(*world, {});
  dlinfma::FeatureExtractor extractor(&*world, data.gen.get());
  const std::vector<dlinfma::AddressSample> samples =
      extractor.ExtractAll(world->DeliveredAddressIds(), /*with_labels=*/true);

  dlinfma::DlInfMaMethod method;
  if (!method.LoadModel(model_path->second)) {
    std::fprintf(stderr, "error: cannot load model from %s\n",
                 model_path->second.c_str());
    return 1;
  }
  const std::vector<Point> locations = method.InferAll(data, samples);
  if (!WriteLocationsCsv(out->second, samples, locations)) {
    std::fprintf(stderr, "error: cannot write %s\n", out->second.c_str());
    return 1;
  }
  std::printf("inferred %zu delivery locations -> %s\n", samples.size(),
              out->second.c_str());
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
bool StartTelemetry(const std::map<std::string, std::string>& flags,
                    TelemetryEndpoint* telemetry) {
  auto it = flags.find("telemetry-port");
  if (it == flags.end()) return true;
  apps::HttpServer::Options options;
  options.port = it->second == "true" ? 0 : std::stoi(it->second);
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
void LingerAndStopTelemetry(const std::map<std::string, std::string>& flags,
                            TelemetryEndpoint* telemetry) {
  if (!telemetry->server.running()) return;
  const int linger = IntFlag(flags, "linger-seconds", 0);
  if (linger > 0) {
    std::printf("telemetry: lingering %d s for scrapers\n", linger);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(linger));
  }
  apps::StopAdminServer(&telemetry->server);
}

/// `serve --shards N`: the sharded HTTP query engine (DESIGN.md §11).
/// Boots a QueryEngine over the bundle, prints the bound port, then serves
/// until --serve-seconds elapses (0 = until killed), polling every shard's
/// bundle directory for pushes every --poll-every seconds.
int CmdServeEngine(const std::map<std::string, std::string>& flags) {
  const std::string& dir = flags.at("bundle");
  if (!PathUsable("--bundle", dir, /*want_dir=*/true)) return 1;

  apps::QueryEngine::Options options;
  options.bundle_dir = dir;
  options.num_shards = std::max(1, IntFlag(flags, "shards", 4));
  options.port = IntFlag(flags, "port", 0);
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

  const double serve_seconds = DoubleFlag(flags, "serve-seconds", 0.0);
  const int poll_every_s = std::max(1, IntFlag(flags, "poll-every", 5));
  watch.Reset();
  double last_poll = 0.0;
  while (serve_seconds <= 0.0 || watch.ElapsedSeconds() < serve_seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (watch.ElapsedSeconds() - last_poll >= poll_every_s) {
      last_poll = watch.ElapsedSeconds();
      const apps::QueryEngine::ReloadSummary summary =
          engine->PollShards(&error);
      if (summary.swapped > 0 || summary.rolled_back > 0) {
        std::printf("hot-reload: %d shard(s) swapped, %d rolled back%s%s\n",
                    summary.swapped, summary.rolled_back,
                    summary.rolled_back > 0 ? ": " : "",
                    summary.rolled_back > 0 ? error.c_str() : "");
        std::fflush(stdout);
      }
    }
  }
  engine->Stop();

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  int64_t hits = 0;
  int64_t shed = 0;
  for (int shard = 0; shard < engine->num_shards(); ++shard) {
    hits += registry
                .GetCounter("service.shard.hits#shard=" +
                            std::to_string(shard))
                ->value();
    shed += registry
                .GetCounter("service.shard.shed#shard=" +
                            std::to_string(shard))
                ->value();
  }
  std::printf("query engine done: %lld shard hits, %lld shed\n",
              static_cast<long long>(hits), static_cast<long long>(shed));
  return 0;
}

int CmdServe(const std::map<std::string, std::string>& flags) {
  if (flags.count("bundle") == 0) return Usage();
  if (flags.count("shards") > 0) return CmdServeEngine(flags);
  const bool watch_bundle = flags.count("watch-bundle") > 0;
  const int poll_every = std::max(1, IntFlag(flags, "poll-every", 8));

  // Two serving modes share the query loop: a fixed warm-started bundle, or
  // the hot-reload BundleManager that re-resolves the live generation every
  // batch and polls the directory for pushes.
  std::optional<io::WarmBundle> fixed_bundle;
  std::optional<apps::DeliveryLocationService> fixed_service;
  std::vector<dlinfma::AddressSample> fixed_samples;
  std::unique_ptr<apps::BundleManager> manager;
  Stopwatch watch;
  if (watch_bundle) {
    const std::string& dir = flags.at("bundle");
    if (!PathUsable("--bundle", dir, /*want_dir=*/true)) return 1;
    apps::BundleManager::Config config;
    config.dir = dir;
    std::string error;
    manager = apps::BundleManager::Create(config, &error);
    if (manager == nullptr) {
      std::fprintf(stderr, "error: cannot load bundle: %s\n", error.c_str());
      return 1;
    }
    const auto state = manager->state();
    std::printf(
        "service up in %.2f s (generation %llu, watching %s): %zu address "
        "entries, %zu building entries\n",
        watch.ElapsedSeconds(),
        static_cast<unsigned long long>(state->generation), dir.c_str(),
        state->service->address_entries(), state->service->building_entries());
  } else {
    fixed_bundle = LoadBundleFlag(flags);
    if (!fixed_bundle) return 1;
    watch.Reset();
    fixed_samples = io::AllSamples(fixed_bundle->samples);
    fixed_service = apps::DeliveryLocationService::BuildFromInferrer(
        *fixed_bundle->world, fixed_bundle->data, fixed_samples,
        fixed_bundle->method.get());
    std::printf(
        "service up in %.2f s: %zu address entries, %zu building entries\n",
        watch.ElapsedSeconds(), fixed_service->address_entries(),
        fixed_service->building_entries());
  }

  // Embedded telemetry endpoint: scrapeable while the query load runs (and
  // for --linger-seconds after it, so CI / operators can read final state).
  TelemetryEndpoint telemetry;
  if (manager != nullptr) {
    telemetry.admin.AddHealthProvider(
        apps::BundleManagerHealth("bundle", manager.get()));
  }
  if (!StartTelemetry(flags, &telemetry)) return 1;
  // Arm per-query trace sampling unless --trace-out already armed a
  // record-everything session in main().
  if (telemetry.server.running() && !obs::TracingArmed()) {
    obs::TraceLog::Global().Start(DoubleFlag(flags, "trace-sample", 0.01));
  }

  // Drive a batched query load through the pool-backed QueryBatch API.
  const int num_queries = IntFlag(flags, "queries", 10000);
  const int batch_size = std::max(1, IntFlag(flags, "batch", 256));
  const int num_threads = IntFlag(flags, "threads", 4);
  ThreadPool pool(num_threads);

  watch.Reset();
  int64_t answered = 0;
  int64_t tier_hits[3] = {0, 0, 0};
  std::vector<int64_t> batch;
  batch.reserve(batch_size);
  int batch_index = 0;
  for (int q = 0; q < num_queries;) {
    // Pin one generation per batch: in-flight answers always come from a
    // single consistent bundle even if a swap lands mid-run.
    std::shared_ptr<const apps::BundleManager::ServingState> pinned;
    const apps::DeliveryLocationService* service = nullptr;
    const std::vector<sim::Address>* addresses = nullptr;
    if (manager != nullptr) {
      if (batch_index % poll_every == 0) {
        std::string error;
        switch (manager->Poll(&error)) {
          case apps::BundleManager::ReloadOutcome::kSwapped:
            std::printf("hot-reload: swapped to generation %llu\n",
                        static_cast<unsigned long long>(
                            manager->state()->generation));
            break;
          case apps::BundleManager::ReloadOutcome::kRolledBack:
            std::printf("hot-reload: rolled back (%s)\n", error.c_str());
            break;
          case apps::BundleManager::ReloadOutcome::kUnchanged:
            break;
        }
      }
      pinned = manager->state();
      service = pinned->service.get();
      addresses = &pinned->bundle.world->addresses;
    } else {
      service = &*fixed_service;
      addresses = &fixed_bundle->world->addresses;
    }
    if (addresses->empty()) {
      std::fprintf(stderr, "error: bundle world has no addresses\n");
      return 1;
    }
    ++batch_index;

    batch.clear();
    for (; q < num_queries && static_cast<int>(batch.size()) < batch_size;
         ++q) {
      batch.push_back((*addresses)[q % addresses->size()].id);
    }
    for (const auto& answer : service->QueryBatch(batch, &pool)) {
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
  const obs::Histogram* batch_latency =
      obs::MetricsRegistry::Global().GetHistogram(
          "service.query.batch_latency_seconds");
  if (batch_latency->count() > 0) {
    std::printf("batch latency: p50 %.0f us, p95 %.0f us, max %.0f us\n",
                batch_latency->Quantile(0.5) * 1e6,
                batch_latency->Quantile(0.95) * 1e6,
                batch_latency->max() * 1e6);
  }
  if (manager != nullptr) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
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
  }
  LingerAndStopTelemetry(flags, &telemetry);
  return 0;
}

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

/// `stream --listen`: durable network ingestion (see the header comment).
int CmdStreamListen(const std::map<std::string, std::string>& flags) {
  stream::IngestServer::Options options;
  {
    const std::string& value = flags.at("listen");
    char* end = nullptr;
    options.port = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    if (end == value.c_str() || *end != '\0' || options.port < 0) {
      std::fprintf(stderr, "error: --listen wants a port number, got %s\n",
                   value.c_str());
      return 2;
    }
  }
  if (flags.count("wal-dir") == 0 || flags.at("wal-dir") == "true") {
    std::fprintf(stderr, "error: --listen requires --wal-dir DIR\n");
    return 2;
  }
  options.wal.dir = flags.at("wal-dir");
  std::error_code ec;
  std::filesystem::create_directories(options.wal.dir, ec);

  if (auto city = flags.find("city"); city != flags.end()) {
    std::optional<sim::World> world = sim::LoadWorldCsv(city->second);
    if (!world) {
      std::fprintf(stderr, "error: cannot load city world from %s\n",
                   city->second.c_str());
      return 1;
    }
    world->trips.clear();  // Trips arrive over the wire, not from disk.
    options.city = std::move(*world);
  } else {
    sim::SimConfig config = sim::SynDowBJConfig();
    config.num_days = 1;
    options.city = sim::GenerateWorld(config);
    options.city.trips.clear();
  }

  options.wal.fsync_every_n = IntFlag(flags, "fsync-every", 0);
  options.wal.fsync_interval_s = DoubleFlag(flags, "fsync-interval", 0.0);
  options.wal.segment_bytes =
      static_cast<uint64_t>(IntFlag(flags, "segment-bytes", 4 << 20));
  options.snapshot_every_segments =
      static_cast<uint64_t>(IntFlag(flags, "snapshot-every", 0));
  options.max_queue_records =
      static_cast<uint64_t>(IntFlag(flags, "max-queue", 4096));

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
              flags.at("wal-dir").c_str());
  std::printf(
      "ingest: recovered %lld records (%lld trips) from snapshot + wal\n",
      static_cast<long long>(boot.recovered),
      static_cast<long long>(boot.trips));
  std::fflush(stdout);

  g_stop_requested = 0;
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  const double serve_seconds = DoubleFlag(flags, "serve-seconds", 0.0);
  Stopwatch serve_time;
  while (g_stop_requested == 0 &&
         (serve_seconds <= 0.0 ||
          serve_time.ElapsedSeconds() < serve_seconds)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();  // Drains the queue and fsyncs the WAL.
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  const stream::IngestServer::Stats stats = server.stats();
  std::printf(
      "ingest done in %.1f s: received=%lld acked=%lld deduped=%lld "
      "shed=%lld rejected=%lld recovered=%lld trips=%lld\n",
      serve_time.ElapsedSeconds(), static_cast<long long>(stats.received),
      static_cast<long long>(stats.acked),
      static_cast<long long>(stats.deduped),
      static_cast<long long>(stats.shed),
      static_cast<long long>(stats.rejected),
      static_cast<long long>(stats.recovered),
      static_cast<long long>(stats.trips));
  return 0;
}

/// `stream`: replay recorded trips as a live GPS feed through the
/// incremental pipeline, retraining and publishing bundles as the stream
/// progresses (see the header comment).
int CmdStream(const std::map<std::string, std::string>& flags) {
  if (flags.count("listen") > 0) {
    if (flags.count("world") > 0 || flags.count("publish-dir") > 0) {
      std::fprintf(stderr,
                   "error: stream --listen (network ingestion) and --world/"
                   "--publish-dir (recorded replay) are mutually exclusive\n");
      return 2;
    }
    return CmdStreamListen(flags);
  }
  if (flags.count("world") == 0 || flags.count("publish-dir") == 0) {
    return Usage();
  }
  const auto world = LoadWorldFlag(flags);
  if (!world) return 1;
  const std::string publish_dir = flags.at("publish-dir");

  // Telemetry comes up before the first point, so scrapers watch the
  // stream.ingest.* counters move while the feed is live.
  TelemetryEndpoint telemetry;
  if (!StartTelemetry(flags, &telemetry)) return 1;

  const int retrain_every = IntFlag(flags, "retrain-every", 0);
  const int max_trips =
      IntFlag(flags, "max-trips", static_cast<int>(world->trips.size()));
  const double rate = DoubleFlag(flags, "rate", 0.0);

  stream::StreamIngestor ingestor(*world, {});
  stream::OnlineTrainer::Options trainer_options;
  if (flags.count("quick") > 0) {
    trainer_options.train.max_epochs = 20;
    trainer_options.train.early_stop_patience = 5;
  }
  if (flags.count("epochs") > 0) {
    trainer_options.train.max_epochs = IntFlag(flags, "epochs", 20);
  }
  if (auto ckpt = flags.find("ckpt"); ckpt != flags.end()) {
    trainer_options.checkpoint_path = ckpt->second;
    trainer_options.checkpoint_every_epochs =
        std::max(1, IntFlag(flags, "ckpt-every", 5));
  }
  trainer_options.publish_dir = publish_dir;
  stream::OnlineTrainer trainer(trainer_options);

  const bool watch = flags.count("watch") > 0;
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
      config.min_agree_fraction = DoubleFlag(flags, "agree-frac", 0.0);
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
    switch (manager->ReloadNow(&error)) {
      case apps::BundleManager::ReloadOutcome::kSwapped:
        std::printf("hot-reload: swapped to generation %llu\n",
                    static_cast<unsigned long long>(manager->generation()));
        break;
      case apps::BundleManager::ReloadOutcome::kRolledBack:
        std::printf("hot-reload: rolled back (%s)\n", error.c_str());
        break;
      case apps::BundleManager::ReloadOutcome::kUnchanged:
        std::printf("hot-reload: unchanged\n");
        break;
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

int CmdEvaluate(const std::map<std::string, std::string>& flags) {
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
  if (flags.count("quick") > 0) {
    train_config.max_epochs = 20;
    train_config.early_stop_patience = 5;
  }
  dlinfma::DlInfMaMethod method("DLInfMA", {}, train_config);
  results.push_back(baselines::RunMethod(&method, data, samples));
  baselines::PrintResultsTable("evaluate (" + world->name + ")", results);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SetMinLogLevel(LogLevel::kWarning);
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv);

  if (auto it = flags.find("log-json"); it != flags.end()) {
    if (it->second == "true") {
      obs::StructuredLog::Global().UseStderr();
    } else if (!obs::StructuredLog::Global().OpenFile(it->second)) {
      std::fprintf(stderr, "error: cannot open %s for --log-json\n",
                   it->second.c_str());
      return 1;
    }
  }
  const auto trace_out = flags.find("trace-out");
  if (trace_out != flags.end() && trace_out->second != "true") {
    obs::TraceLog::Global().Start(/*sample_rate=*/1.0);
  }
  const auto profile_out = flags.find("profile-out");
  if (profile_out != flags.end() && profile_out->second != "true") {
    obs::prof::RegisterCurrentThread("main");
    obs::prof::CpuProfiler::Options profile_options;
    if (auto hz = flags.find("profile-hz"); hz != flags.end()) {
      profile_options.hz = std::stoi(hz->second);
    }
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

  int status = 2;
  try {
    if (command == "generate") {
      status = CmdGenerate(flags);
    } else if (command == "stats") {
      status = CmdStats(flags);
    } else if (command == "train") {
      status = CmdTrain(flags);
    } else if (command == "serve") {
      status = CmdServe(flags);
    } else if (command == "infer") {
      status = CmdInfer(flags);
    } else if (command == "stream") {
      status = CmdStream(flags);
    } else if (command == "evaluate") {
      status = CmdEvaluate(flags);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    // Malformed flag values (e.g. a non-numeric --epochs) surface here as
    // std::invalid_argument from std::stoi; report and exit cleanly.
    std::fprintf(stderr, "error: %s (check flag values)\n", e.what());
    return 1;
  }

  if (auto it = flags.find("metrics"); it != flags.end()) {
    const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    if (it->second == "true") {
      std::fputs(registry.SnapshotJson().c_str(), stdout);
    } else if (!registry.DumpJson(it->second)) {
      std::fprintf(stderr, "error: cannot write metrics to %s\n",
                   it->second.c_str());
      if (status == 0) status = 1;
    }
  }
  if (profile_out != flags.end() && profile_out->second != "true") {
    obs::prof::CpuProfiler& profiler = obs::prof::CpuProfiler::Global();
    profiler.Stop();
    const std::string& path = profile_out->second;
    const bool chrome =
        path.size() > 5 && path.compare(path.size() - 5, 5, ".json") == 0;
    bool written = false;
    if (chrome) {
      std::FILE* file = std::fopen(path.c_str(), "w");
      if (file != nullptr) {
        const std::string json = obs::prof::ExportCombinedChromeJson();
        const bool full =
            std::fwrite(json.data(), 1, json.size(), file) == json.size();
        written = std::fclose(file) == 0 && full;
      }
    } else {
      written = profiler.ExportFolded(path);
    }
    if (written) {
      std::fprintf(stderr, "profile: %lld samples @ %d Hz -> %s\n",
                   static_cast<long long>(profiler.sample_count()),
                   profiler.hz(), path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write profile to %s\n",
                   path.c_str());
      if (status == 0) status = 1;
    }
  }
  if (trace_out != flags.end() && trace_out->second != "true") {
    obs::TraceLog::Global().Stop();
    if (obs::TraceLog::Global().ExportChromeJson(trace_out->second)) {
      std::fprintf(stderr, "trace: %lld events -> %s\n",
                   static_cast<long long>(
                       obs::TraceLog::Global().recorded_events()),
                   trace_out->second.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   trace_out->second.c_str());
      if (status == 0) status = 1;
    }
  }
  obs::StructuredLog::Global().Close();
  return status;
}
