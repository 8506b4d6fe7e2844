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
//       persist the bundle (io/bundle.h): the checksummed model weights and
//       the answers it scored for every delivered address, which serve and
//       infer read without retraining.
//       --ckpt writes a crash-safe CKPT artifact (io/checkpoint.h) every N
//       epochs (default 5); --resume restores it first, so a killed run
//       finishes bit-identical to an uninterrupted one.
//
//   dlinf_cli serve --bundle DIR [--shards N] [--port P] [--serve-seconds S]
//              [--poll-every K] [--trace-sample R] [--agree-frac F]
//       The online service: warm-start from the bundle's answers.art alone
//       (milliseconds, no model) and boot the sharded HTTP query engine
//       (DESIGN.md §11):
//       N shards (default 4) reading one hot-reload BundleManager
//       (apps/bundle_manager.h), answered by one epoll event loop on --port
//       P (default 0 = ephemeral), serving /query, /query_batch, /inventory
//       and the admin routes (apps/admin_routes.h; the startup line lists
//       them) until --serve-seconds S elapses (default 0 = until
//       SIGINT/SIGTERM). Every K seconds (default 5) the engine polls the
//       bundle directory: a fresh push is staged and shadow-validated once
//       and swapped in for every shard with zero downtime, and a bad push
//       rolls every shard back to the live bundle. --agree-frac F sets the
//       fraction of shadow probes that must agree with the live bundle
//       (default 0.9); online rounds drift from the live generation, so a
//       directory that `stream --publish-dir` feeds wants 0. --trace-sample
//       R arms per-request trace sampling at rate R in [0, 1] for /tracez.
//       On exit
//       the engine stops and prints its final counters; drive it with
//       tools/load_gen.
//
//   dlinf_cli infer --bundle DIR --out FILE.csv
//       Write the inferred delivery location of every delivered address as
//       CSV (address_id,x,y): the table train scored into answers.art, after
//       checking it against the bundle's model.art. Nothing is re-scored.
//
//   dlinf_cli stream --listen PORT --wal-dir DIR [--city FILE]
//              [--serve-seconds S] [--fsync-every N] [--fsync-interval S]
//              [--segment-bytes B] [--snapshot-every K]
//              [--publish-dir DIR [--retrain-every N] [--quick] [--epochs E]
//               [--ckpt FILE [--ckpt-every C]]]
//       The live ingest node (DESIGN.md §13-14): serve POST /ingest,
//       /ingest/stats and the admin routes on PORT (0 = ephemeral) and
//       stream whatever producers send through the incremental stay-point
//       detector and candidate index (src/stream). Each POST is parsed,
//       WAL-committed under --wal-dir, applied and acked on the one
//       ingest.loop thread (no queue: a producer that outruns it meets TCP
//       backpressure, and an fsync holds up every connection); on startup the
//       WAL (plus the newest state snapshot, written every K segment
//       rotations) is replayed, so a kill -9'd node resumes with zero
//       acked-record loss. Drive it with `load_gen --ingest`, which
//       `--world FILE` turns into a replay of a recorded world. --city seeds
//       the static world (station, buildings, addresses) from a world
//       artifact, its trips dropped; the default is the built-in synthetic
//       city.
//       --publish-dir turns on online learning: every N completed trips
//       (default N=0: only at shutdown) a retrain round runs on the loop
//       over the accumulated snapshot, warm-started from the previous
//       round's weights, and publishes a fresh bundle into DIR with the
//       answers-last protocol that `serve --poll-every` keys on. A round
//       blocks ingest while it runs. After the node stops, one more round
//       covers the trips the last periodic round did not see. --quick caps
//       rounds at 20 epochs (--epochs overrides exactly); --ckpt writes a
//       crash-safe CKPT artifact every C epochs (default 5) during each
//       round. Serves until S elapses (0 = until SIGINT/SIGTERM), then
//       stops and prints the final counters.
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
//                        JSON to FILE on exit (open in Perfetto); the
//                        command's own thread is the track named "main".
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

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "apps/admin_routes.h"
#include "apps/query_engine.h"
#include "baselines/evaluation.h"
#include "baselines/simple_baselines.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/logging.h"
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

/// Training and evaluation need labeled samples in every split; a world
/// without them (say `generate --days 0`) is a typed error, not an abort.
bool SplitsUsable(const dlinfma::SampleSet& samples) {
  if (!samples.train.empty() && !samples.val.empty() &&
      !samples.test.empty()) {
    return true;
  }
  std::fprintf(stderr,
               "error: world has %zu/%zu/%zu labeled train/val/test samples; "
               "every split needs at least one (generate more --days)\n",
               samples.train.size(), samples.val.size(), samples.test.size());
  return false;
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
  if (!SplitsUsable(samples)) return 1;

  dlinfma::TrainConfig train_config;
  if (flags.Has("--quick")) {
    train_config.max_epochs = 20;
    train_config.early_stop_patience = 5;
  }
  if (flags.Has("--ckpt")) {
    train_config.checkpoint_every_epochs = flags.Int("--ckpt-every", 5);
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
  std::optional<io::Bundle> bundle = io::LoadBundle(dir, &error);
  if (!bundle) {
    std::fprintf(stderr, "error: cannot load bundle: %s\n", error.c_str());
    return 1;
  }
  std::printf(
      "warm-start: bundle %s loaded in %.1f ms (%zu addresses, %lld model "
      "parameters; no retraining)\n",
      dir.c_str(), watch.ElapsedSeconds() * 1e3,
      bundle->answers.city.addresses.size(),
      static_cast<long long>(bundle->method->model()->NumParameters()));

  // SaveBundle scored every sample with this model: write its table.
  const auto& table = bundle->answers.addresses;
  std::FILE* file = std::fopen(out.c_str(), "w");
  bool written = file != nullptr &&
                 std::fputs("address_id,x,y\n", file) >= 0;
  for (size_t i = 0; written && i < table.size(); ++i) {
    written = std::fprintf(file, "%lld,%.2f,%.2f\n",
                           static_cast<long long>(table[i].first),
                           table[i].second.x, table[i].second.y) >= 0;
  }
  if (file != nullptr && std::fclose(file) != 0) written = false;
  if (!written) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("inferred %zu delivery locations -> %s\n", table.size(),
              out.c_str());
  return 0;
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

/// `serve`: the sharded HTTP query engine (DESIGN.md §11). Boots a
/// QueryEngine over the bundle, prints the bound port, then serves until
/// ServeUntilStopped returns, polling the bundle directory for pushes every
/// --poll-every seconds.
int CmdServe(const Flags& flags) {
  if (!flags.Has("--bundle")) return Usage();
  apps::QueryEngine::Options options;
  options.num_shards = flags.Int("--shards", 4);
  const int poll_every_s = flags.Int("--poll-every", 5);
  const double trace_sample = flags.Double("--trace-sample", 0.0);
  options.bundle_dir = flags.Str("--bundle");
  if (!PathUsable("--bundle", options.bundle_dir, /*want_dir=*/true)) return 1;
  options.port = flags.Int("--port", 0);
  options.bundle.min_agree_fraction =
      flags.Double("--agree-frac", options.bundle.min_agree_fraction);
  // Arm per-request trace sampling unless --trace-out already armed a
  // record-everything session in main().
  if (flags.Has("--trace-sample") && !obs::TracingArmed()) {
    obs::TraceLog::Global().Start(trace_sample);
  }

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

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

/// `stream`: the live ingest node (see the header comment).
int CmdStream(const Flags& flags) {
  if (!flags.Has("--listen")) return Usage();
  if (!flags.Has("--wal-dir")) {
    std::fprintf(stderr, "error: --listen requires --wal-dir DIR\n");
    return 2;
  }
  const bool online = flags.Has("--publish-dir");
  for (const char* round_flag :
       {"--retrain-every", "--quick", "--epochs", "--ckpt", "--ckpt-every"}) {
    if (!online && flags.Has(round_flag)) {
      std::fprintf(stderr, "error: %s needs --publish-dir DIR\n", round_flag);
      return 2;
    }
  }
  stream::IngestServer::Options options;
  options.port = flags.Int("--listen", 0);
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

  std::optional<stream::OnlineTrainer> trainer;
  const int64_t retrain_every = flags.Int("--retrain-every", 0);
  if (online) {
    stream::OnlineTrainer::Options trainer_options;
    if (flags.Has("--quick")) {
      trainer_options.train.max_epochs = 20;
      trainer_options.train.early_stop_patience = 5;
    }
    trainer_options.train.max_epochs =
        flags.Int("--epochs", trainer_options.train.max_epochs);
    if (flags.Has("--ckpt")) {
      trainer_options.checkpoint_path = flags.Str("--ckpt");
      trainer_options.checkpoint_every_epochs = flags.Int("--ckpt-every", 5);
    }
    trainer_options.publish_dir = flags.Str("--publish-dir");
    trainer.emplace(trainer_options);
    options.trainer = &*trainer;
    options.retrain_every_trips = retrain_every;
  }

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
  if (!trainer) return 0;

  // End-of-stream round, unless the last periodic round already saw every
  // trip.
  if (stats.trips > 0 &&
      (retrain_every == 0 || stats.trips % retrain_every != 0)) {
    const stream::StreamIngestor& ingestor = server.ingestor();
    trainer->Retrain(ingestor.world(), ingestor.Snapshot());
  }
  std::printf(
      "online: %lld points (%lld dropped), %lld stay points, %zu clusters, "
      "%lld/%lld rounds trained/skipped, %lld/%lld publishes ok/failed -> "
      "%s\n",
      static_cast<long long>(CounterValue("stream.ingest.points")),
      static_cast<long long>(CounterValue("stream.ingest.dropped_points")),
      static_cast<long long>(CounterValue("stream.ingest.stay_points")),
      server.ingestor().updater().num_clusters(),
      static_cast<long long>(CounterValue("stream.retrain.rounds")),
      static_cast<long long>(CounterValue("stream.retrain.skipped")),
      static_cast<long long>(CounterValue("stream.publish.success")),
      static_cast<long long>(CounterValue("stream.publish.failures")),
      flags.Str("--publish-dir").c_str());
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  if (!flags.Has("--world")) return Usage();
  const auto world = LoadWorldFlag(flags);
  if (!world) return 1;
  const dlinfma::Dataset data = dlinfma::BuildDataset(*world, {});
  const dlinfma::SampleSet samples = dlinfma::ExtractSamples(data, {});
  if (!SplitsUsable(samples)) return 1;

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

// Numeric bounds live in the specs: Flags::Parse rejects a value outside
// them with one line naming the flag, before a command runs.
constexpr FlagSpec kGenerateFlags[] = {
    {"--preset", FlagType::kString},
    {.name = "--days", .type = FlagType::kInt, .min = 0},
    {"--seed", FlagType::kUint64},
    {"--out", FlagType::kString}};
constexpr FlagSpec kStatsFlags[] = {{"--world", FlagType::kString}};
constexpr FlagSpec kTrainFlags[] = {
    {"--world", FlagType::kString},
    {"--bundle", FlagType::kString},
    {"--quick", FlagType::kBool},
    {"--ckpt", FlagType::kString},
    {.name = "--ckpt-every", .type = FlagType::kInt, .min = 1},
    {"--resume", FlagType::kString, true}};
constexpr FlagSpec kServeFlags[] = {
    {"--bundle", FlagType::kString},
    {.name = "--shards", .type = FlagType::kInt, .min = 1},
    {"--port", FlagType::kInt},
    {"--serve-seconds", FlagType::kDouble},
    {.name = "--poll-every", .type = FlagType::kInt, .min = 1},
    {.name = "--trace-sample", .type = FlagType::kDouble, .min = 0, .max = 1},
    {.name = "--agree-frac", .type = FlagType::kDouble, .min = 0, .max = 1}};
constexpr FlagSpec kInferFlags[] = {{"--bundle", FlagType::kString},
                                    {"--out", FlagType::kString}};
constexpr FlagSpec kStreamFlags[] = {
    {.name = "--listen", .type = FlagType::kInt, .min = 0},
    {"--wal-dir", FlagType::kString},
    {"--city", FlagType::kString},
    {"--serve-seconds", FlagType::kDouble},
    {"--fsync-every", FlagType::kInt},
    {"--fsync-interval", FlagType::kDouble},
    {.name = "--segment-bytes", .type = FlagType::kInt, .min = 1},
    {.name = "--snapshot-every", .type = FlagType::kInt, .min = 0},
    {"--publish-dir", FlagType::kString},
    {.name = "--retrain-every", .type = FlagType::kInt, .min = 0},
    {"--quick", FlagType::kBool},
    {"--epochs", FlagType::kInt},
    {"--ckpt", FlagType::kString},
    {.name = "--ckpt-every", .type = FlagType::kInt, .min = 1}};
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
  const std::string profile_out = flags->Str("--profile-out");
  // A labeled track for the command's own thread, whichever capture runs.
  if (!trace_out.empty() || !profile_out.empty()) {
    obs::prof::RegisterCurrentThread("main");
  }
  if (!trace_out.empty()) {
    obs::TraceLog::Global().Start(/*sample_rate=*/1.0);
  }
  if (!profile_out.empty()) {
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
