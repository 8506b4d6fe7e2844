// e2ebench — one benchmark for the system's three paths (train, query,
// ingest → refresh), run as seeded workloads from outside the libraries'
// public APIs.
//
//   e2ebench --workload train|query|ingest_refresh --seed N --seconds S
//            --trace 0|1 [--tiny]
//
// Run from the root of a checkout: bundles and WALs go to a per-run
// directory under .bench_work/ (removed at exit), and a traced run leaves
// its Chrome trace at .bench_work/<workload>-trace.json.
//
// Every run prints context lines, per-phase notes, and as its last stdout
// line one JSON object {"correct","attempted","failed","metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// The exit code is 0 only when the correctness gate passed.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "harness.h"
#include "common/logging.h"
#include "nn/kernels.h"
#include "workloads.h"

namespace e2e {
namespace {

// Bounded end-to-end metrics: one timing per path (the train pass's wall
// time; the servers' CPU time per answered query and per acked record),
// the fixed-seed accuracy, and the success shares at the reference rates.
// README.md says why the latencies and maximum rates are not among them.
const std::vector<std::string> kEndToEnd = {
    "setup_s",
    "train.total_s",
    "train.mae_m",
    "train.beta50",
    "query.cpu_us_per_req",
    "query.ok_frac",
    "ingest.cpu_us_per_record",
    "ingest.ok_frac",
};

const std::vector<std::string> kPerLayer = {
    // Latencies and rates of the three paths (unbounded).
    "query.p50_ms", "query.p99_ms", "query.batch_p99_ms", "query.max_rps",
    "query.gen_lag_p99_ms", "ingest.ack_p50_ms", "ingest.ack_p99_ms",
    "ingest.max_records_per_s", "ingest.gen_lag_p99_ms",
    "refresh.ingest_to_queryable_s", "refresh.query_p99_ms",
    // traj / cluster / dlinfma / nn / io, from the train phase.
    "train.cpu_s", "traj.staypoint_s", "traj.points", "traj.stay_points",
    "cluster.oneshot_s", "cluster.clusters",
    "dlinfma.mine_s", "dlinfma.candidates", "dlinfma.features_s",
    "dlinfma.samples", "dlinfma.fit_s", "dlinfma.epochs", "dlinfma.epoch_s",
    "dlinfma.infer_s",
    "io.bundle_save_s", "io.bundle_load_s", "io.bundle_bytes",
    "train.layer_sum_s", "train.unattributed_s", "train.trace_overhead_s",
    // apps, from the query phase.
    "apps.engine_boot_s", "apps.parse_ns", "apps.route_ns", "apps.lookup_ns",
    "apps.batch_lookup_us", "apps.serialize_ns", "apps.engine_p99_ms",
    "apps.shard_skew", "apps.shed", "apps.layer_sum_ms",
    "apps.unattributed_ms", "query.trace_overhead_ms",
    // stream, from the ingest phase.
    "stream.parse_ns", "stream.wal_append_us", "stream.wal_bytes_per_record",
    "stream.push_point_ns", "stream.finish_trip_us", "stream.stay_points",
    "stream.clusters", "stream.server_ack_p99_ms", "stream.shed",
    "stream.rejected", "stream.batches", "stream.writer_us_per_record",
    // refresh stages.
    "refresh.drain_s", "refresh.snapshot_s", "refresh.retrain_s",
    "refresh.publish_s", "refresh.reload_s", "refresh.first_answer_s",
    "refresh.layer_sum_s", "refresh.unattributed_s",
    "refresh.trace_overhead_s",
};

bool ParseArgs(int argc, char** argv, RunArgs* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args->workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      args->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--tiny") {
      args->tiny = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return have_workload && args->seconds > 0.0;
}

}  // namespace

bool PlanFor(const std::string& workload, bool tiny, Plan* plan) {
  *plan = Plan();
  if (workload == "train") {
    plan->train_days = 120;
    plan->train_epochs = 6;
  } else if (workload == "query") {
    plan->query_ref_s = 8.0;
  } else if (workload == "ingest_refresh") {
    plan->ingest_days = 50;
  } else {
    return false;
  }
  if (tiny) {
    plan->setup_reps = 1;
    plan->communities = 5;
    plan->train_days = 3;
    plan->train_epochs = 2;
    plan->train_reps = 2;
    plan->query_ref_s = 0.5;
    plan->query_ladder_steps = 2;
    plan->query_step_s = 0.2;
    plan->ingest_days = 1;
    plan->ingest_ladder_steps = 2;
    plan->ingest_step_s = 0.2;
    plan->refresh_epochs = 2;
  }
  return true;
}

void ScalePlan(double seconds, Plan* plan) {
  // Plans are written for a 10-second measurement; --seconds stretches or
  // shrinks the timed traffic phases (the train path is fixed work).
  const double scale = seconds / 10.0;
  plan->query_ref_s *= scale;
  plan->query_step_s *= scale;
  plan->ingest_step_s *= scale;
}

}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  RunArgs args;
  Plan plan;
  if (!ParseArgs(argc, argv, &args) ||
      !PlanFor(args.workload, args.tiny, &plan)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload train|query|ingest_refresh "
                 "--seed N --seconds S --trace 0|1 [--tiny]\n");
    return 2;
  }
  dlinf::SetMinLogLevel(dlinf::LogLevel::kWarning);
  ScalePlan(args.seconds, &plan);
  // Only a traced run prints the refresh medians; an untraced run needs
  // one round for the refresh's correctness gate.
  if (!args.trace) plan.refresh_rounds = 1;

  args.work_dir =
      ".bench_work/" + args.workload + "-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create work dir %s\n", args.work_dir.c_str());
    return 2;
  }

  Note("context",
       Fmt("workload=%s seed=%llu seconds=%.3g trace=%d tiny=%d nproc=%u "
           "simd=%s",
           args.workload.c_str(), static_cast<unsigned long long>(args.seed),
           args.seconds, args.trace ? 1 : 0, args.tiny ? 1 : 0,
           std::thread::hardware_concurrency(),
           dlinf::nn::kernel::Avx2Enabled() ? "avx2" : "scalar"));

  Report report;
  // Set-up: the inputs (city, history trips, trips to ingest), generated
  // plan.setup_reps times from the seed; each repetition must reproduce
  // the same inputs.
  std::vector<double> gen_s;
  Inputs inputs;
  for (int rep = 0; rep < plan.setup_reps; ++rep) {
    const double t0 = Now();
    Inputs made = MakeInputs(plan, args.seed);
    gen_s.push_back(Now() - t0);
    if (rep > 0 && (made.train_world.TotalTrajectoryPoints() !=
                        inputs.train_world.TotalTrajectoryPoints() ||
                    made.ingest_trips.TotalWaybills() !=
                        inputs.ingest_trips.TotalWaybills())) {
      report.Mismatch("set-up is not deterministic for one seed");
    }
    inputs = std::move(made);
  }
  Note("setup.inputs",
       Fmt("addresses=%zu history_trips=%zu history_points=%lld "
           "ingest_trips=%zu ingest_points=%lld gen_s_median=%.4f",
           inputs.train_world.addresses.size(),
           inputs.train_world.trips.size(),
           static_cast<long long>(inputs.train_world.TotalTrajectoryPoints()),
           inputs.ingest_trips.trips.size(),
           static_cast<long long>(
               inputs.ingest_trips.TotalTrajectoryPoints()),
           Median(gen_s)));

  const std::string bundle_dir = RunTrainPhase(plan, args, inputs, &report);

  double engine_boot_s = 0.0;
  std::unique_ptr<dlinf::apps::QueryEngine> engine =
      BootEngine(bundle_dir, plan.query_shards, plan.setup_reps,
                 &engine_boot_s, &report);
  if (engine != nullptr) {
    report.Set("apps.engine_boot_s", engine_boot_s, "s");
    RunQueryPhase(plan, args, inputs, engine.get(), &report);
    engine->Stop();
    engine.reset();
  }

  double ingest_boot_s = 0.0;
  RunIngestPhase(plan, args, inputs, &report, &ingest_boot_s);

  report.Set("setup_s", Median(gen_s) + engine_boot_s + ingest_boot_s, "s");
  Note("setup",
       Fmt("setup_s=%.4f (inputs %.4f + engine boot %.4f + ingest boot "
           "%.4f, medians of %d)",
           report.Get("setup_s"), Median(gen_s), engine_boot_s,
           ingest_boot_s, plan.setup_reps));

  if (args.trace) {
    for (const auto& [layer, seconds] : Tracer::Get().SelfTimeByLayer()) {
      Note("trace.self_time", Fmt("layer=%s s=%.6f", layer.c_str(), seconds));
    }
    const std::string path = ".bench_work/" + args.workload + "-trace.json";
    if (Tracer::Get().WriteChromeTrace(path)) {
      Note("trace", Fmt("%zu spans -> %s", Tracer::Get().size(),
                        path.c_str()));
    } else {
      report.Mismatch("cannot write the trace to " + path);
    }
  }
  std::filesystem::remove_all(args.work_dir, ec);

  const std::string json =
      report.FinalJson(args.trace ? kPerLayer : kEndToEnd);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
