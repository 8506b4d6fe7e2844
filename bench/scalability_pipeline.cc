// Section V-F pipeline scalability:
//  (1) stay-point extraction with trajectory-level parallelization,
//  (2) bi-weekly candidate-pool construction vs one-shot clustering,
//  (3) training-time comparison: GeoRank << DLInfMA < UNet-based
//      (ordering per the paper; absolute numbers differ by substrate).
//
// Flags: --json PATH appends stage wall-times to a flat JSON results file
// (input of tools/bench_compare, the CI regression gate); --quick shrinks
// the world and epoch counts to CI size (the committed baseline under
// bench/baselines/ is produced with --quick as well).

#include <cstdio>

#include "baselines/georank.h"
#include "baselines/unet_baseline.h"
#include "bench_util.h"
#include "cluster/hierarchical.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "dlinfma/dlinfma_method.h"

int main(int argc, char** argv) {
  using namespace dlinf;
  const std::string metrics_path = bench::ParseMetricsFlag(&argc, argv);
  const std::string json_path = bench::ParseJsonFlag(&argc, argv);
  const bool quick = bench::ParseQuickFlag(&argc, argv);
  SetMinLogLevel(LogLevel::kWarning);
  bench::BenchResults results;
  std::printf("== Section V-F: pipeline scalability%s ==\n",
              quick ? " (quick)" : "");

  sim::SimConfig config = sim::SynDowBJConfig();
  if (quick) config.num_days = 10;
  const sim::World world = sim::GenerateWorld(config);
  std::printf("world: %lld GPS points, %zu trips\n",
              static_cast<long long>(world.TotalTrajectoryPoints()),
              world.trips.size());

  // --- (1) Stay-point extraction, serial vs parallel. ----------------------
  dlinfma::CandidateGeneration::Options options;
  {
    Stopwatch watch;
    const auto serial =
        dlinfma::CandidateGeneration::Build(world, options, /*pool=*/nullptr);
    const double serial_s = watch.ElapsedSeconds();
    ThreadPool pool(4);
    watch.Reset();
    const auto parallel =
        dlinfma::CandidateGeneration::Build(world, options, &pool);
    const double parallel_s = watch.ElapsedSeconds();
    results.Add("pipeline.staypoint.serial", serial_s);
    results.Add("pipeline.staypoint.pool4", parallel_s);
    std::printf(
        "stay-point extraction + pool: serial %.2fs | 4-thread pool %.2fs "
        "(%zu stay points -> %zu candidates)\n",
        serial_s, parallel_s, serial.stay_points().size(),
        serial.candidates().size());
  }

  // --- (2) Bi-weekly incremental clustering vs one-shot. --------------------
  {
    const auto gen = dlinfma::CandidateGeneration::Build(world, options);
    std::vector<Point> points;
    for (const StayPoint& sp : gen.stay_points()) {
      points.push_back(sp.location);
    }
    Stopwatch watch;
    const auto one_shot = AgglomerateByDistance(points, 40.0);
    const double one_shot_s = watch.ElapsedSeconds();
    results.Add("pipeline.cluster.oneshot", one_shot_s);
    std::printf(
        "clustering %zu stay points: one-shot %.2fs -> %zu clusters "
        "(bi-weekly merge is part of the pipeline timing above)\n",
        points.size(), one_shot_s, one_shot.size());
  }

  // --- (3) Training time comparison. ----------------------------------------
  {
    bench::BenchData bundle = bench::MakeBenchData(config);
    std::printf("\n%-14s %12s\n", "model", "train(s)");

    baselines::GeoRankBaseline georank;
    Stopwatch watch;
    georank.Fit(bundle.data, bundle.samples);
    results.Add("pipeline.train.georank", watch.ElapsedSeconds());
    std::printf("%-14s %12.1f\n", "GeoRank", watch.ElapsedSeconds());

    baselines::UnetBaseline::Options unet_options;
    if (quick) unet_options.max_epochs = 2;
    baselines::UnetBaseline unet(unet_options);
    watch.Reset();
    unet.Fit(bundle.data, bundle.samples);
    results.Add("pipeline.train.unet", watch.ElapsedSeconds());
    std::printf("%-14s %12.1f\n", "UNet-based", watch.ElapsedSeconds());

    dlinfma::TrainConfig train_config;
    if (quick) {
      train_config.max_epochs = 15;
      train_config.early_stop_patience = 5;
    }
    dlinfma::DlInfMaMethod dlinfma_method("DLInfMA", {}, train_config);
    watch.Reset();
    dlinfma_method.Fit(bundle.data, bundle.samples);
    results.Add("pipeline.train.dlinfma", watch.ElapsedSeconds());
    std::printf("%-14s %12.1f (epochs=%d)\n", "DLInfMA",
                watch.ElapsedSeconds(),
                dlinfma_method.train_result().epochs_run);
  }
  bench::DumpMetrics(metrics_path);
  if (!results.WriteJson(json_path)) return 1;
  return 0;
}
