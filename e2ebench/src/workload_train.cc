// The train path and the run's inputs.
//
// The pipeline is the offline batch path of the paper: stay-point mining
// and clustering (CandidateGeneration::Build), feature extraction
// (ExtractSamples), LocMatcher training (DlInfMaMethod::Fit), inference on
// the test split (InferAll) and the serving bundle (SaveBundle). It runs on
// the control thread without a thread pool, so its time is one core's.

#include <algorithm>
#include <cmath>
#include <ctime>
#include <map>
#include <memory>

#include "cluster/hierarchical.h"
#include "common/random.h"
#include "dlinfma/dlinfma_method.h"
#include "dlinfma/metrics.h"
#include "io/bundle.h"
#include "sim/city_generator.h"
#include "sim/trip_generator.h"
#include "traj/noise_filter.h"
#include "traj/stay_point.h"
#include "workloads.h"

namespace e2e {

namespace dl = dlinf::dlinfma;
namespace sim = dlinf::sim;

sim::SimConfig CityConfig(const Plan& plan) {
  sim::SimConfig config = sim::SynDowBJConfig();  // Fixed seed 42.
  config.num_communities = plan.communities;
  config.num_days = plan.train_days;
  return config;
}

int RecordsPerPost(const Plan& plan) {
  return std::max(1, static_cast<int>(plan.upload_period_s /
                                      CityConfig(plan).gps_sample_interval_s));
}

Inputs MakeInputs(const Plan& plan, uint64_t seed) {
  const sim::SimConfig config = CityConfig(plan);
  dlinf::Rng rng(config.seed);
  Inputs inputs;
  inputs.train_world = sim::GenerateCity(config, &rng);
  inputs.ingest_trips = inputs.train_world;  // City only: no trips yet.
  sim::GenerateTrips(config, &inputs.train_world, &rng);
  sim::InjectConfirmationDelays(&inputs.train_world, config.confirm_batches,
                                config.p_delay, config.confirm_jitter_min_s,
                                config.confirm_jitter_max_s, &rng);

  // The trips to ingest: same city and couriers, trips drawn from the run's
  // seed, over a horizon that starts the day after the history ends.
  sim::SimConfig later = config;
  later.num_days = plan.ingest_days;
  dlinf::Rng trip_rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  sim::GenerateTrips(later, &inputs.ingest_trips, &trip_rng);
  sim::InjectConfirmationDelays(&inputs.ingest_trips, later.confirm_batches,
                                later.p_delay, later.confirm_jitter_min_s,
                                later.confirm_jitter_max_s, &trip_rng);
  const double shift = 86400.0 * plan.train_days;
  for (sim::DeliveryTrip& trip : inputs.ingest_trips.trips) {
    trip.start_time += shift;
    trip.end_time += shift;
    for (dlinf::TrajPoint& p : trip.trajectory.points) p.t += shift;
    for (sim::Waybill& w : trip.waybills) {
      w.receive_time += shift;
      w.recorded_delivery_time += shift;
      w.actual_delivery_time += shift;
    }
    for (sim::PlannedStay& stay : trip.planned_stays) {
      stay.start_time += shift;
      stay.end_time += shift;
    }
  }
  return inputs;
}

void SplitIds(const sim::World& world, dl::Dataset* data) {
  for (const int64_t id : world.DeliveredAddressIds()) {
    switch (world.address(id).split) {
      case sim::Split::kTrain: data->train_ids.push_back(id); break;
      case sim::Split::kVal: data->val_ids.push_back(id); break;
      case sim::Split::kTest: data->test_ids.push_back(id); break;
    }
  }
}

namespace {

/// Step times of one pipeline pass.
struct PipelinePass {
  double total_s = 0.0;
  double cpu_s = 0.0;
  double mine_s = 0.0;
  double features_s = 0.0;
  double fit_s = 0.0;
  double infer_s = 0.0;
  double save_s = 0.0;
  int64_t candidates = 0;
  int64_t stay_points = 0;
  int64_t samples = 0;
  int epochs = 0;
  dl::EvalMetrics eval;
};

dl::TrainConfig FixedBudget(int epochs) {
  dl::TrainConfig config;
  config.max_epochs = epochs;
  config.early_stop_patience = epochs + 1;  // Never stops early.
  return config;
}

PipelinePass RunPipeline(const Plan& plan, const sim::World& world,
                         const std::string& bundle_dir, Report* report) {
  PipelinePass pass;
  ScopedSpan root("train.pipeline", "bench");
  const std::clock_t c0 = std::clock();
  const double t0 = Now();
  dl::Dataset data;
  data.world = &world;
  {
    ScopedSpan span("CandidateGeneration::Build", "dlinfma");
    data.gen = std::make_unique<dl::CandidateGeneration>(
        dl::CandidateGeneration::Build(world, {}));
  }
  const double t1 = Now();
  SplitIds(world, &data);
  dl::SampleSet samples;
  {
    ScopedSpan span("ExtractSamples", "dlinfma");
    samples = dl::ExtractSamples(data, dl::FeatureConfig{});
  }
  const double t2 = Now();
  dl::DlInfMaMethod method("DLInfMA", dl::LocMatcherConfig{},
                           FixedBudget(plan.train_epochs));
  {
    ScopedSpan span("DlInfMaMethod::Fit", "nn");
    method.Fit(data, samples);
  }
  const double t3 = Now();
  std::vector<dlinf::Point> predicted;
  {
    ScopedSpan span("DlInfMaMethod::InferAll", "dlinfma");
    predicted = method.InferAll(data, samples.test);
  }
  const double t4 = Now();
  std::string error;
  bool saved = false;
  {
    ScopedSpan span("SaveBundle", "io");
    saved = dlinf::io::SaveBundle(bundle_dir, world, data, samples, method,
                                  &error);
  }
  const double t5 = Now();
  if (!saved) report->Mismatch("SaveBundle failed: " + error);

  pass.total_s = t5 - t0;
  pass.cpu_s = static_cast<double>(std::clock() - c0) / CLOCKS_PER_SEC;
  pass.mine_s = t1 - t0;
  pass.features_s = t2 - t1;
  pass.fit_s = t3 - t2;
  pass.infer_s = t4 - t3;
  pass.save_s = t5 - t4;
  pass.candidates = static_cast<int64_t>(data.gen->candidates().size());
  pass.stay_points = static_cast<int64_t>(data.gen->stay_points().size());
  pass.samples = static_cast<int64_t>(samples.train.size() +
                                      samples.val.size() +
                                      samples.test.size());
  pass.epochs = method.train_result().epochs_run;
  pass.eval = dl::ComputeMetrics(predicted,
                                 dl::GroundTruthOf(world, samples.test));
  return pass;
}

/// Per-op replay of the mining layers on the pipeline's exact inputs:
/// FilterNoise + DetectStayPoints on every trip (traj), then the batched
/// closest-pair agglomeration Build runs over the mined stay points
/// (cluster).
void ReplayMiningLayers(const sim::World& world, Report* report) {
  const dl::CandidateGeneration::Options options;
  std::vector<dlinf::StayPoint> stays;
  int64_t points = 0;
  {
    ScopedSpan span("FilterNoise+DetectStayPoints", "traj");
    const double t0 = Now();
    for (const sim::DeliveryTrip& trip : world.trips) {
      points += static_cast<int64_t>(trip.trajectory.points.size());
      const dlinf::Trajectory cleaned =
          dlinf::FilterNoise(trip.trajectory, options.noise_filter);
      std::vector<dlinf::StayPoint> found =
          dlinf::DetectStayPoints(cleaned, options.stay_point);
      stays.insert(stays.end(), found.begin(), found.end());
    }
    report->Set("traj.staypoint_s", Now() - t0, "s");
  }
  report->Set("traj.points", static_cast<double>(points), "count");
  report->Set("traj.stay_points", static_cast<double>(stays.size()), "count");

  // Bi-weekly batches, each agglomerated then merged into the running pool.
  double t_min = stays.empty() ? 0.0 : stays.front().Time();
  for (const dlinf::StayPoint& sp : stays) t_min = std::min(t_min, sp.Time());
  std::map<int64_t, std::vector<dlinf::PointCluster>> batches;
  for (size_t i = 0; i < stays.size(); ++i) {
    dlinf::PointCluster c;
    c.centroid = stays[i].location;
    c.weight = 1.0;
    c.members = {static_cast<int64_t>(i)};
    batches[static_cast<int64_t>((stays[i].Time() - t_min) /
                                 options.batch_window_s)]
        .push_back(std::move(c));
  }
  ScopedSpan span("AgglomerateByDistance", "cluster");
  const double t0 = Now();
  std::vector<dlinf::PointCluster> pool;
  for (auto& [key, singletons] : batches) {
    std::vector<dlinf::PointCluster> clusters = dlinf::AgglomerateByDistance(
        std::move(singletons), options.cluster_distance_m);
    pool.insert(pool.end(), std::make_move_iterator(clusters.begin()),
                std::make_move_iterator(clusters.end()));
    pool = dlinf::AgglomerateByDistance(std::move(pool),
                                        options.cluster_distance_m);
  }
  report->Set("cluster.oneshot_s", Now() - t0, "s");
  report->Set("cluster.clusters", static_cast<double>(pool.size()), "count");
}

}  // namespace

std::string RunTrainPhase(const Plan& plan, const RunArgs& args,
                          const Inputs& inputs, Report* report) {
  const std::string bundle_dir = args.work_dir + "/bundle_train";
  Tracer& tracer = Tracer::Get();
  tracer.Enable(false);

  std::vector<PipelinePass> passes;
  for (int rep = 0; rep < plan.train_reps; ++rep) {
    passes.push_back(
        RunPipeline(plan, inputs.train_world, bundle_dir, report));
    Note("train.pass",
         Fmt("rep=%d total_s=%.4f cpu_s=%.4f mine_s=%.4f features_s=%.4f "
             "fit_s=%.4f infer_s=%.4f save_s=%.4f mae_m=%.4f beta50=%.3f",
             rep, passes.back().total_s, passes.back().cpu_s,
             passes.back().mine_s,
             passes.back().features_s, passes.back().fit_s,
             passes.back().infer_s, passes.back().save_s,
             passes.back().eval.mae_m, passes.back().eval.beta50_pct));
  }

  // Correctness: accuracy is finite and repeats exactly across the passes
  // of one seed (every plan runs at least two).
  const PipelinePass& first = passes.front();
  if (!std::isfinite(first.eval.mae_m) || !std::isfinite(first.eval.beta50_pct)
      || first.eval.num_samples == 0) {
    report->Mismatch("train accuracy is not finite or has no test samples");
  }
  std::vector<double> totals;
  for (const PipelinePass& pass : passes) {
    totals.push_back(pass.total_s);
    if (pass.eval.mae_m != first.eval.mae_m ||
        pass.eval.beta50_pct != first.eval.beta50_pct) {
      report->Mismatch(Fmt("train accuracy differs across passes of one "
                           "seed: mae %.17g vs %.17g",
                           pass.eval.mae_m, first.eval.mae_m));
    }
  }
  report->Count(static_cast<int64_t>(passes.size()), 0);
  const double untraced_total = Median(totals);
  report->Set("train.total_s", untraced_total, "s");
  {
    std::vector<double> cpu;
    for (const PipelinePass& pass : passes) cpu.push_back(pass.cpu_s);
    report->Set("train.cpu_s", Median(cpu), "s");
  }
  report->Set("train.mae_m", first.eval.mae_m, "m");
  report->Set("train.beta50", first.eval.beta50_pct, "%");

  if (!args.trace) return bundle_dir;

  // Traced pass: spans around each public call, then per-op replays.
  tracer.Enable(true);
  const double traced_from = Now();
  const PipelinePass traced =
      RunPipeline(plan, inputs.train_world, bundle_dir, report);
  if (traced.eval.mae_m != first.eval.mae_m) {
    report->Mismatch("traced train pass changed the accuracy");
  }
  report->Count(1, 0);
  const std::map<std::string, double> self =
      tracer.SelfTimeByLayer(traced_from);
  double layer_sum = 0.0;
  for (const auto& [layer, seconds] : self) {
    if (layer != "bench") layer_sum += seconds;
    Note("train.self_time", Fmt("layer=%s s=%.6f", layer.c_str(), seconds));
  }
  report->Set("train.layer_sum_s", layer_sum, "s");
  report->Set("train.unattributed_s", untraced_total - layer_sum, "s");
  report->Set("train.trace_overhead_s", traced.total_s - untraced_total, "s");

  std::vector<double> mine, features, fit, infer, save;
  for (const PipelinePass& pass : passes) {
    mine.push_back(pass.mine_s);
    features.push_back(pass.features_s);
    fit.push_back(pass.fit_s);
    infer.push_back(pass.infer_s);
    save.push_back(pass.save_s);
  }
  report->Set("dlinfma.mine_s", Median(mine), "s");
  report->Set("dlinfma.candidates", static_cast<double>(first.candidates),
              "count");
  report->Set("dlinfma.features_s", Median(features), "s");
  report->Set("dlinfma.samples", static_cast<double>(first.samples), "count");
  report->Set("dlinfma.fit_s", Median(fit), "s");
  report->Set("dlinfma.epochs", first.epochs, "count");
  report->Set("dlinfma.epoch_s",
              Median(fit) / std::max(1, first.epochs), "s");
  report->Set("dlinfma.infer_s", Median(infer), "s");
  report->Set("io.bundle_save_s", Median(save), "s");

  ReplayMiningLayers(inputs.train_world, report);
  if (static_cast<int64_t>(report->Get("traj.stay_points")) !=
      first.stay_points) {
    report->Mismatch("stay-point replay disagrees with Build");
  }
  {
    ScopedSpan span("LoadBundle", "io");
    const double t0 = Now();
    std::string error;
    const auto bundle = dlinf::io::LoadBundle(bundle_dir, &error);
    report->Set("io.bundle_load_s", Now() - t0, "s");
    if (!bundle) report->Mismatch("LoadBundle failed: " + error);
  }
  report->Set("io.bundle_bytes", static_cast<double>(DirBytes(bundle_dir)),
              "bytes");
  tracer.Enable(false);
  return bundle_dir;
}

}  // namespace e2e
