#ifndef DLINF_E2EBENCH_WORKLOADS_H_
#define DLINF_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/query_engine.h"
#include "dlinfma/inferrer.h"
#include "harness.h"
#include "sim/config.h"
#include "sim/world.h"

/// \file
/// Every run walks one node's whole life, in the order a deployment does:
///
///   set-up  generate the city, the history trips and the trips to ingest
///   train   mine → features → fit → infer the test split → save the bundle
///   query   boot the sharded QueryEngine on that bundle, open-loop /query
///           and /query_batch traffic at a reference rate, then a ladder
///   ingest  POST /ingest the new trips open loop beside a low query
///           stream, refresh (stop → snapshot → retrain → publish →
///           hot reload) until the new addresses answer from the address
///           tier, then an ingest ladder on a fresh WAL
///
/// The workload decides which path gets the big input and most of the
/// measured time (the Plan); the other two paths still run, smaller, so
/// every run reports every end-to-end metric.

namespace e2e {

/// Sizes and rates of one workload. Rates are per second.
///
/// Where the traffic's shape comes from:
///   - query keys: each address's waybill count in the history (KeySpace);
///   - /query_batch share: one batch per trip against one /query per
///     waybill, from the history's own trip and waybill counts (KeySpace);
///   - producers: one per courier of the ingested trips;
///   - records per POST: upload_period_s over the simulator's GPS sampling
///     interval (13.5 s, the paper's datasets' interval), so 4 fixes.
/// Assumed, with no source in the paper or the simulator: the upload
/// period, the reference rates (set well under the measured maximum rates
/// on 4 cores, so the reference phases time the service and not a queue),
/// the query stream's rate beside ingest, and the connection counts.
struct Plan {
  // --- set-up -------------------------------------------------------------
  int setup_reps = 5;        ///< Set-up repeated; setup_s is the median.
  int communities = 12;

  // --- train --------------------------------------------------------------
  int train_days = 30;       ///< History horizon of the training world.
  int train_epochs = 4;      ///< Fixed epoch budget (no early stop).
  int train_reps = 9;        ///< Pipeline repetitions; total_s is the median.

  // --- query --------------------------------------------------------------
  int query_shards = 2;      ///< Shard workers (+1 loop thread).
  int query_connections = 3;
  double query_ref_rps = 6000;      ///< About 1/5 of the measured maximum.
  double query_ref_s = 6.0;
  double query_limit_ms = 5.0;      ///< p99 limit of the ladder.
  double query_ladder_base = 30000;
  double query_ladder_ratio = 1.1;
  int query_ladder_steps = 12;
  double query_step_s = 0.3;
  int query_check_every = 17;       ///< Every Nth answer is byte-checked.

  // --- ingest + refresh ---------------------------------------------------
  int ingest_days = 20;            ///< Horizon of the trips that get ingested.
  double upload_period_s = 60.0;   ///< A phone uploads its fixes this often.
  int ingest_connections = 2;
  double ingest_ref_rps = 10000;   ///< Records; about 1/10 of the maximum.
  double ingest_limit_ms = 20.0;   ///< Ack p99 limit of the ladder.
  double ingest_ladder_base = 60000;
  double ingest_ladder_ratio = 1.1;
  int ingest_ladder_steps = 12;
  double ingest_step_s = 0.3;
  double refresh_query_rps = 1000;  ///< Query stream beside ingest/refresh.
  int refresh_epochs = 4;           ///< Per-round retrain budget.
  int refresh_rounds = 7;           ///< Refreshes; times are medians.
  double refresh_timeout_s = 10.0;
};

/// Plan for a workload name; false when the name is unknown.
bool PlanFor(const std::string& workload, bool tiny, Plan* plan);

/// Scales the plan's timed traffic phases to a `seconds` measurement.
void ScalePlan(double seconds, Plan* plan);

/// Records per POST /ingest: the fixes one upload period holds at the
/// simulator's GPS sampling interval (at least one).
int RecordsPerPost(const Plan& plan);

/// Simulator configuration of the benchmark's city and history: the
/// SynDowBJ preset at its fixed seed, so the train path's accuracy is a
/// deterministic regression check.
dlinf::sim::SimConfig CityConfig(const Plan& plan);

/// Everything the set-up produces and the phases share.
struct Inputs {
  dlinf::sim::World train_world;   ///< City + history trips (fixed seed).
  dlinf::sim::World ingest_trips;  ///< Same city, new trips from the seed.
};

/// Generates the run's inputs; `seed` draws the trips to ingest (query
/// traffic is drawn from it by the query phases).
Inputs MakeInputs(const Plan& plan, uint64_t seed);

/// Splits delivered addresses into `data`'s train/val/test ids by their
/// community split tag (the rule BuildDataset applies).
void SplitIds(const dlinf::sim::World& world, dlinf::dlinfma::Dataset* data);

/// The train path: Build → ExtractSamples → Fit → InferAll → SaveBundle,
/// `plan.train_reps` times (plus once more traced in traced mode). Returns
/// the saved bundle's directory, which the query phase serves.
std::string RunTrainPhase(const Plan& plan, const RunArgs& args,
                          const Inputs& inputs, Report* report);

/// Boots the query engine on `bundle_dir` and returns it; the boot time
/// (median of `reps` boots) goes to *boot_s.
std::unique_ptr<dlinf::apps::QueryEngine> BootEngine(
    const std::string& bundle_dir, int shards, int reps, double* boot_s,
    Report* report);

/// The query path against a booted engine.
void RunQueryPhase(const Plan& plan, const RunArgs& args,
                   const Inputs& inputs, dlinf::apps::QueryEngine* engine,
                   Report* report);

/// The ingest and refresh path. Boots its own servers; `setup_boot_s`
/// receives the ingest server's start time (part of set-up).
void RunIngestPhase(const Plan& plan, const RunArgs& args,
                    const Inputs& inputs, Report* report,
                    double* setup_boot_s);

}  // namespace e2e

#endif  // DLINF_E2EBENCH_WORKLOADS_H_
