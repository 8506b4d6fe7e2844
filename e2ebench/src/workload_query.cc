// The query path: a warm bundle served by the sharded QueryEngine over
// loopback, driven open loop by one generator thread.
//
// Keys are drawn in proportion to each address's waybill count in the
// history, so the simulator's log-normal order rates give a realistic hot
// set and real shard skew. A route planner asks once per trip with a
// /query_batch of the trip's waybills and the courier's app asks once per
// waybill with a /query, so batches are the history's trips over trips plus
// waybills. Arrivals are Poisson at a fixed reference rate, then at each
// rate of a fixed geometric ladder.

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "apps/http_conn.h"
#include "apps/shard_router.h"
#include "common/random.h"
#include "loadgen.h"
#include "workloads.h"

namespace e2e {

namespace apps = dlinf::apps;
namespace sim = dlinf::sim;

namespace {

enum Tag { kSingle = 0, kBatch = 1 };

/// Request mix drawn from the history: address keys weighted by waybill
/// count, the per-trip waybill lists that batches ask for, and the share of
/// requests that are batches (one per trip against one /query per waybill).
struct KeySpace {
  std::vector<int64_t> ids;
  std::vector<double> cumulative;  ///< Running waybill totals over ids.
  std::vector<std::vector<int64_t>> trips;
  double batch_share = 0.0;

  explicit KeySpace(const sim::World& world) {
    std::map<int64_t, double> counts;
    for (const sim::DeliveryTrip& trip : world.trips) {
      std::vector<int64_t> ids_of_trip;
      for (const sim::Waybill& w : trip.waybills) {
        counts[w.address_id] += 1.0;
        ids_of_trip.push_back(w.address_id);
      }
      if (!ids_of_trip.empty()) trips.push_back(std::move(ids_of_trip));
    }
    double total = 0.0;
    for (const auto& [id, count] : counts) {
      ids.push_back(id);
      total += count;
      cumulative.push_back(total);
    }
    batch_share = static_cast<double>(trips.size()) /
                  (static_cast<double>(trips.size()) + total);
  }

  int64_t Draw(dlinf::Rng* rng) const {
    const double u = rng->Uniform(0.0, cumulative.back());
    const size_t at = static_cast<size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    return ids[std::min(at, ids.size() - 1)];
  }
};

std::string GetQuery(int64_t id) {
  return "GET /query?address_id=" + std::to_string(id) +
         " HTTP/1.1\r\nHost: bench\r\n\r\n";
}

std::string BatchBody(const std::vector<int64_t>& ids) {
  std::string body = "{\"address_ids\":[";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) body += ',';
    body += std::to_string(ids[i]);
  }
  return body + "]}";
}

std::string PostBatch(const std::vector<int64_t>& ids) {
  const std::string body = BatchBody(ids);
  return "POST /query_batch HTTP/1.1\r\nHost: bench\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// Request ids behind each scheduled request (for checks and replays).
struct Schedule {
  std::vector<Request> requests;
  std::vector<int64_t> single_id;                 ///< -1 for batches.
  std::vector<const std::vector<int64_t>*> batch;  ///< nullptr for singles.
};

/// Poisson arrivals at `rps` for `seconds`, starting at `offset`.
void AppendTraffic(const KeySpace& keys, double rps, double offset,
                   double seconds, double batch_share, int connections,
                   int check_every, dlinf::Rng* rng, Schedule* schedule) {
  double t = offset;
  for (;;) {
    t += rng->Exponential(rps);
    if (t >= offset + seconds) break;
    Request r;
    r.due = t;
    r.conn = static_cast<int>(schedule->requests.size() %
                              static_cast<size_t>(connections));
    r.keep_body = schedule->requests.size() %
                      static_cast<size_t>(check_every) == 0;
    if (rng->Bernoulli(batch_share)) {
      const auto& trip = keys.trips[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(keys.trips.size()) - 1))];
      r.tag = kBatch;
      r.bytes = PostBatch(trip);
      schedule->single_id.push_back(-1);
      schedule->batch.push_back(&trip);
    } else {
      const int64_t id = keys.Draw(rng);
      r.tag = kSingle;
      r.bytes = GetQuery(id);
      schedule->single_id.push_back(id);
      schedule->batch.push_back(nullptr);
    }
    schedule->requests.push_back(std::move(r));
  }
}

/// The correctness gate: every kept body must equal the engine's own
/// formatting of a direct DeliveryLocationService answer for that key on
/// the shard the router picks. Shed answers are failures, not mismatches.
int64_t CheckAnswers(apps::QueryEngine* engine, const Schedule& schedule,
                     const std::vector<Outcome>& outcomes, Report* report) {
  int64_t checked = 0;
  auto expect = [&](int64_t id) {
    const int shard = engine->router().ShardOf(id);
    return apps::QueryEngine::FormatAnswerJson(
        id, engine->shard_manager(shard)->state()->service->Query(id), shard,
        /*shed=*/false);
  };
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (!schedule.requests[i].keep_body || o.status != 200 || o.shed) continue;
    std::string want;
    if (schedule.batch[i] == nullptr) {
      want = expect(schedule.single_id[i]);
    } else {
      want = "{\"answers\":[";
      for (size_t k = 0; k < schedule.batch[i]->size(); ++k) {
        if (k > 0) want += ',';
        want += expect((*schedule.batch[i])[k]);
      }
      want += "]}";
    }
    ++checked;
    if (o.body != want) {
      report->Mismatch("query answer differs from the direct lookup: got " +
                       o.body.substr(0, 160) + " want " +
                       want.substr(0, 160));
      return checked;
    }
  }
  return checked;
}

/// Per-request costs of the layers a /query crosses, replayed in-process
/// on the reference phase's exact keys and request bytes.
void ReplayQueryLayers(apps::QueryEngine* engine, const Schedule& schedule,
                       Report* report) {
  std::vector<int64_t> ids;
  std::vector<const std::string*> bytes;
  std::vector<const std::vector<int64_t>*> batches;
  for (size_t i = 0; i < schedule.requests.size(); ++i) {
    if (schedule.batch[i] == nullptr) {
      ids.push_back(schedule.single_id[i]);
      bytes.push_back(&schedule.requests[i].bytes);
    } else {
      batches.push_back(schedule.batch[i]);
    }
  }
  if (ids.empty()) return;
  const double n = static_cast<double>(ids.size());
  int64_t sink = 0;

  {
    ScopedSpan span("HttpParser::Feed/Next", "apps.http_conn");
    const double t0 = Now();
    apps::HttpParser parser;
    apps::HttpRequest request;
    for (const std::string* b : bytes) {
      parser.Feed(b->data(), b->size());
      while (parser.Next(&request) == apps::HttpParser::Status::kRequest) {
        sink += static_cast<int64_t>(request.target.size());
      }
    }
    report->Set("apps.parse_ns", (Now() - t0) / n * 1e9, "ns");
  }
  std::vector<int> shards;
  shards.reserve(ids.size());
  {
    ScopedSpan span("ShardRouter::ShardOf", "apps.shard_router");
    const apps::ShardRouter& router = engine->router();
    const double t0 = Now();
    for (const int64_t id : ids) shards.push_back(router.ShardOf(id));
    report->Set("apps.route_ns", (Now() - t0) / n * 1e9, "ns");
  }
  const auto state = engine->shard_manager(0)->state();
  std::vector<apps::DeliveryLocationService::Answer> answers;
  answers.reserve(ids.size());
  {
    ScopedSpan span("DeliveryLocationService::Query",
                    "apps.location_service");
    const double t0 = Now();
    for (const int64_t id : ids) answers.push_back(state->service->Query(id));
    report->Set("apps.lookup_ns", (Now() - t0) / n * 1e9, "ns");
  }
  {
    ScopedSpan span("QueryEngine::FormatAnswerJson", "apps.query_engine");
    const double t0 = Now();
    for (size_t i = 0; i < ids.size(); ++i) {
      sink += static_cast<int64_t>(apps::QueryEngine::FormatAnswerJson(
                                       ids[i], answers[i], shards[i], false)
                                       .size());
    }
    report->Set("apps.serialize_ns", (Now() - t0) / n * 1e9, "ns");
  }
  if (!batches.empty()) {
    ScopedSpan span("DeliveryLocationService::QueryBatch",
                    "apps.location_service");
    const double t0 = Now();
    for (const auto* batch : batches) {
      sink += static_cast<int64_t>(state->service->QueryBatch(*batch).size());
    }
    report->Set("apps.batch_lookup_us",
                (Now() - t0) / static_cast<double>(batches.size()) * 1e6,
                "us");
  } else {
    report->Set("apps.batch_lookup_us", 0.0, "us");
  }
  if (sink == 42) Note("replay", "sink");  // Keeps the replays observable.
}

}  // namespace

std::unique_ptr<apps::QueryEngine> BootEngine(const std::string& bundle_dir,
                                              int shards, int reps,
                                              double* boot_s, Report* report) {
  apps::QueryEngine::Options options;
  options.bundle_dir = bundle_dir;
  options.num_shards = shards;
  // A refreshed bundle comes from a different set of trips, so the shadow
  // probes must not veto it for disagreeing with the old one.
  options.bundle.min_agree_fraction = 0.0;
  std::vector<double> times;
  std::unique_ptr<apps::QueryEngine> engine;
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    if (engine != nullptr) {
      engine->Stop();
      engine.reset();
    }
    std::string error;
    ScopedSpan span("QueryEngine::Create", "apps.query_engine");
    const double t0 = Now();
    engine = apps::QueryEngine::Create(options, &error);
    times.push_back(Now() - t0);
    if (engine == nullptr) {
      report->Mismatch("QueryEngine::Create failed: " + error);
      return nullptr;
    }
  }
  *boot_s = Median(times);
  return engine;
}

void RunQueryPhase(const Plan& plan, const RunArgs& args,
                   const Inputs& inputs, apps::QueryEngine* engine,
                   Report* report) {
  const KeySpace keys(inputs.train_world);
  dlinf::Rng rng(args.seed * 0x2545f4914f6cdd1dull + 0x9e11);
  OpenLoopClient client;
  std::string error;
  if (!client.Connect(std::vector<int>(plan.query_connections, engine->port()),
                      &error)) {
    report->Mismatch("query connect failed: " + error);
    return;
  }
  Note("query.load",
       Fmt("loop=open arrivals=poisson ref_rps=%.0f ref_s=%.2f "
           "batch_share=%.4f (trips / (trips + waybills)) threads=1 "
           "connections=%d server_shards=%d server_loop_threads=1 keys=%zu "
           "limit_ms=%.1f",
           plan.query_ref_rps, plan.query_ref_s, keys.batch_share,
           plan.query_connections, engine->num_shards(), keys.ids.size(),
           plan.query_limit_ms));

  // Runs one schedule and checks its answers; only reference phases count
  // toward attempted/failed (warm-up and ladder steps are probes, and a
  // step beyond capacity fails by design).
  auto run = [&](double rps, double seconds, Schedule* schedule,
                 std::vector<Outcome>* outcomes, bool counted,
                 double drain_s = kFailureWaitS) {
    AppendTraffic(keys, rps, 0.0, seconds, keys.batch_share,
                  plan.query_connections, plan.query_check_every, &rng,
                  schedule);
    const double start = Now() + 0.002;
    client.Run(schedule->requests, start, outcomes, nullptr, drain_s,
               "\"shed\":true");
    const int64_t checked = CheckAnswers(engine, *schedule, *outcomes, report);
    int64_t failed = 0;
    for (const Outcome& o : *outcomes) {
      if (o.sent >= 0.0 && !(o.status == 200 && !o.shed)) ++failed;
    }
    if (counted) report->Count(static_cast<int64_t>(outcomes->size()), failed);
    return std::make_pair(start, checked);
  };

  // Warm-up: connections, first-touch of the KV maps; not measured.
  {
    Schedule warm;
    std::vector<Outcome> outcomes;
    run(plan.query_ref_rps, std::min(0.3, plan.query_ref_s), &warm,
        &outcomes, false);
  }

  const std::string metrics_before = HttpGetBody(engine->port(), "/metrics");
  const double cpu_before = ThreadCpuSeconds("qe.");
  Schedule ref;
  std::vector<Outcome> ref_out;
  const auto [ref_start, checked] =
      run(plan.query_ref_rps, plan.query_ref_s, &ref, &ref_out, true);
  const double engine_cpu_s = ThreadCpuSeconds("qe.") - cpu_before;
  const std::string metrics_after = HttpGetBody(engine->port(), "/metrics");
  const double end = ref_start + plan.query_ref_s;
  const double ref_n = plan.query_ref_rps * plan.query_ref_s;
  const LatencySummary single =
      Summarize(ref_out, ref.requests, kSingle, ref_start, end,
                WindowsFor(ref_n * (1.0 - keys.batch_share)));
  const LatencySummary batch =
      Summarize(ref_out, ref.requests, kBatch, ref_start, end,
                WindowsFor(ref_n * keys.batch_share));
  const LatencySummary all = Summarize(ref_out, ref.requests, -1, ref_start,
                                       end, WindowsFor(ref_n));
  Note("query.reference",
       Fmt("sent=%lld ok=%lld failed=%lld checked=%lld single_n=%lld "
           "p50_ms=%.4f p99_ms=%.4f batch_n=%lld batch_p99_ms=%.4f "
           "gen_lag_p99_ms=%.4f achieved_rps=%.1f engine_cpu_s=%.4f",
           static_cast<long long>(all.sent), static_cast<long long>(all.ok),
           static_cast<long long>(all.failed),
           static_cast<long long>(checked),
           static_cast<long long>(single.sent), single.p50_s * 1e3,
           single.p99_s * 1e3, static_cast<long long>(batch.sent),
           batch.p99_s * 1e3, all.lag_p99_s * 1e3,
           all.achieved_rps, engine_cpu_s));
  report->Set("query.p50_ms", ReportedMs(single.p50_s), "ms");
  report->Set("query.p99_ms", ReportedMs(single.p99_s), "ms");
  report->Set("query.batch_p99_ms", ReportedMs(batch.p99_s), "ms");
  report->Set("query.cpu_us_per_req",
              engine_cpu_s / std::max<int64_t>(1, all.ok) * 1e6, "us");
  report->Set("query.ok_frac",
              all.sent > 0 ? static_cast<double>(all.ok) / all.sent : 0.0,
              "fraction");
  report->Set("query.gen_lag_p99_ms", all.lag_p99_s * 1e3, "ms");
  // A generator that ran late makes this run's latency figures invalid
  // (they would time the client, not the server); say so beside them.
  Note("query.validity",
       all.lag_p99_s * 1e3 > plan.query_limit_ms
           ? Fmt("invalid: generator p99 lateness %.3f ms over the %.1f ms "
                 "limit", all.lag_p99_s * 1e3, plan.query_limit_ms)
           : std::string("valid"));
  if (checked == 0) report->Mismatch("no query answer was checked");

  // Engine-side view of the reference phase, from /metrics.
  const PromHistogram engine_hist = SubtractHistogram(
      ParsePromHistogram(metrics_after, "service_engine_latency_seconds"),
      ParsePromHistogram(metrics_before, "service_engine_latency_seconds"));
  double max_hits = 0.0;
  double sum_hits = 0.0;
  std::string hits_text;
  for (int s = 0; s < engine->num_shards(); ++s) {
    const std::string series = Fmt("service_shard_hits{shard=\"%d\"}", s);
    const double hits = std::max(0.0, PromValue(metrics_after, series)) -
                        std::max(0.0, PromValue(metrics_before, series));
    max_hits = std::max(max_hits, hits);
    sum_hits += hits;
    hits_text += Fmt(" shard%d=%.0f", s, hits);
  }
  const double mean_hits = sum_hits / std::max(1, engine->num_shards());
  report->Set("apps.engine_p99_ms", HistogramQuantile(engine_hist, 0.99) * 1e3,
              "ms");
  report->Set("apps.shard_skew", mean_hits > 0 ? max_hits / mean_hits : 0.0,
              "ratio");
  Note("query.shards", "hits over the reference phase (skew = max/mean):" +
                           hits_text);

  if (!args.trace) return;

  // Traced run only (its figures are per-layer): the ladder, each rate for
  // query_step_s, judged by JudgeStep; the highest passing rate counts, and
  // the ladder ends at the first overload.
  double max_rps = all.achieved_rps;
  for (int step = 0; step < plan.query_ladder_steps; ++step) {
    const double rps =
        plan.query_ladder_base * std::pow(plan.query_ladder_ratio, step);
    Schedule schedule;
    std::vector<Outcome> outcomes;
    const double start =
        run(rps, plan.query_step_s, &schedule, &outcomes, false, 1.0).first;
    const double stop = start + plan.query_step_s;
    const LatencySummary s =
        Summarize(outcomes, schedule.requests, -1, start, stop,
                  WindowsFor(rps * plan.query_step_s));
    const LatencySummary tail = Summarize(
        outcomes, schedule.requests, -1, stop - plan.query_step_s / 5, stop);
    const Verdict verdict = JudgeStep(s, tail, plan.query_limit_ms * 1e-3);
    Note("query.ladder",
         Fmt("rps=%.0f sent=%lld failed=%lld p99_ms=%.3f "
             "last_fifth_p50_ms=%.3f gen_lag_p99_ms=%.3f achieved_rps=%.1f %s",
             rps, static_cast<long long>(s.sent),
             static_cast<long long>(s.failed), s.p99_s * 1e3,
             tail.p50_s * 1e3, s.lag_p99_s * 1e3, s.achieved_rps,
             VerdictName(verdict)));
    if (verdict == Verdict::kOverload) break;
    if (verdict == Verdict::kPass) max_rps = std::max(max_rps, s.achieved_rps);
  }
  report->Set("query.max_rps", max_rps, "1/s");
  const std::string metrics_end = HttpGetBody(engine->port(), "/metrics");
  report->Set("apps.shed",
              std::max(0.0, PromValue(metrics_end, "service_shard_shed")) -
                  std::max(0.0, PromValue(metrics_before,
                                          "service_shard_shed")),
              "count");

  // The reference schedule once more with a span per request, for
  // the tracing overhead; then the per-layer replays on its keys.
  Tracer::Get().Enable(true);
  Schedule traced;
  std::vector<Outcome> traced_out;
  const double traced_start =
      run(plan.query_ref_rps, plan.query_ref_s, &traced, &traced_out, true)
          .first;
  const LatencySummary traced_single =
      Summarize(traced_out, traced.requests, kSingle, traced_start,
                traced_start + plan.query_ref_s,
                WindowsFor(ref_n * (1.0 - keys.batch_share)));
  report->Set("query.trace_overhead_ms",
              (traced_single.p50_s - single.p50_s) * 1e3, "ms");
  ReplayQueryLayers(engine, ref, report);
  Tracer::Get().Enable(false);
  const double layer_sum_ns =
      report->Get("apps.parse_ns") + report->Get("apps.route_ns") +
      report->Get("apps.lookup_ns") + report->Get("apps.serialize_ns");
  report->Set("apps.layer_sum_ms", layer_sum_ns * 1e-6, "ms");
  report->Set("apps.unattributed_ms",
              ReportedMs(single.p50_s) - layer_sum_ns * 1e-6, "ms");
}

}  // namespace e2e
