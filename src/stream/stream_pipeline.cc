#include "stream/stream_pipeline.h"

#include <utility>

#include "common/check.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/structured_log.h"
#include "obs/trace.h"

namespace dlinf {
namespace stream {
namespace {

/// Registry handles, looked up once: the per-point path must not take the
/// registry mutex.
struct PipelineMetrics {
  obs::Counter* points;
  obs::Counter* dropped_points;
  obs::Counter* duplicated_points;
  obs::Counter* trips;
  obs::Counter* stay_points;
  obs::Gauge* clusters;

  static const PipelineMetrics& Get() {
    static const PipelineMetrics metrics = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
      return PipelineMetrics{
          r.GetCounter("stream.ingest.points"),
          r.GetCounter("stream.ingest.dropped_points"),
          r.GetCounter("stream.ingest.duplicated_points"),
          r.GetCounter("stream.ingest.trips"),
          r.GetCounter("stream.ingest.stay_points"),
          r.GetGauge("stream.clusters"),
      };
    }();
    return metrics;
  }
};

}  // namespace

StreamIngestor::StreamIngestor(
    const sim::World& city,
    const dlinfma::CandidateGeneration::Options& options)
    : options_(options),
      updater_(options),
      filter_(options.noise_filter),
      detector_(options.stay_point) {
  // Static side only; trips arrive over the stream.
  world_.name = city.name;
  world_.station = city.station;
  world_.communities = city.communities;
  world_.buildings = city.buildings;
  world_.addresses = city.addresses;
  world_.couriers = city.couriers;
}

void StreamIngestor::StartTrip(const sim::DeliveryTrip& trip) {
  CHECK(!trip_open_) << "finish the previous trip before starting another";
  trip_open_ = true;
  current_ = sim::DeliveryTrip{};
  current_.courier_id = trip.courier_id;
  current_.start_time = trip.start_time;
  current_.end_time = trip.end_time;
  current_.waybills = trip.waybills;
  current_.planned_stays = trip.planned_stays;
  current_.trajectory.courier_id = trip.courier_id;
  current_stays_.clear();
  filter_.Reset();
  detector_.Reset(trip.courier_id);
}

size_t StreamIngestor::Ingest(const TrajPoint& point) {
  current_.trajectory.points.push_back(point);
  PipelineMetrics::Get().points->Add(1);
  if (!filter_.Push(point)) return 0;
  return detector_.Push(point, &current_stays_);
}

size_t StreamIngestor::PushPoint(const TrajPoint& point) {
  CHECK(trip_open_) << "PushPoint without an open trip";
  if (const auto fire = fault::Hit("stream.ingest.latency")) {
    fault::SleepForMs(fire->latency_ms);
  }
  if (fault::Hit("stream.ingest.drop_point")) {
    PipelineMetrics::Get().dropped_points->Add(1);
    return 0;
  }
  size_t emitted = Ingest(point);
  if (fault::Hit("stream.ingest.duplicate_point")) {
    PipelineMetrics::Get().duplicated_points->Add(1);
    emitted += Ingest(point);
  }
  return emitted;
}

size_t StreamIngestor::FinishTrip() {
  CHECK(trip_open_) << "FinishTrip without an open trip";
  obs::Span span("stream_ingest_trip");
  detector_.Flush(&current_stays_);
  current_.id = updater_.num_trips();
  for (StayPoint& sp : current_stays_) sp.trip_id = current_.id;
  updater_.AddTrip(world_, current_, current_stays_);
  const size_t stays = current_stays_.size();
  world_.trips.push_back(std::move(current_));
  trip_open_ = false;

  const PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.trips->Add(1);
  metrics.stay_points->Add(static_cast<int64_t>(stays));
  metrics.clusters->Set(static_cast<double>(updater_.num_clusters()));
  obs::LogLine(obs::LogSeverity::kInfo, "stream.trip")
      .Int("trip", world_.trips.back().id)
      .Int("points",
           static_cast<int64_t>(world_.trips.back().trajectory.size()))
      .Int("stay_points", static_cast<int64_t>(stays))
      .Int("clusters", static_cast<int64_t>(updater_.num_clusters()));
  return stays;
}

size_t StreamIngestor::ReplayTrip(const sim::DeliveryTrip& trip) {
  StartTrip(trip);
  for (const TrajPoint& point : trip.trajectory.points) {
    PushPoint(point);
  }
  return FinishTrip();
}

}  // namespace stream
}  // namespace dlinf
