#include "stream/ingest_server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/http_conn.h"
#include "common/string_util.h"
#include "fault/fault.h"
#include "io/artifact.h"
#include "io/bundle.h"
#include "io/codecs.h"
#include "io/wal_frame.h"
#include "obs/metrics.h"
#include "scratch_dir.h"
#include "sim/config.h"
#include "sim/generator.h"
#include "stream/online_trainer.h"
#include "stream/stream_pipeline.h"
#include "stream/wal.h"

namespace dlinf {
namespace {

using apps::HttpClient;
using stream::FormatIngestLine;
using stream::IngestRecord;
using stream::IngestServer;
using stream::JoinLines;
using stream::OnlineTrainer;
using stream::ParseIngestLine;
using stream::StreamIngestor;
using stream::TripLines;
using ::testing::TempDir;

std::string ScratchDir(const std::string& name) {
  static const ScopedTempDir root("ingest_test");
  const std::string dir = root.Child(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Small generated world shared by every test: `City()` is its static side
/// (no trips), `Trips()` the recorded trips we stream at it.
const sim::World& FullWorld() {
  static const sim::World* world = [] {
    sim::SimConfig config = sim::SynDowBJConfig();
    config.num_days = 1;
    config.num_communities = 3;
    return new sim::World(sim::GenerateWorld(config));
  }();
  return *world;
}

const sim::World& City() {
  static const sim::World* city = [] {
    auto* c = new sim::World(FullWorld());
    c->trips.clear();
    return c;
  }();
  return *city;
}

/// POSTs `body` to /ingest and returns the status (-1 on transport error).
int PostIngest(HttpClient* client, const std::string& body,
               std::string* response = nullptr) {
  if (!client->SendPost("/ingest", body)) return -1;
  int status = 0;
  std::string response_body;
  if (!client->ReadResponse(&status, &response_body)) return -1;
  if (response != nullptr) *response = response_body;
  return status;
}

/// Asserts two ingestors reached bit-identical state: same streamed trips
/// (trajectories byte-equal), same mined stay points, same live centroids.
void ExpectBitIdentical(const StreamIngestor& a, const StreamIngestor& b) {
  ASSERT_EQ(a.world().trips.size(), b.world().trips.size());
  for (size_t i = 0; i < a.world().trips.size(); ++i) {
    const auto& ta = a.world().trips[i];
    const auto& tb = b.world().trips[i];
    EXPECT_EQ(ta.courier_id, tb.courier_id);
    ASSERT_EQ(ta.trajectory.points.size(), tb.trajectory.points.size());
    for (size_t j = 0; j < ta.trajectory.points.size(); ++j) {
      EXPECT_EQ(std::memcmp(&ta.trajectory.points[j],
                            &tb.trajectory.points[j], sizeof(TrajPoint)),
                0);
    }
  }
  const auto stays_a = a.Snapshot().stay_points();
  const auto stays_b = b.Snapshot().stay_points();
  ASSERT_EQ(stays_a.size(), stays_b.size());
  for (size_t i = 0; i < stays_a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&stays_a[i], &stays_b[i], sizeof(StayPoint)), 0);
  }
  const auto centroids_a = a.updater().LiveCentroids();
  const auto centroids_b = b.updater().LiveCentroids();
  ASSERT_EQ(centroids_a.size(), centroids_b.size());
  for (size_t i = 0; i < centroids_a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&centroids_a[i], &centroids_b[i], sizeof(Point)),
              0);
  }
}

int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

IngestServer::Options BaseOptions(const std::string& dir) {
  IngestServer::Options options;
  options.wal.dir = dir;
  options.city = City();
  return options;
}

// --- Protocol codec ---------------------------------------------------------

TEST(IngestProtocolTest, FormatParseRoundTripsRandomRecords) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> coord(-1e4, 1e4);
  for (int i = 0; i < 500; ++i) {
    IngestRecord record;
    const int kind = static_cast<int>(rng() % 3);
    record.client_id = "client-" + std::to_string(rng() % 7);
    record.seq = 1 + rng() % 1000;
    if (kind == 0) {
      record.kind = IngestRecord::Kind::kStartTrip;
      record.courier_id = static_cast<int64_t>(rng() % 100);
      record.start_time = coord(rng);
      record.end_time = coord(rng);
      const size_t waybills = rng() % 3;
      for (size_t w = 0; w < waybills; ++w) {
        sim::Waybill wb;
        wb.id = static_cast<int64_t>(rng() % 1000);
        wb.address_id = static_cast<int64_t>(rng() % 1000);
        wb.receive_time = coord(rng);
        wb.recorded_delivery_time = coord(rng);
        wb.actual_delivery_time = coord(rng);
        record.waybills.push_back(wb);
      }
    } else if (kind == 1) {
      record.kind = IngestRecord::Kind::kPoint;
      record.x = coord(rng);
      record.y = coord(rng);
      record.t = coord(rng);
    } else {
      record.kind = IngestRecord::Kind::kFinishTrip;
    }

    IngestRecord parsed;
    std::string error;
    ASSERT_TRUE(ParseIngestLine(FormatIngestLine(record), &parsed, &error))
        << error;
    EXPECT_EQ(parsed.kind, record.kind);
    EXPECT_EQ(parsed.client_id, record.client_id);
    EXPECT_EQ(parsed.seq, record.seq);
    EXPECT_EQ(FormatIngestLine(parsed), FormatIngestLine(record));
  }
}

TEST(IngestProtocolTest, MalformedLinesAreTypedNeverAborting) {
  const std::vector<std::string> bad = {
      "",
      "frobnicate c 1",
      "point c 0 1 2 3",          // seq 0 invalid
      "point c x 1 2 3",          // non-numeric seq
      "point c 1 1 2",            // missing field
      "point c 1 1 2 3 4",        // extra field
      "start_trip c 1 7 0.0",     // missing t1
      "start_trip c 1 7 a b",     // bad numerics
      "start_trip c 1 7 0 1 wb=1:2:3",  // short waybill
      "start_trip c 1 7 0 1 zz=1",      // unknown token
      "start_trip c 1 7 nan 1",         // non-finite trip start
      "start_trip c 1 7 0 inf",         // non-finite trip end
      "start_trip c 1 7 0 1 wb=1:2:nan:3:4",   // non-finite receive time
      "start_trip c 1 7 0 1 wb=1:2:3:-inf:4",  // non-finite recorded time
      "start_trip c 1 7 0 1 wb=1:2:3:4:nan",   // non-finite actual time
      "start_trip c 1 7 +0 1",          // sign the strict parser refuses
      "start_trip c 1 7 0 1e999",       // out of double range
      "finish_trip c 1 extra",
      "finish_trip c",
  };
  for (const std::string& line : bad) {
    IngestRecord record;
    std::string error;
    EXPECT_FALSE(ParseIngestLine(line, &record, &error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(IngestProtocolTest, TokenRulesTable) {
  // The token rules, pinned: a body splits on '\n', one trailing '\r'
  // is stripped per line, empty lines are skipped; tokens split on runs of
  // spaces and waybill fields on runs of ':'.
  struct Case {
    std::string body;
    size_t lines;   ///< Record lines the body splits into.
    bool accepted;  ///< Every line parses.
  };
  const std::vector<Case> cases = {
      {"point c 1 1 2 3\n", 1, true},
      {"point c 1 1 2 3", 1, true},  // Last line needs no '\n'.
      {"point  c   1 1  2 3\n", 1, true},  // Repeated spaces collapse.
      {"  point c 1 1 2 3  \n", 1, true},  // Edge spaces too.
      {"point c 1 1 2 3\r\n", 1, true},    // Trailing '\r' stripped.
      {"point c 1 1 2 3\r\r\n", 1, false},  // Only one '\r' is.
      {"\n\npoint c 1 1 2 3\n\r\n\n", 1, true},  // Empty lines skipped.
      {"\r\n\n", 0, true},
      {"point\tc 1 1 2 3\n", 1, false},  // A tab is not a separator.
      {"point c 1 1 2 3\nfinish_trip c 2\n", 2, true},
      {"point c 1 1 2 3\nbogus\n", 2, false},
      {"start_trip c 1 7 0 1 wb=1:2:3:4:5\n", 1, true},
      {"start_trip c 1 7 0 1 wb=1::2:3:4:5\n", 1, true},  // ':' runs collapse.
      {"start_trip c 1 7 0 1 wb=1:2:3:4:\n", 1, false},   // Empty part.
      {"start_trip c 1 7 0 1 wb=:1:2:3:4\n", 1, false},
      {"start_trip c 1 7 0 1 wb=\n", 1, false},
      {"start_trip c 1 7 0 1 wb\n", 1, false},
      {"start_trip c 1 7 0 1 wb=1:2:3:4:5:6\n", 1, false},
  };
  for (const Case& c : cases) {
    const std::vector<std::string_view> lines = stream::IngestBodyLines(c.body);
    EXPECT_EQ(lines.size(), c.lines) << c.body;
    bool accepted = true;
    for (std::string_view line : lines) {
      IngestRecord record;
      std::string error;
      accepted = accepted && ParseIngestLine(line, &record, &error);
      if (accepted) {
        EXPECT_EQ(record.client_id, "c") << c.body;
      }
    }
    EXPECT_EQ(accepted, c.accepted) << c.body;
  }
  IngestRecord record;
  ASSERT_TRUE(ParseIngestLine("start_trip c 1 7 0 1 wb=1::2:3:4:5 wb=6:7:8:9:10",
                              &record, nullptr));
  ASSERT_EQ(record.waybills.size(), 2u);
  EXPECT_EQ(record.waybills[0].address_id, 2);
  EXPECT_EQ(record.waybills[0].actual_delivery_time, 5.0);
  EXPECT_EQ(record.waybills[1].id, 6);
}

/// The wire form as it was first written, with printf's %.17g: the WAL's
/// byte format, which FormatIngestLine must keep.
std::string PrintfIngestLine(const IngestRecord& record) {
  switch (record.kind) {
    case IngestRecord::Kind::kStartTrip: {
      std::string line = StrPrintf(
          "start_trip %s %llu %lld %.17g %.17g", record.client_id.c_str(),
          static_cast<unsigned long long>(record.seq),
          static_cast<long long>(record.courier_id), record.start_time,
          record.end_time);
      for (const sim::Waybill& wb : record.waybills) {
        line += StrPrintf(" wb=%lld:%lld:%.17g:%.17g:%.17g",
                          static_cast<long long>(wb.id),
                          static_cast<long long>(wb.address_id),
                          wb.receive_time, wb.recorded_delivery_time,
                          wb.actual_delivery_time);
      }
      return line;
    }
    case IngestRecord::Kind::kPoint:
      return StrPrintf("point %s %llu %.17g %.17g %.17g",
                       record.client_id.c_str(),
                       static_cast<unsigned long long>(record.seq), record.x,
                       record.y, record.t);
    case IngestRecord::Kind::kFinishTrip:
      return StrPrintf("finish_trip %s %llu", record.client_id.c_str(),
                       static_cast<unsigned long long>(record.seq));
  }
  return "";
}

TEST(IngestProtocolTest, FormatMatchesPrintfPercent17g) {
  // Fixes accept non-finite values, so the specials are in the mix.
  const double kSpecial[] = {
      0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(), 9007199254740992.0,
      9007199254740993.0, -9007199254740992.0, 1e16, 1e17, 1e-5, 1e-4,
      123456.789, 0.1, 1.0 / 3.0};
  std::mt19937_64 rng(20260);
  std::uniform_real_distribution<double> coord(-2e4, 2e4);
  auto value = [&]() -> double {
    switch (rng() % 4) {
      case 0:
        return kSpecial[rng() % std::size(kSpecial)];
      case 1:
        return std::bit_cast<double>(rng());  // Any bit pattern.
      default:
        return coord(rng);
    }
  };
  auto integer = [&]() -> int64_t {
    return rng() % 2 == 0 ? static_cast<int64_t>(rng())
                          : static_cast<int64_t>(rng() % 1000);
  };
  for (int i = 0; i < 100000; ++i) {
    IngestRecord record;
    record.kind = static_cast<IngestRecord::Kind>(1 + rng() % 3);
    record.client_id = "producer-" + std::to_string(rng() % 97);
    record.seq = rng() % 2 == 0 ? rng() : 1 + rng() % 1000;
    if (record.kind == IngestRecord::Kind::kStartTrip) {
      record.courier_id = integer();
      record.start_time = value();
      record.end_time = value();
      for (uint64_t w = rng() % 3; w > 0; --w) {
        sim::Waybill wb;
        wb.id = integer();
        wb.address_id = integer();
        wb.receive_time = value();
        wb.recorded_delivery_time = value();
        wb.actual_delivery_time = value();
        record.waybills.push_back(wb);
      }
    } else if (record.kind == IngestRecord::Kind::kPoint) {
      record.x = value();
      record.y = value();
      record.t = value();
    }
    ASSERT_EQ(FormatIngestLine(record), PrintfIngestLine(record)) << i;
  }
}

// --- End-to-end -------------------------------------------------------------

TEST(IngestServerTest, StreamedTripsMatchDirectIngestorBitIdentical) {
  IngestServer server(BaseOptions(ScratchDir("e2e")));
  ASSERT_TRUE(server.Start());

  const auto& trips = FullWorld().trips;
  ASSERT_GE(trips.size(), 4u);

  // Two interleaved clients, one POST per record batch of a whole trip.
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  uint64_t seq_a = 0;
  uint64_t seq_b = 0;
  std::vector<const sim::DeliveryTrip*> finish_order;
  for (size_t i = 0; i + 1 < trips.size(); i += 2) {
    ASSERT_EQ(PostIngest(&client,
                         JoinLines(TripLines("a", trips[i], &seq_a))),
              200);
    finish_order.push_back(&trips[i]);
    ASSERT_EQ(PostIngest(&client,
                         JoinLines(TripLines("b", trips[i + 1], &seq_b))),
              200);
    finish_order.push_back(&trips[i + 1]);
  }
  server.Stop();

  StreamIngestor reference(City(), {});
  for (const sim::DeliveryTrip* trip : finish_order) {
    reference.ReplayTrip(*trip);
  }
  ExpectBitIdentical(server.ingestor(), reference);

  const IngestServer::Stats stats = server.stats();
  EXPECT_EQ(stats.acked, static_cast<int64_t>(seq_a + seq_b));
  EXPECT_EQ(stats.deduped, 0);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.trips, static_cast<int64_t>(finish_order.size()));
  EXPECT_EQ(stats.received, stats.acked);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(IngestServerTest, WalSegmentHoldsExactlyTheFramedTripLines) {
  const std::string dir = ScratchDir("wal-bytes");
  IngestServer server(BaseOptions(dir));
  ASSERT_TRUE(server.Start());

  // A fixed stream: two trips of one producer, one POST per trip.
  const auto& trips = FullWorld().trips;
  ASSERT_GE(trips.size(), 2u);
  uint64_t seq = 0;
  std::string expected;
  io::AppendWalSegmentHeader(0, &expected);
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  for (size_t i = 0; i < 2; ++i) {
    const std::vector<std::string> lines = TripLines("wal", trips[i], &seq);
    for (size_t j = 0; j < lines.size(); ++j) {
      const IngestRecord::Kind kind =
          j == 0                  ? IngestRecord::Kind::kStartTrip
          : j + 1 == lines.size() ? IngestRecord::Kind::kFinishTrip
                                  : IngestRecord::Kind::kPoint;
      io::AppendWalFrame(static_cast<uint32_t>(kind), lines[j], &expected);
    }
    ASSERT_EQ(PostIngest(&client, JoinLines(lines)), 200);
  }
  server.Stop();

  std::vector<std::string> segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    uint64_t index = 0;
    if (io::ParseWalSegmentFileName(entry.path().filename().string(),
                                    &index)) {
      segments.push_back(entry.path().string());
    }
  }
  ASSERT_EQ(segments.size(), 1u);
  const std::string bytes = ReadFileBytes(segments[0]);
  EXPECT_TRUE(bytes == expected)
      << "segment holds " << bytes.size() << " bytes, expected "
      << expected.size();
}

TEST(IngestServerTest, RetrainRoundsPublishWhatTheDirectPathPublishes) {
  // Rounds on the loop publish the bundle that StreamIngestor::ReplayTrip +
  // OnlineTrainer::Retrain publish at the same trip counts, byte for byte.
  const std::string root = ScratchDir("rounds");
  constexpr int64_t kEvery = 2;
  OnlineTrainer::Options trainer_options;
  trainer_options.train.max_epochs = 2;
  trainer_options.publish_dir = root + "/served";
  OnlineTrainer served_trainer(trainer_options);
  trainer_options.publish_dir = root + "/direct";
  OnlineTrainer direct_trainer(trainer_options);

  IngestServer::Options options = BaseOptions(root + "/wal");
  options.trainer = &served_trainer;
  options.retrain_every_trips = kEvery;
  IngestServer server(std::move(options));
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  StreamIngestor direct(City(), {});
  const auto& trips = FullWorld().trips;
  uint64_t seq = 0;
  int compared = 0;
  for (size_t i = 0; i < trips.size(); ++i) {
    ASSERT_EQ(PostIngest(&client, JoinLines(TripLines("r", trips[i], &seq))),
              200);
    direct.ReplayTrip(trips[i]);
    if ((i + 1) % kEvery != 0) continue;
    // The 200 goes out after the round, so its publish is on disk.
    if (!direct_trainer.Retrain(direct.world(), direct.Snapshot()).published) {
      continue;
    }
    ++compared;
    for (const char* name : io::kBundleFiles) {
      const std::string served = ReadFileBytes(root + "/served/" + name);
      EXPECT_FALSE(served.empty()) << name;
      EXPECT_TRUE(served == ReadFileBytes(root + "/direct/" + name))
          << name << " after " << i + 1 << " trips";
    }
  }
  server.Stop();
  EXPECT_GT(compared, 0);
  EXPECT_EQ(served_trainer.rounds_completed(),
            direct_trainer.rounds_completed());
  EXPECT_EQ(server.stats().trips, static_cast<int64_t>(trips.size()));
}

TEST(IngestServerTest, RecoveryNeverRunsARound) {
  const std::string root = ScratchDir("no-recovery-round");
  OnlineTrainer::Options trainer_options;
  trainer_options.train.max_epochs = 1;
  trainer_options.publish_dir = root + "/bundle";
  uint64_t seq = 0;
  {
    IngestServer server(BaseOptions(root + "/wal"));
    ASSERT_TRUE(server.Start());
    HttpClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    for (const sim::DeliveryTrip& trip : FullWorld().trips) {
      ASSERT_EQ(PostIngest(&client, JoinLines(TripLines("rc", trip, &seq))),
                200);
    }
    server.Stop();
  }
  OnlineTrainer trainer(trainer_options);
  IngestServer::Options options = BaseOptions(root + "/wal");
  options.trainer = &trainer;
  options.retrain_every_trips = 1;
  IngestServer restarted(std::move(options));
  ASSERT_TRUE(restarted.Start());
  restarted.Stop();
  EXPECT_EQ(restarted.stats().trips,
            static_cast<int64_t>(FullWorld().trips.size()));
  EXPECT_EQ(trainer.rounds_completed(), 0);
  EXPECT_FALSE(std::filesystem::exists(root + "/bundle"));
}

TEST(IngestServerTest, NonCanonicalPostRecoversToItsCanonicalState) {
  // The WAL keeps each line as received. A spelling the parser accepts but
  // FormatIngestLine would not produce (runs of spaces and of ':', CRLF)
  // must recover to the state its canonical form builds, dedup included.
  const sim::DeliveryTrip& trip = FullWorld().trips[0];
  uint64_t seq = 0;
  const std::vector<std::string> canonical = TripLines("nc", trip, &seq);
  std::string sloppy;
  for (const std::string& line : canonical) {
    sloppy += "  ";
    for (char c : line) {
      sloppy += c;
      if (c == ' ' || c == ':') sloppy += c;
    }
    sloppy += " \r\n";
  }

  const std::string sloppy_dir = ScratchDir("sloppy");
  const std::string canonical_dir = ScratchDir("canonical");
  for (const auto& [dir, body] :
       {std::pair{sloppy_dir, sloppy},
        std::pair{canonical_dir, JoinLines(canonical)}}) {
    IngestServer server(BaseOptions(dir));
    ASSERT_TRUE(server.Start());
    HttpClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    ASSERT_EQ(PostIngest(&client, body), 200);
    server.Stop();
  }

  IngestServer recovered(BaseOptions(sloppy_dir));
  ASSERT_TRUE(recovered.Start());
  IngestServer reference(BaseOptions(canonical_dir));
  ASSERT_TRUE(reference.Start());
  EXPECT_EQ(recovered.stats().recovered,
            static_cast<int64_t>(canonical.size()));
  EXPECT_EQ(recovered.stats().trips, 1);
  HttpClient client;
  ASSERT_TRUE(client.Connect(recovered.port()));
  std::string response;
  ASSERT_EQ(PostIngest(&client, JoinLines(canonical), &response), 200);
  EXPECT_EQ(response, "{\"acked\":0,\"deduped\":" +
                          std::to_string(canonical.size()) + "}\n");
  recovered.Stop();
  reference.Stop();
  ExpectBitIdentical(recovered.ingestor(), reference.ingestor());
}

TEST(IngestServerTest, OneTripMovesEveryCounterByItsExactDelta) {
  const sim::DeliveryTrip& trip = FullWorld().trips[0];
  uint64_t seq = 0;
  const std::vector<std::string> lines = TripLines("counted", trip, &seq);
  int64_t frame_bytes = 0;
  for (const std::string& line : lines) {
    frame_bytes += static_cast<int64_t>(io::kWalFrameHeaderSize + line.size());
  }
  const int64_t n = static_cast<int64_t>(lines.size());
  const std::vector<std::string> names = {
      "stream.ingest.points",       "stream.ingest.trips",
      "stream.ingest.stay_points",  "stream.cluster.spawns",
      "stream.cluster.merges",      "wal.appends",
      "wal.append_bytes",           "stream.ingest.received",
      "stream.ingest.acked",        "stream.ingest.batches",
      "stream.ingest.trips_completed"};
  auto snapshot = [&] {
    std::vector<int64_t> values;
    for (const std::string& name : names) values.push_back(CounterValue(name));
    return values;
  };
  auto deltas = [&](const std::vector<int64_t>& before) {
    std::vector<int64_t> after = snapshot();
    for (size_t i = 0; i < after.size(); ++i) after[i] -= before[i];
    return after;
  };

  // The same trip replayed straight into a fresh ingestor: the stream
  // counters' reference deltas.
  std::vector<int64_t> before = snapshot();
  StreamIngestor reference(City(), {});
  const int64_t stays = static_cast<int64_t>(reference.ReplayTrip(trip));
  const std::vector<int64_t> direct = deltas(before);
  const int64_t points = static_cast<int64_t>(trip.trajectory.points.size());
  EXPECT_EQ(direct[0], points);
  EXPECT_EQ(direct[1], 1);
  EXPECT_EQ(direct[2], stays);
  EXPECT_EQ(direct[3] - direct[4],
            static_cast<int64_t>(reference.updater().num_clusters()));

  IngestServer server(BaseOptions(ScratchDir("counters")));
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  before = snapshot();
  ASSERT_EQ(PostIngest(&client, JoinLines(lines)), 200);
  server.Stop();
  const std::vector<int64_t> served = deltas(before);
  const std::vector<int64_t> expected = {
      points, 1, stays, direct[3], direct[4], n, frame_bytes, n, n, 1, 1};
  EXPECT_EQ(served, expected);
}

TEST(IngestServerTest, RetriedPostIsAnExactNoOp) {
  IngestServer server(BaseOptions(ScratchDir("dedup")));
  ASSERT_TRUE(server.Start());

  uint64_t seq = 0;
  const std::string body =
      JoinLines(TripLines("retry-client", FullWorld().trips[0], &seq));

  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  std::string response;
  ASSERT_EQ(PostIngest(&client, body, &response), 200);
  EXPECT_NE(response.find("\"acked\":" + std::to_string(seq)),
            std::string::npos)
      << response;
  const IngestServer::Stats before = server.stats();

  // The identical POST again: acked as a no-op, nothing re-applied.
  ASSERT_EQ(PostIngest(&client, body, &response), 200);
  EXPECT_NE(response.find("\"acked\":0"), std::string::npos) << response;
  EXPECT_NE(response.find("\"deduped\":" + std::to_string(seq)),
            std::string::npos)
      << response;
  const IngestServer::Stats after = server.stats();
  EXPECT_EQ(after.acked, before.acked);
  EXPECT_EQ(after.deduped, before.deduped + static_cast<int64_t>(seq));
  EXPECT_EQ(after.trips, before.trips);
  server.Stop();
  EXPECT_EQ(server.ingestor().num_trips(), 1);
}

TEST(IngestServerTest, SequenceGapAndLifecycleViolationsAreTyped409s) {
  IngestServer server(BaseOptions(ScratchDir("gap")));
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Gap: first record must be seq 1.
  std::string response;
  ASSERT_EQ(PostIngest(&client, "start_trip g 5 1 0 100\n", &response), 409);
  EXPECT_NE(response.find("expected 1"), std::string::npos) << response;

  // Lifecycle: a point with no open trip.
  ASSERT_EQ(PostIngest(&client, "point g 1 1.0 2.0 3.0\n", &response), 409);
  EXPECT_NE(response.find("lifecycle"), std::string::npos) << response;

  // A failed batch leaves no trace: the correct sequence still starts at 1.
  ASSERT_EQ(PostIngest(&client, "start_trip g 1 1 0 100\n", &response), 200);

  // Malformed body → 400.
  ASSERT_EQ(PostIngest(&client, "point g 2 not-a-number 0 0\n", &response),
            400);
  ASSERT_EQ(PostIngest(&client, "\n\n", &response), 400);

  const IngestServer::Stats stats = server.stats();
  EXPECT_EQ(stats.acked, 1);
  // The blank-body 400 carries zero parsed records, so it adds nothing.
  EXPECT_GE(stats.rejected, 3);
  server.Stop();
}

TEST(IngestServerTest, MalformedBatchRejectsEveryRecordInIt) {
  IngestServer server(BaseOptions(ScratchDir("malformed-count")));
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Three lines with the malformed one in the middle: the 400 rejects the
  // whole batch, so all three records count as rejected — not just the
  // prefix parsed before the bad line.
  std::string response;
  ASSERT_EQ(PostIngest(&client,
                       "start_trip m 1 1 0 100\n"
                       "point m 2 not-a-number 0 0\n"
                       "point m 3 1 2 3\n",
                       &response),
            400);
  const IngestServer::Stats stats = server.stats();
  EXPECT_EQ(stats.rejected, 3);
  EXPECT_EQ(stats.acked, 0);
  server.Stop();
}

TEST(IngestServerTest, ClientIdWithANulByteSurvivesRecovery) {
  // Tokens split on spaces only, so a client_id may hold any other byte,
  // NUL included; its WAL line must keep every byte or recovery cannot
  // parse what was acked.
  const std::string dir = ScratchDir("nul-client");
  const std::string client("n\0ul", 4);
  const std::string body = "start_trip " + client + " 1 1 0 100\npoint " +
                           client + " 2 1 2 3\nfinish_trip " + client +
                           " 3\n";
  {
    IngestServer server(BaseOptions(dir));
    ASSERT_TRUE(server.Start());
    HttpClient client_conn;
    ASSERT_TRUE(client_conn.Connect(server.port()));
    ASSERT_EQ(PostIngest(&client_conn, body), 200);
    server.Stop();
  }
  IngestServer restarted(BaseOptions(dir));
  ASSERT_TRUE(restarted.Start());
  EXPECT_EQ(restarted.stats().recovered, 3);
  EXPECT_EQ(restarted.stats().trips, 1);
  // The recovered dedup state knows the client: its retry is a no-op.
  HttpClient client_conn;
  ASSERT_TRUE(client_conn.Connect(restarted.port()));
  std::string response;
  ASSERT_EQ(PostIngest(&client_conn, body, &response), 200);
  EXPECT_EQ(response, "{\"acked\":0,\"deduped\":3}\n");
  restarted.Stop();
}

TEST(IngestServerTest, NonFiniteTripTimesNeverReachTheWal) {
  const std::string dir = ScratchDir("nonfinite");
  const std::vector<std::string> bad = {
      "start_trip n 1 1 nan 100\n",
      "start_trip n 1 1 0 inf\n",
      "start_trip n 1 1 0 100 wb=1:2:nan:50:60\n",
      "start_trip n 1 1 0 100 wb=1:2:40:inf:60\n",
      "start_trip n 1 1 0 100 wb=1:2:40:50:-nan\n",
  };
  {
    IngestServer server(BaseOptions(dir));
    ASSERT_TRUE(server.Start());
    HttpClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    for (const std::string& body : bad) {
      EXPECT_EQ(PostIngest(&client, body), 400) << body;
    }
    EXPECT_EQ(server.stats().acked, 0);
    EXPECT_EQ(server.stats().rejected, static_cast<int64_t>(bad.size()));

    // GPS fixes keep accepting non-finite values: a NaN fix is the modelled
    // traj.gps.nan fault, which the noise filter drops downstream.
    ASSERT_EQ(PostIngest(&client,
                         "start_trip ok 1 1 0 100\n"
                         "point ok 2 nan nan 5\n"
                         "finish_trip ok 3\n"),
              200);
    EXPECT_EQ(server.stats().acked, 3);
    server.Stop();
  }

  // Only the three good records are in the WAL.
  IngestServer restarted(BaseOptions(dir));
  ASSERT_TRUE(restarted.Start());
  EXPECT_EQ(restarted.stats().recovered, 3);
  restarted.Stop();
}

TEST(IngestServerTest, ErrorBodiesEscapeControlCharacters) {
  IngestServer server(BaseOptions(ScratchDir("escape")));
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // The unknown verb, tab and all, is echoed into the parse error; the
  // JSON body must escape it rather than emit a raw control character.
  std::string response;
  ASSERT_EQ(PostIngest(&client, "bad\tverb c 1\n", &response), 400);
  EXPECT_NE(response.find("\\t"), std::string::npos) << response;
  EXPECT_EQ(response.find('\t'), std::string::npos) << response;
  server.Stop();
}

TEST(IngestServerTest, OversizedRecordIsATyped400NeverAcked) {
  IngestServer::Options options = BaseOptions(ScratchDir("oversized"));
  options.wal.max_record_bytes = 256;
  int64_t acked_before_restart = 0;
  {
    IngestServer server(options);
    ASSERT_TRUE(server.Start());
    HttpClient client;
    ASSERT_TRUE(client.Connect(server.port()));

    // A parseable record whose wire form exceeds the WAL record limit must
    // bounce as a 400 before the WAL append — were it acked, recovery
    // would refuse the frame and truncate away later acked records.
    const std::string long_client(400, 'c');
    std::string response;
    ASSERT_EQ(PostIngest(&client,
                         "start_trip " + long_client + " 1 1 0 100\n",
                         &response),
              400);
    EXPECT_NE(response.find("record limit"), std::string::npos) << response;

    // Normal traffic proceeds, including after the rejected batch.
    ASSERT_EQ(PostIngest(&client,
                         "start_trip ok 1 1 0 100\n"
                         "point ok 2 1 2 3\n"
                         "finish_trip ok 3\n",
                         &response),
              200);
    const IngestServer::Stats stats = server.stats();
    EXPECT_EQ(stats.acked, 3);
    EXPECT_EQ(stats.rejected, 1);
    acked_before_restart = stats.acked;
    server.Stop();
  }

  // Restart on the same WAL dir: every acked record replays, nothing lost.
  IngestServer restarted(options);
  ASSERT_TRUE(restarted.Start());
  EXPECT_EQ(restarted.stats().recovered, acked_before_restart);
  restarted.Stop();
}

TEST(IngestServerTest, WaybillAddressOutsideTheCityIsATyped400) {
  const std::string dir = ScratchDir("bad-address");
  auto wal_bytes = [&dir] {
    uintmax_t total = 0;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir)) {
      if (entry.is_regular_file()) total += entry.file_size();
    }
    return total;
  };
  const int64_t last_address =
      static_cast<int64_t>(City().addresses.size()) - 1;
  auto trip = [](const std::string& client, int64_t address) {
    return "start_trip " + client + " 1 1 0 100 wb=7:" +
           std::to_string(address) + ":40:50:60\npoint " + client +
           " 2 1 2 3\nfinish_trip " + client + " 3\n";
  };
  {
    IngestServer server(BaseOptions(dir));
    ASSERT_TRUE(server.Start());
    HttpClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    const uintmax_t wal_before = wal_bytes();

    // Acked, such a trip would abort the node at finish_trip and on every
    // replay after it; it must bounce before anything is framed.
    for (const int64_t address : {int64_t{99999}, int64_t{-5}}) {
      std::string response;
      ASSERT_EQ(PostIngest(&client, trip("bad", address), &response), 400)
          << address;
      EXPECT_NE(response.find("line 1: waybill 7 names address " +
                              std::to_string(address)),
                std::string::npos)
          << response;
    }
    EXPECT_EQ(wal_bytes(), wal_before);
    EXPECT_EQ(server.stats().acked, 0);
    EXPECT_EQ(server.stats().rejected, 6);

    int status = 0;
    std::string body;
    ASSERT_TRUE(apps::HttpGetOnce(server.port(), "/healthz", &status, &body));
    EXPECT_EQ(status, 200) << body;
    ASSERT_EQ(PostIngest(&client, trip("ok", last_address)), 200);
    EXPECT_EQ(server.stats().acked, 3);
    server.Stop();
  }

  IngestServer restarted(BaseOptions(dir));
  ASSERT_TRUE(restarted.Start());
  EXPECT_EQ(restarted.stats().recovered, 3);
  restarted.Stop();
}

// A WAL written by a binary that acked a trip naming an address outside the
// city (before that became a 400) must not abort every restart: recovery
// skips the trip, counts and reports it, and the node serves on, with the
// client's sequence where the producer left it.
TEST(IngestServerTest, RecoverySkipsATripNamingAnAddressOutsideTheCity) {
  const std::string dir = ScratchDir("poison-wal");
  const std::vector<std::string> lines = {
      "start_trip old 1 1 0 100 wb=7:99999:40:50:60", "point old 2 1 2 3",
      "finish_trip old 3"};
  {
    auto wal = stream::WalWriter::Open(BaseOptions(dir).wal);
    ASSERT_TRUE(wal.has_value());
    for (const std::string& line : lines) {
      IngestRecord record;
      std::string parse_error;
      ASSERT_TRUE(ParseIngestLine(line, &record, &parse_error)) << parse_error;
      ASSERT_TRUE(wal->Append(static_cast<uint32_t>(record.kind), line));
    }
    wal->Close();
  }
  const int64_t rejected_before = CounterValue("stream.recover.rejected");

  IngestServer server(BaseOptions(dir));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  EXPECT_EQ(server.stats().recover_rejected, 1);
  EXPECT_EQ(server.stats().recovered, 3);
  EXPECT_EQ(server.stats().trips, 0);
  EXPECT_EQ(CounterValue("stream.recover.rejected") - rejected_before, 1);

  int status = 0;
  std::string body;
  ASSERT_TRUE(apps::HttpGetOnce(server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200) << body;
  EXPECT_NE(body.find("recovery skipped 1 trip(s)"), std::string::npos)
      << body;

  // The producer's next record continues its sequence, and trips apply.
  const int64_t last_address =
      static_cast<int64_t>(City().addresses.size()) - 1;
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_EQ(PostIngest(&client, "start_trip old 4 1 0 100 wb=8:" +
                                    std::to_string(last_address) +
                                    ":40:50:60\npoint old 5 1 2 3\n"
                                    "finish_trip old 6\n"),
            200);
  EXPECT_EQ(server.stats().trips, 1);
  server.Stop();
}

TEST(IngestServerTest, ClientCapEvictsIdleThenRejectsTyped) {
  IngestServer::Options options = BaseOptions(ScratchDir("client-cap"));
  options.max_clients = 2;
  IngestServer server(options);
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Client a completes a trip (idle), b leaves one open.
  std::string response;
  ASSERT_EQ(PostIngest(&client,
                       "start_trip a 1 1 0 100\n"
                       "point a 2 1 2 3\n"
                       "finish_trip a 3\n",
                       &response),
            200);
  ASSERT_EQ(PostIngest(&client, "start_trip b 1 1 0 100\n", &response), 200);

  // A third client at cap 2: the idle client a is evicted to admit it.
  ASSERT_EQ(PostIngest(&client, "start_trip c 1 1 0 100\n", &response), 200);

  // Now every tracked client (b, c) is mid-trip: a fourth is shed typed.
  ASSERT_EQ(PostIngest(&client, "start_trip d 1 1 0 100\n", &response), 429);
  EXPECT_NE(response.find("client"), std::string::npos) << response;

  // The evicted client's continuation is a typed 409 gap (dedup state is
  // gone), never a silent double-apply.
  ASSERT_EQ(PostIngest(&client, "start_trip a 4 1 0 100\n", &response), 409);
  EXPECT_NE(response.find("expected 1"), std::string::npos) << response;

  // The surviving clients' open trips are untouched by the eviction.
  ASSERT_EQ(PostIngest(&client, "point b 2 1 2 3\nfinish_trip b 3\n",
                       &response),
            200);
  ASSERT_EQ(PostIngest(&client, "point c 2 1 2 3\nfinish_trip c 3\n",
                       &response),
            200);

  const IngestServer::Stats stats = server.stats();
  EXPECT_EQ(stats.acked, 9);
  EXPECT_EQ(stats.rejected, 2);
  EXPECT_EQ(stats.trips, 3);
  server.Stop();
}

TEST(IngestServerTest, ReorderFaultDrivesTheGapBranch) {
  IngestServer server(BaseOptions(ScratchDir("reorder")));
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  fault::ScopedFaultPlan plan(fault::FaultPlan().FailAlways("ingest.reorder"),
                              /*seed=*/3);
  std::string response;
  ASSERT_EQ(PostIngest(&client,
                       "start_trip r 1 1 0 100\npoint r 2 1 2 3\n",
                       &response),
            409);
  EXPECT_NE(response.find("sequence gap"), std::string::npos) << response;
  EXPECT_EQ(server.stats().acked, 0);
  server.Stop();
}

TEST(IngestServerTest, SlowPipelinedPostsAreAllAckedInOrder) {
  IngestServer server(BaseOptions(ScratchDir("slow")));
  ASSERT_TRUE(server.Start());

  // Every POST is handled on the loop, so a slow one holds up the ones
  // pipelined behind it (TCP backpressure) instead of shedding them.
  fault::ScopedFaultPlan plan(
      fault::FaultPlan().AddLatencyMs("ingest.slow_client", 20.0),
      /*seed=*/5);

  // POST i carries i + 1 records, so each ack names the POST it answers.
  const int kPosts = 6;
  uint64_t seq = 0;
  std::string wire;
  int64_t records = 0;
  for (int i = 0; i < kPosts; ++i) {
    std::vector<std::string> lines;
    auto next_seq = [&] { return " " + std::to_string(++seq); };
    if (i == 0) {
      lines.push_back("start_trip slow" + next_seq() + " 1 0 100");
    } else {
      const int points = i == kPosts - 1 ? i : i + 1;
      for (int k = 0; k < points; ++k) {
        lines.push_back("point slow" + next_seq() + " 1 2 3");
      }
      if (i == kPosts - 1) lines.push_back("finish_trip slow" + next_seq());
    }
    const std::string body = JoinLines(lines);
    records += static_cast<int64_t>(lines.size());
    wire += "POST /ingest HTTP/1.1\r\nHost: localhost\r\nContent-Type: "
            "application/json\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body;
  }
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.SendRaw(wire));
  for (int i = 0; i < kPosts; ++i) {
    int status = 0;
    std::string response;
    ASSERT_TRUE(client.ReadResponse(&status, &response));
    EXPECT_EQ(status, 200) << response;
    EXPECT_EQ(response, "{\"acked\":" + std::to_string(i + 1) +
                            ",\"deduped\":0}\n");
  }
  EXPECT_EQ(fault::FireCount("ingest.slow_client"), kPosts);

  const IngestServer::Stats stats = server.stats();
  EXPECT_EQ(stats.acked, records);
  EXPECT_EQ(stats.received, records);
  EXPECT_EQ(stats.trips, 1);
  int status = 0;
  std::string body;
  ASSERT_TRUE(
      apps::HttpGetOnce(server.port(), "/ingest/stats", &status, &body));
  EXPECT_NE(body.find("\"shed\":0,"), std::string::npos) << body;
  EXPECT_NE(body.find("\"queue_records\":0,"), std::string::npos) << body;
  server.Stop();
}

TEST(IngestServerTest, WalFailureReturns503AndRetrySucceeds) {
  IngestServer server(BaseOptions(ScratchDir("wal503")));
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  const std::string body = "start_trip w 1 1 0 100\npoint w 2 1 2 3\n";
  {
    fault::ScopedFaultPlan plan(
        fault::FaultPlan().FailFirst("wal.write_fail", 1), /*seed=*/11);
    std::string response;
    ASSERT_EQ(PostIngest(&client, body, &response), 503);
    EXPECT_NE(response.find("wal append failed"), std::string::npos)
        << response;
  }
  // Dedup state is untouched by the failed batch, so the retry acks fully.
  std::string response;
  ASSERT_EQ(PostIngest(&client, body, &response), 200);
  EXPECT_NE(response.find("\"acked\":2"), std::string::npos) << response;
  EXPECT_EQ(server.stats().acked, 2);
  server.Stop();
}

TEST(IngestServerTest, CrashMidIngestRecoversEveryAckedRecord) {
  const std::string dir = ScratchDir("crash");
  const auto& trips = FullWorld().trips;
  ASSERT_GE(trips.size(), 2u);

  uint64_t seq = 0;
  std::vector<std::string> all_bodies;
  for (const sim::DeliveryTrip& trip : trips) {
    all_bodies.push_back(JoinLines(TripLines("crash-client", trip, &seq)));
  }
  const size_t crash_after = all_bodies.size() / 2;

  const int64_t acked_counter_before = CounterValue("stream.ingest.acked");
  int64_t acked_before_crash = 0;
  {
    IngestServer server(BaseOptions(dir));
    ASSERT_TRUE(server.Start());
    HttpClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    for (size_t i = 0; i < crash_after; ++i) {
      ASSERT_EQ(PostIngest(&client, all_bodies[i]), 200);
    }
    acked_before_crash = server.stats().acked;
    server.CrashForTest();  // SIGKILL semantics: no fsync, no drain.
  }

  // Restart on the same WAL dir: every acked record is back.
  const int64_t recovered_before = CounterValue("stream.ingest.recovered");
  IngestServer server(BaseOptions(dir));
  ASSERT_TRUE(server.Start());
  EXPECT_EQ(server.stats().recovered, acked_before_crash);
  EXPECT_EQ(CounterValue("stream.ingest.recovered") - recovered_before,
            acked_before_crash);

  // The client never saw the crash, so it retries its last acked batch (an
  // exact no-op: every record deduplicated) and streams the remainder.
  const std::string& retried = all_bodies[crash_after - 1];
  const int64_t deduped_before = CounterValue("stream.ingest.deduped");
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_EQ(PostIngest(&client, retried), 200);
  EXPECT_EQ(CounterValue("stream.ingest.deduped") - deduped_before,
            std::count(retried.begin(), retried.end(), '\n'));
  for (size_t i = crash_after; i < all_bodies.size(); ++i) {
    ASSERT_EQ(PostIngest(&client, all_bodies[i]), 200);
  }
  server.Stop();
  EXPECT_EQ(acked_before_crash + server.stats().acked,
            static_cast<int64_t>(seq));
  EXPECT_EQ(CounterValue("stream.ingest.acked") - acked_counter_before,
            static_cast<int64_t>(seq));

  // End state must be bit-identical to a run that was never killed.
  StreamIngestor reference(City(), {});
  for (const sim::DeliveryTrip& trip : trips) reference.ReplayTrip(trip);
  ExpectBitIdentical(server.ingestor(), reference);
}

TEST(IngestServerTest, SnapshotRetentionKeepsStateAndRetiresSegments) {
  const std::string dir = ScratchDir("retention");
  IngestServer::Options options = BaseOptions(dir);
  options.wal.segment_bytes = 1024;  // Frequent rotations.
  options.snapshot_every_segments = 1;

  const auto& trips = FullWorld().trips;
  uint64_t seq = 0;
  {
    IngestServer server(options);
    ASSERT_TRUE(server.Start());
    HttpClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    for (const sim::DeliveryTrip& trip : trips) {
      ASSERT_EQ(PostIngest(&client,
                           JoinLines(TripLines("ret-client", trip, &seq))),
                200);
    }
    server.Stop();
    // Snapshots retired covered segments: fewer segment files than
    // rotations produced.
    EXPECT_TRUE(
        std::filesystem::exists(IngestServer::SnapshotPath(dir)));
    size_t segment_files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      uint64_t index;
      if (io::ParseWalSegmentFileName(entry.path().filename().string(),
                                      &index)) {
        ++segment_files;
      }
    }
    EXPECT_LE(segment_files, 2u);
  }

  // Restart: snapshot + WAL tail reconstruct the full state.
  IngestServer server(options);
  ASSERT_TRUE(server.Start());
  server.Stop();
  StreamIngestor reference(City(), {});
  for (const sim::DeliveryTrip& trip : trips) reference.ReplayTrip(trip);
  ExpectBitIdentical(server.ingestor(), reference);
}

TEST(IngestServerTest, CorruptSnapshotFailsStartWithTypedError) {
  const std::string dir = ScratchDir("badsnap");
  {
    std::ofstream out(IngestServer::SnapshotPath(dir), std::ios::binary);
    out << "this is not an artifact";
  }
  IngestServer server(BaseOptions(dir));
  std::string error;
  EXPECT_FALSE(server.Start(&error));
  EXPECT_NE(error.find("snapshot"), std::string::npos) << error;
}

TEST(IngestServerTest, SnapshotNamingAnUnknownAddressFailsStartTyped) {
  // Checksum-valid snapshots whose trips name an address that either their
  // own world or the restarting node's city lacks: Start refuses them
  // typed instead of aborting when the trips are re-applied.
  const auto write_snapshot = [](const std::string& dir,
                                 const sim::World& world) {
    io::ArtifactWriter writer(io::ArtifactKind::kIngestState);
    writer.WriteU64(0);  // Covered segment.
    io::EncodeWorldPayload(world, &writer);
    writer.WriteU64(0);  // Clients.
    ASSERT_TRUE(writer.Finish(IngestServer::SnapshotPath(dir)));
  };
  std::string error;
  {
    const std::string dir = ScratchDir("snap_dangling");
    sim::World world = FullWorld();
    world.trips.front().waybills.front().address_id = 99999;
    write_snapshot(dir, world);
    IngestServer server(BaseOptions(dir));
    EXPECT_FALSE(server.Start(&error));
    EXPECT_NE(error.find("invalid ingest snapshot world"), std::string::npos)
        << error;
    EXPECT_NE(error.find("names address 99999"), std::string::npos) << error;
  }
  {
    const std::string dir = ScratchDir("snap_other_city");
    write_snapshot(dir, FullWorld());
    IngestServer::Options options = BaseOptions(dir);
    options.city.addresses.resize(1);
    IngestServer server(options);
    EXPECT_FALSE(server.Start(&error));
    EXPECT_NE(error.find("outside the city"), std::string::npos) << error;
  }
}

TEST(IngestServerTest, StatsAndHealthEndpointsServe) {
  IngestServer server(BaseOptions(ScratchDir("statsz")));
  ASSERT_TRUE(server.Start());
  int status = 0;
  std::string body;
  ASSERT_TRUE(apps::HttpGetOnce(server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("{\"name\":\"ingest.wal\",\"ok\":true"),
            std::string::npos)
      << body;
  ASSERT_TRUE(
      apps::HttpGetOnce(server.port(), "/ingest/stats", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"acked\""), std::string::npos) << body;
  server.Stop();
}

TEST(IngestServerTest, WalFailureFlipsHealthzUntilNextAppend) {
  IngestServer server(BaseOptions(ScratchDir("walhealth")));
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  int status = 0;
  std::string body;

  // A full disk: the POST is refused and health reads 503 with the WAL
  // error as the check's detail, for as long as appends keep failing.
  const std::string batch = "start_trip d 1 1 0 100\npoint d 2 1 2 3\n";
  {
    fault::ScopedFaultPlan plan(
        fault::FaultPlan().FailAlways("wal.disk_full"), /*seed=*/13);
    ASSERT_EQ(PostIngest(&client, batch), 503);
    ASSERT_TRUE(apps::HttpGetOnce(server.port(), "/healthz", &status, &body));
    EXPECT_EQ(status, 503);
    EXPECT_NE(body.find("\"status\":\"degraded\""), std::string::npos)
        << body;
    EXPECT_NE(body.find("\"ok\":false"), std::string::npos) << body;
    EXPECT_NE(body.find("disk-full"), std::string::npos) << body;
  }

  // The disk has room again: the retried POST acks and health recovers.
  ASSERT_EQ(PostIngest(&client, batch), 200);
  ASSERT_TRUE(apps::HttpGetOnce(server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos) << body;
  server.Stop();
}

}  // namespace
}  // namespace dlinf
