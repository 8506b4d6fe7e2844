#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <queue>
#include <set>

#include "cluster/dbscan.h"
#include "cluster/grid_merge.h"
#include "cluster/hierarchical.h"
#include "cluster/kmeans.h"
#include "common/random.h"
#include "geo/grid_index.h"
#include "gtest/gtest.h"

namespace dlinf {
namespace {

TEST(HierarchicalTest, MergesPointsWithinThreshold) {
  const std::vector<Point> points = {{0, 0}, {10, 0}, {200, 0}, {205, 0}};
  const std::vector<PointCluster> clusters = AgglomerateByDistance(points, 40);
  ASSERT_EQ(clusters.size(), 2u);
  // Every final centroid pair is farther apart than the threshold.
  for (size_t i = 0; i < clusters.size(); ++i) {
    for (size_t j = i + 1; j < clusters.size(); ++j) {
      EXPECT_GT(Distance(clusters[i].centroid, clusters[j].centroid), 40.0);
    }
  }
}

TEST(HierarchicalTest, CentroidIsExactMeanOfMembers) {
  const std::vector<Point> points = {{0, 0}, {10, 0}, {20, 0}};
  const std::vector<PointCluster> clusters = AgglomerateByDistance(points, 15);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_NEAR(clusters[0].centroid.x, 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(clusters[0].weight, 3.0);
  std::vector<int64_t> members = clusters[0].members;
  std::sort(members.begin(), members.end());
  EXPECT_EQ(members, (std::vector<int64_t>{0, 1, 2}));
}

TEST(HierarchicalTest, SingletonWhenAllFar) {
  const std::vector<Point> points = {{0, 0}, {100, 0}, {0, 100}};
  EXPECT_EQ(AgglomerateByDistance(points, 40).size(), 3u);
}

TEST(HierarchicalTest, EmptyInput) {
  EXPECT_TRUE(AgglomerateByDistance(std::vector<Point>{}, 40).empty());
}

TEST(HierarchicalTest, MergesClosestPairFirst) {
  // Chain: 0 -- 30 -- 60. With D=35, merging (0,30) first gives centroid 15,
  // which is still within 35 of... 60-15=45 > 35, so two clusters remain.
  const std::vector<Point> points = {{0, 0}, {30, 0}, {60, 0}};
  const std::vector<PointCluster> clusters =
      AgglomerateByDistance(points, 35);
  ASSERT_EQ(clusters.size(), 2u);
}

TEST(HierarchicalTest, IncrementalMergeMatchesDirectOnSeparatedData) {
  // Well-separated blobs: bi-weekly style incremental clustering must give
  // the same final clusters as one-shot clustering.
  Rng rng(3);
  std::vector<Point> batch1, batch2;
  const std::vector<Point> centers = {{0, 0}, {500, 0}, {0, 500}, {500, 500}};
  for (const Point& c : centers) {
    for (int i = 0; i < 10; ++i) {
      batch1.push_back({c.x + rng.Uniform(-5, 5), c.y + rng.Uniform(-5, 5)});
      batch2.push_back({c.x + rng.Uniform(-5, 5), c.y + rng.Uniform(-5, 5)});
    }
  }
  // Direct: all points at once.
  std::vector<Point> all = batch1;
  all.insert(all.end(), batch2.begin(), batch2.end());
  const auto direct = AgglomerateByDistance(all, 40);

  // Incremental: cluster each batch, then merge cluster sets.
  auto c1 = AgglomerateByDistance(MakeSingletonClusters(batch1, 0), 40);
  auto c2 = AgglomerateByDistance(
      MakeSingletonClusters(batch2, static_cast<int64_t>(batch1.size())), 40);
  std::vector<PointCluster> combined = c1;
  combined.insert(combined.end(), c2.begin(), c2.end());
  const auto incremental = AgglomerateByDistance(std::move(combined), 40);

  ASSERT_EQ(direct.size(), 4u);
  ASSERT_EQ(incremental.size(), 4u);
  // Same centroids up to ordering.
  for (const PointCluster& d : direct) {
    double best = 1e18;
    for (const PointCluster& i : incremental) {
      best = std::min(best, Distance(d.centroid, i.centroid));
    }
    EXPECT_LT(best, 1e-6);
  }
}

TEST(HierarchicalTest, MemberIdsArePreservedThroughMerges) {
  std::vector<PointCluster> input;
  PointCluster a;
  a.centroid = {0, 0};
  a.weight = 2.0;
  a.members = {100, 101};
  PointCluster b;
  b.centroid = {10, 0};
  b.weight = 1.0;
  b.members = {200};
  input.push_back(a);
  input.push_back(b);
  const auto merged = AgglomerateByDistance(std::move(input), 20);
  ASSERT_EQ(merged.size(), 1u);
  // Weighted centroid: (0*2 + 10*1) / 3.
  EXPECT_NEAR(merged[0].centroid.x, 10.0 / 3.0, 1e-9);
  std::vector<int64_t> members = merged[0].members;
  std::sort(members.begin(), members.end());
  EXPECT_EQ(members, (std::vector<int64_t>{100, 101, 200}));
}

TEST(HierarchicalTest, EqualDistancesMergeLowestIdsFirst) {
  // An equal-gap chain: every neighbouring pair is exactly 10 apart, so
  // only the (distance, lower id, higher id) order decides. (0,1) merges
  // first into 6 at x=5, which is 20 from 3 and so stays apart from the
  // 15-away (2,3) merge; likewise (4,5). Popping (1,2) first would instead
  // give {1,2,0} and leave 3 out.
  const std::vector<Point> points = {{0, 0},  {10, 0}, {20, 0},
                                     {30, 0}, {40, 0}, {50, 0}};
  const std::vector<PointCluster> clusters = AgglomerateByDistance(points, 15);
  ASSERT_EQ(clusters.size(), 3u);
  EXPECT_EQ(clusters[0].members, (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(clusters[1].members, (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(clusters[2].members, (std::vector<int64_t>{4, 5}));
  EXPECT_EQ(clusters[0].centroid.x, 5.0);
  EXPECT_EQ(clusters[1].centroid.x, 25.0);
  EXPECT_EQ(clusters[2].centroid.x, 45.0);
}

/// The previous clusterer, kept verbatim as the oracle: a binary-heap
/// priority queue fed every within-threshold pair from both ends, ordered by
/// distance alone. Without exact distance ties its merge sequence is unique,
/// so the closest-pair heap must reproduce it bit for bit.
std::vector<PointCluster> PriorityQueueAgglomerate(
    std::vector<PointCluster> clusters, double distance_threshold) {
  struct MergePair {
    double distance;
    int64_t a;
    int64_t b;
    bool operator>(const MergePair& other) const {
      return distance > other.distance;
    }
  };
  const double d2_threshold = distance_threshold * distance_threshold;
  std::vector<PointCluster> pool = std::move(clusters);
  std::vector<bool> alive(pool.size(), true);
  GridIndex index(distance_threshold);
  for (size_t i = 0; i < pool.size(); ++i) {
    index.Insert(static_cast<int64_t>(i), pool[i].centroid);
  }
  std::priority_queue<MergePair, std::vector<MergePair>, std::greater<>> heap;
  auto push_neighbors = [&](int64_t id) {
    const std::vector<int64_t> neighbors =
        index.RadiusQuery(pool[id].centroid, distance_threshold);
    for (int64_t other : neighbors) {
      if (other == id) continue;
      const double d2 =
          SquaredDistance(pool[id].centroid, pool[other].centroid);
      if (d2 <= d2_threshold) {
        heap.push(MergePair{std::sqrt(d2), std::min(id, other),
                            std::max(id, other)});
      }
    }
  };
  for (size_t i = 0; i < pool.size(); ++i) {
    push_neighbors(static_cast<int64_t>(i));
  }
  while (!heap.empty()) {
    const MergePair top = heap.top();
    heap.pop();
    if (!alive[top.a] || !alive[top.b]) continue;
    PointCluster merged;
    const PointCluster& ca = pool[top.a];
    const PointCluster& cb = pool[top.b];
    const double w = ca.weight + cb.weight;
    merged.centroid =
        Point{(ca.centroid.x * ca.weight + cb.centroid.x * cb.weight) / w,
              (ca.centroid.y * ca.weight + cb.centroid.y * cb.weight) / w};
    merged.weight = w;
    merged.members.insert(merged.members.end(), ca.members.begin(),
                          ca.members.end());
    merged.members.insert(merged.members.end(), cb.members.begin(),
                          cb.members.end());
    alive[top.a] = false;
    alive[top.b] = false;
    index.Remove(top.a, ca.centroid);
    index.Remove(top.b, cb.centroid);
    const int64_t new_id = static_cast<int64_t>(pool.size());
    pool.push_back(std::move(merged));
    alive.push_back(true);
    index.Insert(new_id, pool[new_id].centroid);
    push_neighbors(new_id);
  }
  std::vector<PointCluster> result;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (alive[i]) result.push_back(std::move(pool[i]));
  }
  return result;
}

void ExpectClustersBitEqual(const std::vector<PointCluster>& got,
                            const std::vector<PointCluster>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got[i].centroid, &want[i].centroid, sizeof(Point)),
              0)
        << "cluster " << i;
    EXPECT_EQ(got[i].weight, want[i].weight) << "cluster " << i;
    EXPECT_EQ(got[i].members, want[i].members) << "cluster " << i;
  }
}

TEST(HierarchicalTest, ClosestPairHeapMatchesPriorityQueueOracle) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    // Jittered blobs (continuous coordinates: no exact distance ties) at
    // spacings around D, so blobs both merge and stay apart.
    Rng rng(seed);
    std::vector<Point> points;
    const int num_blobs = 25;
    for (int b = 0; b < num_blobs; ++b) {
      const Point center{rng.Uniform(0, 600), rng.Uniform(0, 600)};
      const int size = static_cast<int>(rng.UniformInt(1, 40));
      for (int i = 0; i < size; ++i) {
        points.push_back(
            {center.x + rng.Normal(0, 12), center.y + rng.Normal(0, 12)});
      }
    }
    SCOPED_TRACE(testing::Message() << "seed " << seed << ", "
                                    << points.size() << " points");
    const double d = 40.0;
    ExpectClustersBitEqual(AgglomerateByDistance(points, d),
                           PriorityQueueAgglomerate(
                               MakeSingletonClusters(points), d));

    // Weighted inputs: the bi-weekly merge of two batches' clusters.
    const size_t half = points.size() / 2;
    const std::vector<Point> first(points.begin(), points.begin() + half);
    const std::vector<Point> second(points.begin() + half, points.end());
    std::vector<PointCluster> combined =
        AgglomerateByDistance(MakeSingletonClusters(first, 0), d);
    const std::vector<PointCluster> c2 = AgglomerateByDistance(
        MakeSingletonClusters(second, static_cast<int64_t>(half)), d);
    combined.insert(combined.end(), c2.begin(), c2.end());
    ExpectClustersBitEqual(AgglomerateByDistance(combined, d),
                           PriorityQueueAgglomerate(combined, d));
  }
}

TEST(DbscanTest, FindsTwoBlobsAndNoise) {
  Rng rng(4);
  std::vector<Point> points;
  for (int i = 0; i < 20; ++i) {
    points.push_back({rng.Uniform(-5, 5), rng.Uniform(-5, 5)});
  }
  for (int i = 0; i < 20; ++i) {
    points.push_back({200 + rng.Uniform(-5, 5), rng.Uniform(-5, 5)});
  }
  points.push_back({1000, 1000});  // Isolated noise.
  DbscanOptions options;
  options.eps = 15.0;
  options.min_points = 3;
  const DbscanResult result = Dbscan(points, options);
  EXPECT_EQ(result.num_clusters, 2);
  EXPECT_EQ(result.labels.back(), -1);
  // All blob-1 points share a label distinct from blob-2 points.
  for (int i = 1; i < 20; ++i) EXPECT_EQ(result.labels[i], result.labels[0]);
  for (int i = 21; i < 40; ++i) {
    EXPECT_EQ(result.labels[i], result.labels[20]);
  }
  EXPECT_NE(result.labels[0], result.labels[20]);
}

TEST(DbscanTest, MinPointsOneMakesEverythingACluster) {
  // GeoCloud's configuration: even singletons cluster.
  const std::vector<Point> points = {{0, 0}, {1000, 1000}};
  const DbscanResult result = Dbscan(points, {30.0, 1});
  EXPECT_EQ(result.num_clusters, 2);
  EXPECT_EQ(result.labels[0], 0);
  EXPECT_EQ(result.labels[1], 1);
}

TEST(DbscanTest, LargestClusterSelection) {
  std::vector<Point> points;
  for (int i = 0; i < 5; ++i) points.push_back({static_cast<double>(i), 0});
  for (int i = 0; i < 3; ++i) {
    points.push_back({500 + static_cast<double>(i), 0});
  }
  const DbscanResult result = Dbscan(points, {10.0, 2});
  const std::vector<int> biggest = result.LargestCluster();
  EXPECT_EQ(biggest.size(), 5u);
  for (int index : biggest) EXPECT_LT(index, 5);
}

TEST(KMeansTest, RecoversWellSeparatedCenters) {
  Rng rng(6);
  std::vector<Point> points;
  const std::vector<Point> centers = {{0, 0}, {100, 0}, {0, 100}};
  for (const Point& c : centers) {
    for (int i = 0; i < 30; ++i) {
      points.push_back({c.x + rng.Normal(0, 2), c.y + rng.Normal(0, 2)});
    }
  }
  const KMeansResult result = KMeans(points, 3, &rng);
  ASSERT_EQ(result.centroids.size(), 3u);
  for (const Point& c : centers) {
    double best = 1e18;
    for (const Point& got : result.centroids) {
      best = std::min(best, Distance(c, got));
    }
    EXPECT_LT(best, 5.0);
  }
  EXPECT_GT(result.inertia, 0.0);
}

TEST(KMeansTest, CapsKAtPointCount) {
  Rng rng(7);
  const KMeansResult result = KMeans({{0, 0}, {1, 1}}, 10, &rng);
  EXPECT_EQ(result.centroids.size(), 2u);
}

TEST(GridMergeTest, OneClusterPerOccupiedCell) {
  const std::vector<Point> points = {{5, 5}, {6, 6}, {45, 5}, {5, 45}};
  const std::vector<PointCluster> clusters = GridMergeCluster(points, 40.0);
  EXPECT_EQ(clusters.size(), 3u);
  // The co-located pair's cluster has weight 2 and the right centroid.
  bool found_pair = false;
  for (const PointCluster& c : clusters) {
    if (c.members.size() == 2) {
      found_pair = true;
      EXPECT_NEAR(c.centroid.x, 5.5, 1e-9);
      EXPECT_NEAR(c.centroid.y, 5.5, 1e-9);
    }
  }
  EXPECT_TRUE(found_pair);
}

TEST(GridMergeTest, BoundarySplitsNearbyPoints) {
  // The weakness the paper notes for DLInfMA-Grid: two points 2 m apart on
  // opposite sides of a cell boundary do not merge.
  const std::vector<Point> points = {{39, 0}, {41, 0}};
  EXPECT_EQ(GridMergeCluster(points, 40.0).size(), 2u);
  // Hierarchical clustering merges them.
  EXPECT_EQ(AgglomerateByDistance(points, 40.0).size(), 1u);
}

}  // namespace
}  // namespace dlinf
