#ifndef DLINF_APPS_SHARD_ROUTER_H_
#define DLINF_APPS_SHARD_ROUTER_H_

#include <cstdint>
#include <vector>

/// \file
/// Consistent-hash sharding of the address keyspace (DESIGN.md §11).
///
/// The query engine partitions addresses across N shards. The map
/// must be (a) a pure function of (key, num_shards) — the same address hits
/// the same shard across process restarts, so per-shard caches and reload
/// generations stay meaningful — and (b) stable under resharding: growing
/// from N to N+1 shards moves only ~1/(N+1) of the keyspace, not all of it.
/// A hash ring with virtual nodes gives both; plain `hash % N` gives
/// neither (b) nor balanced load under adversarial key sets.

namespace dlinf {
namespace apps {

/// Immutable consistent-hash ring. Cheap to build (num_shards × vnodes
/// points, sorted once), O(log points) per lookup, no allocation on the
/// query path.
class ShardRouter {
 public:
  /// `vnodes_per_shard` smooths the ring: with 64 virtual nodes per shard
  /// the max/min shard-load ratio on a uniform keyspace stays within a few
  /// percent.
  explicit ShardRouter(int num_shards, int vnodes_per_shard = 64);

  /// Shard index in [0, num_shards) owning `key`. Deterministic: depends
  /// only on (key, num_shards, vnodes_per_shard).
  int ShardOf(int64_t key) const;

  int num_shards() const { return num_shards_; }

  /// The stateless 64-bit mixer the ring and key placement share
  /// (splitmix64). Exposed so tests can recompute placements independently.
  static uint64_t Mix(uint64_t x);

 private:
  struct Point {
    uint64_t position;
    int shard;
    bool operator<(const Point& other) const {
      return position < other.position ||
             (position == other.position && shard < other.shard);
    }
  };

  int num_shards_;
  std::vector<Point> ring_;  ///< Sorted by position.
};

}  // namespace apps
}  // namespace dlinf

#endif  // DLINF_APPS_SHARD_ROUTER_H_
