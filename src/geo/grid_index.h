#ifndef DLINF_GEO_GRID_INDEX_H_
#define DLINF_GEO_GRID_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geo/point.h"

namespace dlinf {

/// Uniform hash-grid spatial index over 2-D points.
///
/// Backs the neighbour queries in DBSCAN, hierarchical clustering's
/// closest-pair search, and candidate retrieval. Points are identified by the
/// integer id supplied at insertion; the index never owns payloads.
class GridIndex {
 public:
  /// `cell_size` should be on the order of the query radii used later
  /// (queries of radius r visit ceil(r / cell_size)^2 cells around the probe).
  explicit GridIndex(double cell_size);

  /// Inserts a point with caller-chosen id. Ids need not be dense or unique,
  /// but Remove() removes all entries with a matching id in the cell of `p`.
  void Insert(int64_t id, const Point& p);

  /// Removes an entry previously inserted with exactly this id and point.
  /// Returns false if no such entry exists.
  bool Remove(int64_t id, const Point& p);

  /// Ids of all points within `radius` of `center` (inclusive).
  std::vector<int64_t> RadiusQuery(const Point& center, double radius) const;

  /// Same, into `*out` (cleared first), so a caller issuing many queries
  /// reuses one buffer.
  void RadiusQuery(const Point& center, double radius,
                   std::vector<int64_t>* out) const;

  /// Id of the nearest point within `max_radius`, or -1 when none exists.
  /// On success `*out_distance` (if non-null) receives the distance.
  int64_t Nearest(const Point& center, double max_radius,
                  double* out_distance = nullptr) const;

  int64_t size() const { return size_; }

 private:
  struct Entry {
    int64_t id;
    Point p;
  };

  int64_t CellKey(double x, double y) const;

  double cell_size_;
  std::unordered_map<int64_t, std::vector<Entry>> cells_;
  int64_t size_ = 0;
};

}  // namespace dlinf

#endif  // DLINF_GEO_GRID_INDEX_H_
