#include "geo/grid_index.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace dlinf {

GridIndex::GridIndex(double cell_size) : cell_size_(cell_size) {
  CHECK_GT(cell_size, 0.0);
}

int64_t GridIndex::CellKey(double x, double y) const {
  const int64_t cx = static_cast<int64_t>(std::floor(x / cell_size_));
  const int64_t cy = static_cast<int64_t>(std::floor(y / cell_size_));
  // Interleave-free packing: 32 bits per axis is ample for station extents.
  return (cx << 32) ^ (cy & 0xffffffffll);
}

void GridIndex::Insert(int64_t id, const Point& p) {
  cells_[CellKey(p.x, p.y)].push_back(Entry{id, p});
  ++size_;
}

bool GridIndex::Remove(int64_t id, const Point& p) {
  auto it = cells_.find(CellKey(p.x, p.y));
  if (it == cells_.end()) return false;
  std::vector<Entry>& entries = it->second;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].id == id && entries[i].p == p) {
      entries[i] = entries.back();
      entries.pop_back();
      --size_;
      if (entries.empty()) cells_.erase(it);
      return true;
    }
  }
  return false;
}

std::vector<int64_t> GridIndex::RadiusQuery(const Point& center,
                                            double radius) const {
  std::vector<int64_t> result;
  RadiusQuery(center, radius, &result);
  return result;
}

void GridIndex::RadiusQuery(const Point& center, double radius,
                            std::vector<int64_t>* out) const {
  CHECK_GE(radius, 0.0);
  out->clear();
  const double r2 = radius * radius;
  const int64_t cx_lo =
      static_cast<int64_t>(std::floor((center.x - radius) / cell_size_));
  const int64_t cx_hi =
      static_cast<int64_t>(std::floor((center.x + radius) / cell_size_));
  const int64_t cy_lo =
      static_cast<int64_t>(std::floor((center.y - radius) / cell_size_));
  const int64_t cy_hi =
      static_cast<int64_t>(std::floor((center.y + radius) / cell_size_));
  for (int64_t cx = cx_lo; cx <= cx_hi; ++cx) {
    for (int64_t cy = cy_lo; cy <= cy_hi; ++cy) {
      const int64_t key = (cx << 32) ^ (cy & 0xffffffffll);
      auto it = cells_.find(key);
      if (it == cells_.end()) continue;
      for (const Entry& e : it->second) {
        if (SquaredDistance(e.p, center) <= r2) out->push_back(e.id);
      }
    }
  }
}

int64_t GridIndex::Nearest(const Point& center, double max_radius,
                           double* out_distance) const {
  CHECK_GE(max_radius, 0.0);
  int64_t best_id = -1;
  double best_d2 = std::numeric_limits<double>::infinity();
  // Expand ring by ring so that typical queries touch few cells.
  const int64_t ccx = static_cast<int64_t>(std::floor(center.x / cell_size_));
  const int64_t ccy = static_cast<int64_t>(std::floor(center.y / cell_size_));
  const int64_t max_ring =
      static_cast<int64_t>(std::ceil(max_radius / cell_size_)) + 1;
  for (int64_t ring = 0; ring <= max_ring; ++ring) {
    // Once a hit exists and the next ring cannot beat it, stop.
    if (best_id >= 0) {
      const double ring_min_dist =
          (static_cast<double>(ring) - 1.0) * cell_size_;
      if (ring_min_dist > 0 && ring_min_dist * ring_min_dist > best_d2) break;
    }
    for (int64_t cx = ccx - ring; cx <= ccx + ring; ++cx) {
      for (int64_t cy = ccy - ring; cy <= ccy + ring; ++cy) {
        // Visit only the ring boundary (interior was covered earlier).
        if (ring > 0 && cx != ccx - ring && cx != ccx + ring &&
            cy != ccy - ring && cy != ccy + ring) {
          continue;
        }
        const int64_t key = (cx << 32) ^ (cy & 0xffffffffll);
        auto it = cells_.find(key);
        if (it == cells_.end()) continue;
        for (const Entry& e : it->second) {
          const double d2 = SquaredDistance(e.p, center);
          if (d2 < best_d2) {
            best_d2 = d2;
            best_id = e.id;
          }
        }
      }
    }
  }
  if (best_id >= 0 && best_d2 <= max_radius * max_radius) {
    if (out_distance != nullptr) *out_distance = std::sqrt(best_d2);
    return best_id;
  }
  return -1;
}

}  // namespace dlinf
