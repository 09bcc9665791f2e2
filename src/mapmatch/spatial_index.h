// Uniform-grid spatial index over road segments, used to find candidate
// edges near a GPS fix in O(1) expected time. Queries are exact (identical
// candidate sets to a brute-force scan over all edges) and deterministic:
// results are ordered by (distance, edge id), a total order, so neither the
// cell iteration order nor sort stability can leak into downstream
// tie-breaking — the map matcher's Viterbi tie-breaks are pinned to this
// ordering (see docs/ARCHITECTURE.md, "Map matching").
#pragma once

#include <cstdint>
#include <vector>

#include "roadnet/geometry.h"
#include "roadnet/road_network.h"

namespace rl4oasd::mapmatch {

/// A candidate edge near a query point.
struct EdgeCandidate {
  roadnet::EdgeId edge = roadnet::kInvalidEdge;
  double distance_m = 0.0;  // point-to-segment distance
};

/// Buckets edges by the grid cells their bounding boxes overlap. The cells
/// form one dense CSR grid over the rectangle of occupied cells; each entry
/// carries its edge's bounding box, so a query screens a cell list in one
/// sequential read.
class SpatialIndex {
 public:
  /// Reusable per-thread query buffers. QueryInto with a caller-owned
  /// scratch allocates nothing in steady state; the index itself stays
  /// immutable, so any number of threads can query one index as long as
  /// each brings its own scratch.
  class QueryScratch {
   public:
    QueryScratch() = default;

   private:
    friend class SpatialIndex;
    std::vector<roadnet::EdgeId> ids_;
  };

  /// Builds the index with the given cell size (meters). A network spread
  /// so wide that its cell rectangle would dwarf its edge count gets
  /// coarser cells; query results do not depend on the cell size.
  explicit SpatialIndex(const roadnet::RoadNetwork* net,
                        double cell_size_m = 250.0);

  /// Returns up to `max_candidates` edges within `radius_m` of `p`, ordered
  /// by (distance, edge id). Convenience wrapper over QueryInto. A point
  /// with a non-finite coordinate, or a NaN or negative radius, has no
  /// candidates.
  std::vector<EdgeCandidate> Query(const roadnet::LatLon& p, double radius_m,
                                   size_t max_candidates = 8) const;

  /// Allocation-free query into `out` (cleared first), using the caller's
  /// scratch buffers. Same results as Query.
  void QueryInto(const roadnet::LatLon& p, double radius_m,
                 size_t max_candidates, QueryScratch* scratch,
                 std::vector<EdgeCandidate>* out) const;

  /// The cell size in degrees; cell borders are its integer multiples.
  double cell_deg_lat() const { return cell_deg_lat_; }
  double cell_deg_lon() const { return cell_deg_lon_; }

 private:
  struct EdgeBox {
    double min_lat, max_lat, min_lon, max_lon;
  };
  /// One edge in one cell's list, with the edge's bounding box for the
  /// query's prescreen.
  struct CellEntry {
    EdgeBox box;
    roadnet::EdgeId edge;
  };

  /// Absolute cell range [x_lo, x_hi] x [y_lo, y_hi] covered by `box` at
  /// the current cell size; false when it is not finite (an edge with a
  /// non-finite coordinate is at NaN distance from every point, so it is
  /// never a candidate and is not indexed).
  bool CellRange(const EdgeBox& box, double* x_lo, double* x_hi, double* y_lo,
                 double* y_hi) const;

  /// Fixes the cell size and sizes the grid to the occupied cell rectangle
  /// of the edges' bounding boxes.
  void SizeGrid(double cell_size_m, const std::vector<EdgeBox>& boxes);

  /// The entries of cells [col_lo, col_hi] (absolute cell coordinates,
  /// integral doubles) in cell row `row` (inside the grid), clipped to the
  /// grid: one contiguous span of the CSR array, empty when the column range
  /// misses the grid.
  void RowSpan(int row, double col_lo, double col_hi, const CellEntry** begin,
               const CellEntry** end) const;

  double cell_deg_lat_ = 0.0;
  double cell_deg_lon_ = 0.0;
  double meters_per_deg_lon_ = 0.0;
  // The grid rectangle, in absolute cell coordinates (floor(lon /
  // cell_deg_lon_), floor(lat / cell_deg_lat_)); cells outside it are empty.
  int x0_ = 0;
  int y0_ = 0;
  int nx_ = 0;
  int ny_ = 0;
  // CSR over the nx_ * ny_ cells, row-major (cell (x, y) is slot
  // (y - y0_) * nx_ + (x - x0_)); each cell's entries are in ascending edge
  // id (edges are inserted in id order), and a row's cells are adjacent.
  std::vector<uint32_t> cell_start_;
  std::vector<CellEntry> entries_;
  // Per-edge projection frames for the exact distance of screened edges.
  std::vector<roadnet::SegmentFrame> frames_;
};

}  // namespace rl4oasd::mapmatch
