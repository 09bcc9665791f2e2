#include "mapmatch/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "common/logging.h"

namespace rl4oasd::mapmatch {

namespace {

constexpr double kMetersPerDegLat = 111320.0;

// The longitude scale's latitude stays below this, so the scale stays
// positive.
constexpr double kMaxScaleLatDeg = 89.9;

// Grid bounds: the occupied cell rectangle may hold at most this many cells
// per edge (plus a constant), and absolute cell coordinates stay below
// kMaxCellCoord, so every int computed from them is far from overflow.
constexpr double kMaxCellsPerEdge = 16.0;
constexpr double kMaxCellCoord = 1 << 30;

// A closure (not a function pointer), so std::sort inlines the comparison.
constexpr auto kByDistanceThenEdge = [](const EdgeCandidate& a,
                                        const EdgeCandidate& b) {
  return a.distance_m != b.distance_m ? a.distance_m < b.distance_m
                                      : a.edge < b.edge;
};

}  // namespace

SpatialIndex::SpatialIndex(const roadnet::RoadNetwork* net,
                           double cell_size_m) {
  RL4_CHECK_GT(cell_size_m, 0.0);
  // One longitude scale serves the whole grid. Taken at the finite vertex
  // latitude farthest from the equator (clamped short of the poles), it is
  // no larger than the scale of any edge's own latitudes, so the index's
  // cell and box distances lower-bound the exact ones on every edge, however
  // many degrees of latitude the network spans.
  double ref_lat = 0.0;
  for (roadnet::VertexId v = 0;
       v < static_cast<roadnet::VertexId>(net->NumVertices()); ++v) {
    const double lat = std::abs(net->vertex(v).pos.lat);
    if (std::isfinite(lat)) ref_lat = std::max(ref_lat, lat);
  }
  ref_lat = std::min(ref_lat, kMaxScaleLatDeg);
  meters_per_deg_lon_ =
      kMetersPerDegLat * std::cos(ref_lat * 3.14159265358979 / 180.0);

  const size_t num_edges = net->NumEdges();
  frames_.reserve(num_edges);
  std::vector<EdgeBox> boxes;
  boxes.reserve(num_edges);
  for (roadnet::EdgeId e = 0; e < static_cast<roadnet::EdgeId>(num_edges);
       ++e) {
    const auto& edge = net->edge(e);
    const auto& a = net->vertex(edge.from).pos;
    const auto& b = net->vertex(edge.to).pos;
    frames_.push_back(roadnet::MakeSegmentFrame(a, b));
    boxes.push_back({std::min(a.lat, b.lat), std::max(a.lat, b.lat),
                     std::min(a.lon, b.lon), std::max(a.lon, b.lon)});
  }
  SizeGrid(cell_size_m, boxes);

  // Two CSR passes over the same cell ranges: count, then fill.
  const size_t num_cells = static_cast<size_t>(nx_) * static_cast<size_t>(ny_);
  cell_start_.assign(num_cells + 1, 0);
  auto for_each_cell = [&](size_t e, auto&& visit) {
    double x_lo, x_hi, y_lo, y_hi;
    if (!CellRange(boxes[e], &x_lo, &x_hi, &y_lo, &y_hi)) return;
    for (int y = static_cast<int>(y_lo); y <= static_cast<int>(y_hi); ++y) {
      for (int x = static_cast<int>(x_lo); x <= static_cast<int>(x_hi); ++x) {
        visit(static_cast<size_t>(y - y0_) * static_cast<size_t>(nx_) +
              static_cast<size_t>(x - x0_));
      }
    }
  };
  for (size_t e = 0; e < num_edges; ++e) {
    for_each_cell(e, [&](size_t slot) { ++cell_start_[slot + 1]; });
  }
  for (size_t c = 0; c < num_cells; ++c) cell_start_[c + 1] += cell_start_[c];
  entries_.resize(cell_start_[num_cells]);
  std::vector<uint32_t> next(cell_start_.begin(), cell_start_.end() - 1);
  for (size_t e = 0; e < num_edges; ++e) {
    for_each_cell(e, [&](size_t slot) {
      entries_[next[slot]++] = {boxes[e], static_cast<roadnet::EdgeId>(e)};
    });
  }
}

bool SpatialIndex::CellRange(const EdgeBox& box, double* x_lo, double* x_hi,
                             double* y_lo, double* y_hi) const {
  const double xa = std::floor(box.min_lon / cell_deg_lon_);
  const double xb = std::floor(box.max_lon / cell_deg_lon_);
  *x_lo = std::min(xa, xb);
  *x_hi = std::max(xa, xb);
  *y_lo = std::floor(box.min_lat / cell_deg_lat_);
  *y_hi = std::floor(box.max_lat / cell_deg_lat_);
  return std::isfinite(*x_lo) && std::isfinite(*x_hi) &&
         std::isfinite(*y_lo) && std::isfinite(*y_hi);
}

void SpatialIndex::SizeGrid(double cell_size_m,
                            const std::vector<EdgeBox>& boxes) {
  // Doubling the cell size until the rectangle fits terminates: the finite
  // cell coordinates halve with every step.
  for (;; cell_size_m *= 2.0) {
    cell_deg_lat_ = cell_size_m / kMetersPerDegLat;
    cell_deg_lon_ = cell_size_m / meters_per_deg_lon_;
    double lx = std::numeric_limits<double>::infinity();
    double ly = lx;
    double hx = -lx;
    double hy = -lx;
    for (const EdgeBox& box : boxes) {
      double x_lo, x_hi, y_lo, y_hi;
      if (!CellRange(box, &x_lo, &x_hi, &y_lo, &y_hi)) continue;
      lx = std::min(lx, x_lo);
      hx = std::max(hx, x_hi);
      ly = std::min(ly, y_lo);
      hy = std::max(hy, y_hi);
    }
    if (lx > hx) {  // nothing to index
      x0_ = y0_ = nx_ = ny_ = 0;
      return;
    }
    const double cells = (hx - lx + 1.0) * (hy - ly + 1.0);
    const double max_cells =
        kMaxCellsPerEdge * static_cast<double>(boxes.size()) + 1024.0;
    if (cells <= max_cells && std::max({-lx, hx, -ly, hy}) < kMaxCellCoord) {
      x0_ = static_cast<int>(lx);
      y0_ = static_cast<int>(ly);
      nx_ = static_cast<int>(hx - lx) + 1;
      ny_ = static_cast<int>(hy - ly) + 1;
      return;
    }
  }
}

void SpatialIndex::RowSpan(int row, double col_lo, double col_hi,
                           const CellEntry** begin,
                           const CellEntry** end) const {
  *begin = *end = nullptr;
  col_lo = std::max(col_lo, static_cast<double>(x0_));
  col_hi = std::min(col_hi, static_cast<double>(x0_ + nx_ - 1));
  if (!(col_lo <= col_hi)) return;
  // Slot of cell (x, row) is row_slot + x.
  const std::ptrdiff_t row_slot =
      static_cast<std::ptrdiff_t>(row - y0_) * nx_ - x0_;
  *begin = entries_.data() + cell_start_[row_slot + static_cast<int>(col_lo)];
  *end = entries_.data() + cell_start_[row_slot + static_cast<int>(col_hi) + 1];
}

std::vector<EdgeCandidate> SpatialIndex::Query(const roadnet::LatLon& p,
                                               double radius_m,
                                               size_t max_candidates) const {
  QueryScratch scratch;
  std::vector<EdgeCandidate> out;
  QueryInto(p, radius_m, max_candidates, &scratch, &out);
  return out;
}

void SpatialIndex::QueryInto(const roadnet::LatLon& p, double radius_m,
                             size_t max_candidates, QueryScratch* scratch,
                             std::vector<EdgeCandidate>* out) const {
  out->clear();
  // A non-finite fix matches nothing (raw GPS is outside input).
  if (max_candidates == 0 || !(radius_m >= 0.0) || !std::isfinite(p.lat) ||
      !std::isfinite(p.lon)) {
    return;
  }

  // Exact ring iteration: an edge within `radius_m` of `p` passes through at
  // least one cell whose rectangle comes within `radius_m` of `p` (the edge
  // is registered in every cell its bounding box overlaps, including the one
  // containing its closest point to `p`). So it suffices to visit, per cell
  // row, the contiguous column range whose rectangle-to-point distance is
  // within the radius. The per-cell bound is made slightly conservative
  // (inflated radius) to absorb the difference between this planar scale
  // and the equirectangular metric used for the exact per-edge distances
  // below; extra cells cost a read, a skipped qualifying cell would cost
  // correctness. Cells outside the grid are empty, so the ring is clipped to
  // it; cell coordinates stay doubles until then, so a fix far outside the
  // grid (or a huge radius) cannot overflow an int.
  const double slack_m = radius_m * 0.02 + 1.0;
  const double reach_m = radius_m + slack_m;
  const double qx = std::floor(p.lon / cell_deg_lon_);
  const double qy = std::floor(p.lat / cell_deg_lat_);
  const double ry = std::ceil(reach_m / (cell_deg_lat_ * kMetersPerDegLat));
  const double row_lo = std::max(qy - ry, static_cast<double>(y0_));
  const double row_hi = std::min(qy + ry, static_cast<double>(y0_ + ny_ - 1));
  if (!(row_lo <= row_hi)) return;

  // Prescreen every entry with its edge's bounding box before the dedup and
  // the exact distance: the box-to-point distance lower-bounds the segment
  // distance, and the same conservative slack absorbs the planar scale
  // difference, so no qualifying edge can be screened away.
  const double screen_sq = reach_m * reach_m;
  std::vector<roadnet::EdgeId>& ids = scratch->ids_;
  ids.clear();
  for (int row = static_cast<int>(row_lo); row <= static_cast<int>(row_hi);
       ++row) {
    // Meters from p.lat to the nearest latitude of this cell row.
    double lat_gap_deg = 0.0;
    if (row > qy) {
      lat_gap_deg = static_cast<double>(row) * cell_deg_lat_ - p.lat;
    } else if (row < qy) {
      lat_gap_deg = p.lat - static_cast<double>(row + 1) * cell_deg_lat_;
    }
    const double lat_gap_m = std::max(0.0, lat_gap_deg) * kMetersPerDegLat;
    if (lat_gap_m > reach_m) continue;
    // Within this row, the reachable column range: the lat gap shrinks the
    // budget left for the lon gap.
    const double lon_budget_m =
        std::sqrt(std::max(0.0, reach_m * reach_m - lat_gap_m * lat_gap_m));
    const double rx =
        std::ceil(lon_budget_m / (cell_deg_lon_ * meters_per_deg_lon_));
    const CellEntry* it;
    const CellEntry* end;
    RowSpan(row, qx - rx, qx + rx, &it, &end);
    for (; it != end; ++it) {
      const EdgeBox& box = it->box;
      const double dlat_deg =
          std::max({box.min_lat - p.lat, p.lat - box.max_lat, 0.0});
      const double dlon_deg =
          std::max({box.min_lon - p.lon, p.lon - box.max_lon, 0.0});
      const double dy = dlat_deg * kMetersPerDegLat;
      const double dx = dlon_deg * meters_per_deg_lon_;
      if (dy * dy + dx * dx > screen_sq) continue;
      ids.push_back(it->edge);
    }
  }
  if (ids.empty()) return;
  // Dedup the few survivors (an edge spanning several cells is seen once per
  // cell), then take the exact distance through the edge's stored frame.
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (roadnet::EdgeId e : ids) {
    const double d =
        roadnet::PointToSegmentMeters(p, frames_[static_cast<size_t>(e)]);
    if (d <= radius_m) out->push_back({e, d});
  }
  // (distance, edge id) is a total order over distinct edges, so the result
  // sequence — including which candidates survive the cap — is fully
  // deterministic.
  std::sort(out->begin(), out->end(), kByDistanceThenEdge);
  if (out->size() > max_candidates) out->resize(max_candidates);
}

}  // namespace rl4oasd::mapmatch
