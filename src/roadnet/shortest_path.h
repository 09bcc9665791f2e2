// Shortest paths on the road network, expressed as edge sequences (the
// trajectory representation used throughout the paper). Includes a
// penalty-based k-alternative-routes generator used to synthesize the
// "several distinct normal routes per SD pair" structure.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "roadnet/road_network.h"

namespace rl4oasd::roadnet {

/// Weight callback: cost of traversing an edge. Defaults to edge length.
using EdgeWeightFn = std::function<double(EdgeId)>;

/// Dijkstra over vertices. Returns the edge sequence of a least-cost path
/// from `src` vertex to `dst` vertex, or an empty vector if unreachable.
std::vector<EdgeId> ShortestPath(const RoadNetwork& net, VertexId src,
                                 VertexId dst,
                                 const EdgeWeightFn& weight = nullptr);

/// Least-cost path between two edges: starts by traversing `src_edge` and
/// ends by traversing `dst_edge` (inclusive on both ends). Empty if
/// unreachable.
std::vector<EdgeId> ShortestPathBetweenEdges(
    const RoadNetwork& net, EdgeId src_edge, EdgeId dst_edge,
    const EdgeWeightFn& weight = nullptr);

/// Unweighted network distance (meters) between two edges, used by the map
/// matcher's transition model. Returns a negative value if unreachable.
double NetworkDistanceMeters(const RoadNetwork& net, EdgeId src_edge,
                             EdgeId dst_edge);

/// Reusable bounded Dijkstra over the edge graph (nodes are edges; stepping
/// onto a successor edge costs that successor's length). Distances are
/// "meters of edges traversed after `src`", the map matcher's transition
/// metric. The search state lives in epoch-stamped flat arrays sized to the
/// network plus one shared heap buffer, so back-to-back runs allocate
/// nothing and reset in O(1) — this replaces the seed matcher's fresh
/// `unordered_map` per (layer, candidate) search.
///
/// Optionally, a target set can be declared before a batch of runs; each run
/// then terminates as soon as every target is settled (its distance is
/// final), instead of flooding the whole `max_dist_m` ball. Early
/// termination is exact: a settled distance equals what the exhaustive
/// search would produce, and targets not reached within the bound are
/// reported unreachable either way.
///
/// Not thread-safe; use one instance per thread.
class EdgeDijkstra {
 public:
  EdgeDijkstra() = default;
  explicit EdgeDijkstra(const RoadNetwork* net) { Attach(net); }

  /// Binds the search to a network (re-binding resizes the scratch arrays).
  void Attach(const RoadNetwork* net);

  /// Declares the target set for subsequent Run() calls. Targets must be
  /// distinct edge ids. An empty set disables early termination.
  void SetTargets(const EdgeId* targets, size_t count);

  /// Bounded search from `src`: after this, DistanceTo(e) is valid for every
  /// edge settled within `max_dist_m`. With targets declared, stops as soon
  /// as all of them are settled.
  void Run(EdgeId src, double max_dist_m);

  /// Distance from the last Run()'s source to `e` (0 for the source itself),
  /// or a negative value if `e` was not reached within the bound.
  double DistanceTo(EdgeId e) const {
    return finished_epoch_[static_cast<size_t>(e)] == run_epoch_
               ? dist_[static_cast<size_t>(e)]
               : -1.0;
  }

  /// The edges the last Run() settled, in settle order (the source first):
  /// exactly the edges with DistanceTo(e) >= 0.
  const std::vector<EdgeId>& settled() const { return settled_; }

 private:
  void BumpRunEpoch();

  const RoadNetwork* net_ = nullptr;
  std::vector<double> dist_;
  std::vector<uint32_t> reached_epoch_;   // dist_[e] is a live tentative value
  std::vector<uint32_t> finished_epoch_;  // dist_[e] is settled (final)
  std::vector<uint32_t> target_epoch_;    // e is in the declared target set
  uint32_t run_epoch_ = 0;
  uint32_t target_gen_ = 0;
  size_t num_targets_ = 0;
  std::vector<std::pair<double, EdgeId>> heap_;  // min-heap buffer, reused
  std::vector<EdgeId> settled_;                  // last Run(), settle order
};

/// Precomputed bounded all-pairs edge distances — the FMM accelerator
/// (an upper-bounded origin-destination table): one bounded Dijkstra per
/// source edge at build time, then every (src, dst) distance within
/// `bound_m` is a binary search in a CSR row. Exact by construction: an
/// entry is the same settled distance EdgeDijkstra::Run computes, and a
/// missing entry means the true distance exceeds `bound_m` (bounded-search
/// reachability equals a true-distance comparison because prefix sums of
/// non-negative edge lengths are monotone). Immutable after Build, so any
/// number of threads may share one table.
class EdgeDistanceTable {
 public:
  EdgeDistanceTable() = default;

  /// Builds the table over all source edges: O(E) bounded searches, each
  /// row collected from the edges its search settled and sorted by dst.
  void Build(const RoadNetwork& net, double bound_m);

  bool built() const { return !offsets_.empty(); }
  double bound_m() const { return bound_m_; }
  size_t NumEntries() const { return dst_.size(); }

  /// Distance from `src` to `dst` (0 for src == dst), or a negative value
  /// if it exceeds bound_m. Only valid after Build.
  double DistanceTo(EdgeId src, EdgeId dst) const {
    const size_t row = offsets_[static_cast<size_t>(src)];
    size_t n = offsets_[static_cast<size_t>(src) + 1] - row;
    // Branch-free search for the last id <= dst (every row holds at least
    // its source): the row's ids are distinct and ascending, so dst is
    // present iff that id equals it.
    const EdgeId* base = dst_.data() + row;
    while (n > 1) {
      const size_t half = n / 2;
      base = base[half] <= dst ? base + half : base;
      n -= half;
    }
    return *base == dst ? dist_[static_cast<size_t>(base - dst_.data())]
                        : -1.0;
  }

 private:
  // Struct-of-arrays rows, so the search reads only the 4-byte ids.
  std::vector<size_t> offsets_;  // per-source row bounds into dst_ / dist_
  std::vector<EdgeId> dst_;      // each row ascending
  std::vector<double> dist_;     // parallel to dst_
  double bound_m_ = 0.0;
};

/// Generates up to k maximally-distinct routes between two edges by
/// iteratively penalizing edges of previously found routes (multiplying
/// their weight by `penalty`). Routes are deduplicated; the first one is the
/// true shortest path. This produces the "T1, T2 normal route" structure of
/// the paper's Figure 1.
std::vector<std::vector<EdgeId>> AlternativeRoutes(const RoadNetwork& net,
                                                   EdgeId src_edge,
                                                   EdgeId dst_edge, int k,
                                                   double penalty = 2.5);

}  // namespace rl4oasd::roadnet
