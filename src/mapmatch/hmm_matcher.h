// HMM map matching in the style of FMM (Yang & Gidófalvi 2018) / Newson &
// Krumm: hidden states are candidate road segments per GPS fix, emission
// probabilities are Gaussian in point-to-segment distance, transition
// probabilities compare great-circle displacement to network distance, and
// Viterbi decodes the most likely segment sequence. Gaps in the decoded
// sequence are stitched with shortest paths so the output is a connected
// map-matched trajectory.
//
// Decoding semantics (pinned; see docs/ARCHITECTURE.md "Map matching" and
// tests/mapmatch_equiv_test.cc):
//   * Fixes with no candidate within `candidate_radius_m` are dropped from
//     the lattice; the output's `start_time` is the first *matched* fix's
//     timestamp.
//   * When no current-layer candidate is network-reachable from the
//     previous layer within the detour bound (a GPS gap), the lattice is
//     partitioned: a new segment starts from emission-only scores. Each
//     maximal segment is decoded by its own Viterbi pass — the output over
//     a segment equals what matching that segment's fixes alone would
//     produce — and a segment's final layer contributes its
//     highest-scoring candidate (ties: lowest candidate index in the
//     (distance, edge id) candidate order).
//   * Across a segment boundary, the output is stitched with an unbounded
//     shortest path when one exists and split otherwise. Match() returns
//     the piece spanning the most matched fixes (ties: earliest); use
//     MatchSegments() for all pieces. A whole-trajectory failure requires
//     an empty candidate lattice, not merely one unbridgeable gap.
//
// Transition distances come from the precomputed edge-distance table, or
// from a reusable bounded Dijkstra for layers whose detour bound exceeds
// it. The goldens tests/data/golden_{mapmatch_sweep,matched_edges}.txt pin
// the output.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "mapmatch/spatial_index.h"
#include "roadnet/road_network.h"
#include "roadnet/shortest_path.h"
#include "traj/types.h"

namespace rl4oasd::mapmatch {

struct HmmConfig {
  double gps_sigma_m = 15.0;       // emission noise scale
  double candidate_radius_m = 60;  // candidate search radius
  size_t max_candidates = 6;
  double transition_beta = 2.0;    // penalty scale for route-length mismatch
  double max_network_detour = 5.0; // bound on network/GC distance ratio
  // Bound (meters) of the precomputed edge-distance table built at matcher
  // construction (FMM's UBODT). Layers whose detour bound fits under it
  // answer transitions by table lookup; wider layers fall back to the live
  // bounded Dijkstra, with identical distances either way. 0 disables the
  // table (and its one-time O(E) build).
  double transition_table_bound_m = 600.0;
};

class HmmMapMatcher;

namespace internal {

/// One lattice layer: the scored candidates of one retained GPS fix.
struct Layer {
  size_t point_index = 0;    // index of the fix in the raw point stream
  roadnet::LatLon pos;       // fix position (transition great-circle anchor)
  double t = 0.0;            // fix timestamp (piece start times)
  uint32_t first = 0;        // offset into the flattened per-candidate arrays
  uint32_t count = 0;
  bool segment_start = false;  // no scored transition from the previous layer
};

/// Flattened Viterbi lattice, grown one layer at a time (the streaming
/// matcher appends as fixes arrive; batch matching appends in a loop).
struct Lattice {
  std::vector<Layer> layers;
  std::vector<EdgeCandidate> cands;  // flattened, layer-major
  std::vector<double> score;         // parallel to cands
  std::vector<int32_t> back;         // parallel to cands; -1 = segment start

  void Clear() {
    layers.clear();
    cands.clear();
    score.clear();
    back.clear();
  }
};

/// Reusable per-thread match state: query buffers, the bounded edge-graph
/// Dijkstra's epoch-stamped arrays, and the lattice storage. One instance
/// per thread; reusing one across consecutive Match() calls makes matching
/// allocation-free in steady state.
struct MatchScratch {
  SpatialIndex::QueryScratch query;
  std::vector<EdgeCandidate> qcands;  // per-fix candidate query output
  roadnet::EdgeDijkstra dijkstra;
  std::vector<roadnet::EdgeId> targets;
  Lattice lattice;
};

/// Queries candidates for `pt` and appends one scored layer to `lat`.
/// Returns false (lattice unchanged) when no candidate is in range.
bool AppendLayer(const HmmMapMatcher& matcher, const traj::RawPoint& pt,
                 size_t point_index, MatchScratch* scratch, Lattice* lat);

/// Backtracks the lattice and assembles the output pieces, bridging each
/// segment boundary when a path exists and splitting it otherwise. `best`
/// indexes the piece with the most matched fixes (ties: earliest). Pure
/// function of the lattice: calling it does not invalidate the lattice, so
/// a streaming caller may decode mid-stream and keep feeding.
struct DecodedPieces {
  std::vector<traj::MapMatchedTrajectory> pieces;
  size_t best = 0;
};
Result<DecodedPieces> Decode(const HmmMapMatcher& matcher, const Lattice& lat,
                             int64_t id);

}  // namespace internal

/// Stateless matcher: Match()/MatchBatch()/MatchSegments() are const and
/// safe to call concurrently (each call uses its own scratch, or the one the
/// caller passes in — pass one scratch per thread).
class HmmMapMatcher {
 public:
  using Scratch = internal::MatchScratch;

  explicit HmmMapMatcher(const roadnet::RoadNetwork* net, HmmConfig config = {});

  /// Matches one raw trajectory. Fails if no candidate lattice can be built
  /// (e.g. all fixes are off-network). With multiple gap-split pieces,
  /// returns the piece spanning the most matched fixes.
  Result<traj::MapMatchedTrajectory> Match(const traj::RawTrajectory& raw) const;

  /// Same, reusing the caller's scratch (allocation-free in steady state).
  Result<traj::MapMatchedTrajectory> Match(const traj::RawTrajectory& raw,
                                           Scratch* scratch) const;

  /// Matches one raw trajectory into every gap-split piece, in time order
  /// (one piece when the trajectory has no unbridged gap). Each piece is
  /// connected and carries the timestamp of its own first matched fix.
  Result<std::vector<traj::MapMatchedTrajectory>> MatchSegments(
      const traj::RawTrajectory& raw, Scratch* scratch = nullptr) const;

  /// Matches a batch of trajectories across `threads` workers (clamped to
  /// [1, batch size]). Output order is deterministic and thread-count
  /// invariant: result i corresponds to input i and is identical to
  /// Match(raw[i]).
  std::vector<Result<traj::MapMatchedTrajectory>> MatchBatch(
      const std::vector<traj::RawTrajectory>& raws, int threads = 1) const;

  const roadnet::RoadNetwork* network() const { return net_; }
  const HmmConfig& config() const { return config_; }
  const SpatialIndex& index() const { return index_; }
  const roadnet::EdgeDistanceTable& transition_table() const { return table_; }

 private:
  /// Builds the lattice of `raw` in `scratch` and decodes it.
  Result<internal::DecodedPieces> MatchPieces(const traj::RawTrajectory& raw,
                                              Scratch* scratch) const;

  const roadnet::RoadNetwork* net_;
  HmmConfig config_;
  SpatialIndex index_;
  roadnet::EdgeDistanceTable table_;  // immutable after ctor; shared by threads
};

}  // namespace rl4oasd::mapmatch
