// Chaos injection for the ingest boundary: a seeded, deterministic stream
// perturber that degrades a clean replay stream in exactly the ways the
// ingest guard (serve/ingest_guard.h) classifies — dropout, duplication,
// bounded reorder, clock skew, and teleports — while keeping exact ground
// truth about what it injected.
//
// The injector is the adversarial half of the robustness contract: a
// metamorphic test perturbs a clean stream, replays both through a
// FleetMonitor, and checks (a) the guard's per-class counters against the
// injector's ground-truth counts, (b) conservation identities
// (started == finished + evicted + active; offered == processed + rejected
// + quarantine-dropped), and (c) bounded per-vehicle alert divergence
// against the clean run. The perturbations are constructed so single-mode
// runs are *exactly* countable:
//
//   * drop       — the point is withheld. A run of consecutive drops of one
//                  vehicle counts as ONE expected dropout-gap event, charged
//                  when the next point of that vehicle is actually emitted
//                  (a trailing drop run that no later point exposes is not
//                  charged — the guard can never see it).
//   * duplicate  — the point is emitted twice back-to-back (identical edge
//                  and timestamp), the guard's definition of a retransmit.
//   * reorder    — the point is held and re-emitted after `reorder_window`
//                  later points of the same vehicle; it is counted as
//                  reordered only if at least one point actually overtook it
//                  (a hold flushed at stream end with nothing past it lands
//                  in order and is not counted).
//   * skew       — the timestamp jumps forward by `skew_offset_s` (choose it
//                  above the guard's skew_tolerance_s to guarantee the
//                  class).
//   * teleport   — the edge is replaced by one provably NOT reachable from
//                  the vehicle's last clean edge within `teleport_min_hops`
//                  adjacency hops (IngestGuard::ReachableWithinHops, the
//                  same predicate the guard runs — set min_hops >= the
//                  guard's teleport_hop_bound for exact counting). A first
//                  point (no reference edge yet) or a graph too connected to
//                  offer an unreachable edge is left clean rather than
//                  counted wrong.
//
// At most one perturbation applies per input point (a single uniform draw
// partitioned by the cumulative probabilities), so ground-truth counts
// partition the input. Determinism: same spec (seed included) + same input
// stream => bit-identical perturbed stream, via common::Rng only.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "roadnet/road_network.h"
#include "serve/fleet.h"

namespace rl4oasd::serve {

/// Perturbation probabilities and shape parameters. Probabilities must be
/// in [0, 1] with sum <= 1 (one draw per point picks at most one class).
struct ChaosSpec {
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  double reorder_prob = 0.0;
  double skew_prob = 0.0;
  double teleport_prob = 0.0;
  /// A reordered point is re-emitted after this many later same-vehicle
  /// points (bounded displacement).
  int reorder_window = 4;
  /// Forward jump applied to a skewed timestamp. The default clears the
  /// guard's default skew_tolerance_s (3600).
  double skew_offset_s = 7200.0;
  /// A teleport edge must be unreachable within this many hops of the
  /// vehicle's last clean edge. Match (or exceed) the guard's
  /// teleport_hop_bound for exact per-class accounting.
  int teleport_min_hops = 2;
  uint64_t seed = 1;
};

/// Parses "drop=0.01,dup=0.02,reorder=0.01,skew=0.005,teleport=0.001,
/// seed=9,window=4,skew_offset=7200,hops=2" (any subset, any order) into a
/// ChaosSpec. Unknown keys, malformed numbers, out-of-range probabilities,
/// or a probability sum above 1 return InvalidArgument. This is the
/// oasd_simulate --chaos=<spec> syntax.
Result<ChaosSpec> ParseChaosSpec(std::string_view spec);

/// Ground truth about one Perturb call.
struct ChaosCounts {
  int64_t input = 0;    // clean points offered
  int64_t emitted = 0;  // perturbed points produced (dup adds, drop removes)
  int64_t dropped = 0;
  int64_t duplicated = 0;
  /// Held points that at least one later point actually overtook.
  int64_t reordered = 0;
  int64_t skewed = 0;
  int64_t teleported = 0;
  /// Expected guard dropout-gap events: drop runs exposed by a later
  /// emitted point of the same vehicle.
  int64_t drop_gaps = 0;

  /// Field-wise sum, for tallying Perturb calls across trips and threads.
  ChaosCounts& operator+=(const ChaosCounts& o) {
    input += o.input;
    emitted += o.emitted;
    dropped += o.dropped;
    duplicated += o.duplicated;
    reordered += o.reordered;
    skewed += o.skewed;
    teleported += o.teleported;
    drop_gaps += o.drop_gaps;
    return *this;
  }
};

/// Deterministic stream perturber. Not thread-safe; one injector per
/// stream (per-thread in concurrent harnesses, seeded distinctly).
class ChaosInjector {
 public:
  /// `net` must outlive the injector (teleport manufacturing; may be null
  /// when teleport_prob == 0).
  ChaosInjector(ChaosSpec spec, const roadnet::RoadNetwork* net);

  /// Perturbs one complete stream: counts and per-vehicle tallies reset at
  /// entry, holds flush at exit (each call is a self-contained run; the RNG
  /// stream continues across calls). Points of one vehicle must arrive in
  /// timestamp order — the property trips guarantee and chaos then breaks.
  std::vector<FleetPoint> Perturb(std::span<const FleetPoint> clean);

  /// Ground truth for the most recent Perturb call.
  const ChaosCounts& counts() const { return counts_; }

  /// Per-vehicle perturbed-point counts from the most recent Perturb call
  /// (drop + dup + reorder + skew + teleport), for per-vehicle divergence
  /// bounds in metamorphic tests.
  const std::unordered_map<int64_t, int64_t>& perturbed_by_vehicle() const {
    return perturbed_;
  }

 private:
  /// A reorder hold: re-emitted once `overtaken` reaches reorder_window.
  struct Held {
    FleetPoint point;
    int overtaken = 0;
  };
  struct VehicleState {
    /// Last emitted non-teleport edge: the reference both for manufacturing
    /// the next teleport and for what the guard's position will be.
    traj::EdgeId last_clean_edge = roadnet::kInvalidEdge;
    /// An unexposed drop run awaits the vehicle's next emission.
    bool pending_gap = false;
    std::vector<Held> held;
  };

  /// Emits one point: charges a pending drop gap, appends, and advances
  /// this vehicle's reorder holds (releasing any that filled its window).
  void Emit(const FleetPoint& p, bool teleported, VehicleState* vs,
            std::vector<FleetPoint>* out);

  /// Draws an edge unreachable from `from` within teleport_min_hops, or
  /// kInvalidEdge when the bounded attempts find none.
  traj::EdgeId DrawTeleportEdge(traj::EdgeId from);

  ChaosSpec spec_;
  const roadnet::RoadNetwork* net_;
  Rng rng_;
  ChaosCounts counts_;
  std::unordered_map<int64_t, int64_t> perturbed_;
  std::unordered_map<int64_t, VehicleState> vehicles_;
};

}  // namespace rl4oasd::serve
