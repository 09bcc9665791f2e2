// Data preprocessing (paper Section IV-B): groups historical map-matched
// trajectories by (SD pair, time slot), computes transition fractions, and
// derives
//   * noisy labels    — per-edge 0/1 via threshold alpha on the fraction of
//                       trajectories in the group that contain the incoming
//                       transition (pre-training signal for RSRNet), and
//   * normal route features (NRF) — per-edge 0/1 via threshold delta on
//                       route-level popularity: an edge is 0 ("normal") when
//                       its incoming transition occurs on an inferred normal
//                       route of the group.
// Also exposes raw transition fractions (the "transition frequency" ablation
// baseline) and supports incremental updates for online learning.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "traj/dataset.h"
#include "traj/types.h"

namespace rl4oasd::core {

struct PreprocessConfig {
  double alpha = 0.5;      // noisy-label threshold on transition fraction
  double delta = 0.4;      // normal-route threshold on route fraction
  int time_slot_hours = 1; // 24 slots, as in the paper
  // Slot-level statistics are only trusted when the (SD pair, slot) group
  // holds at least this many trajectories; sparser groups fall back to the
  // all-slots aggregate of the SD pair. Mirrors the paper's "filter SD
  // pairs with fewer than 25 trajectories" rule at slot granularity (their
  // groups hold ~40 trajectories per slot).
  int64_t min_slot_support = 25;
};

/// Historical statistics for one (SD pair, time slot) group. Every table is
/// a vector sorted by key with unique keys, searched by binary search: a
/// served model holds hundreds of groups of a few dozen entries each, and
/// flat arrays keep them in a fraction of a node-based map's memory.
struct GroupStats {
  int64_t num_trajs = 0;
  /// (prev << 32 | cur, count of trajectories containing that transition).
  std::vector<std::pair<int64_t, int64_t>> transition_count;
  /// (route key, trajectory count) per distinct route.
  std::vector<std::pair<std::string, int64_t>> route_count;
  /// Transitions that occur on an inferred normal route (fraction > delta).
  /// Derived from route_count; every mutator rebuilds it before returning,
  /// so const readers only ever read. Empty in a slot group below
  /// min_slot_support, whose queries go to the SD pair's aggregate.
  std::vector<int64_t> normal_transitions;
  /// Edges that lie on an inferred normal route (same rebuild).
  std::vector<traj::EdgeId> normal_edges;
};

/// Serializable snapshot of one group's statistics. `slot == -1` denotes the
/// all-slots aggregate kept per SD pair (the cold-start fallback).
struct GroupSnapshot {
  traj::SdPair sd;
  int slot = 0;
  int64_t num_trajs = 0;
  std::vector<std::pair<int64_t, int64_t>> transitions;  // key -> count
  std::vector<std::pair<std::string, int64_t>> routes;   // route -> count
};

/// Builds and serves per-group historical statistics.
class Preprocessor {
 public:
  explicit Preprocessor(PreprocessConfig config = {});

  /// Ingests a historical dataset (resets previous state).
  void Fit(const traj::Dataset& historical);

  /// Incrementally ingests one more trajectory (online learning / concept
  /// drift: newly recorded data keeps the statistics current).
  void Update(const traj::MapMatchedTrajectory& t);

  /// Step-3 of the paper: per-edge transition fractions. The source and
  /// destination positions are defined to be 1.0.
  std::vector<double> TransitionFractions(
      const traj::MapMatchedTrajectory& t) const;

  /// Step-4: noisy labels (1 when fraction <= alpha).
  std::vector<uint8_t> NoisyLabels(const traj::MapMatchedTrajectory& t) const;

  /// Normal route features: 0 when the incoming transition lies on an
  /// inferred normal route; the source and destination are always 0.
  std::vector<uint8_t> NormalRouteFeatures(
      const traj::MapMatchedTrajectory& t) const;

  /// Streaming variants used by the online detector: the feature of edge at
  /// position `i` given its predecessor. Positions 0 is always normal.
  double TransitionFractionAt(const traj::SdPair& sd, double start_time,
                              traj::EdgeId prev, traj::EdgeId cur) const;
  uint8_t NormalRouteFeatureAt(const traj::SdPair& sd, double start_time,
                               traj::EdgeId prev, traj::EdgeId cur) const;

  /// True when `edge` lies on an inferred normal route of the group (used by
  /// the detector's boundary trimming). Unknown SD pairs return false.
  bool EdgeOnNormalRouteAt(const traj::SdPair& sd, double start_time,
                           traj::EdgeId edge) const;

  const PreprocessConfig& config() const { return config_; }
  size_t NumGroups() const { return groups_.size(); }

  /// Exports all group statistics in a deterministic order (sorted by SD
  /// pair, then slot; the all-slots aggregates use slot -1). Together with
  /// the config this fully reconstructs the preprocessor.
  std::vector<GroupSnapshot> ExportState() const;

  /// Replaces all statistics with the given snapshots (inverse of
  /// ExportState).
  void ImportState(const std::vector<GroupSnapshot>& snapshots);

 private:
  struct GroupKey {
    traj::SdPair sd;
    int slot;
    bool operator==(const GroupKey&) const = default;
  };
  struct GroupKeyHash {
    size_t operator()(const GroupKey& k) const {
      return traj::SdPairHash()(k.sd) * 1000003u ^
             std::hash<int>()(k.slot);
    }
  };

  static int64_t TransitionKey(traj::EdgeId prev, traj::EdgeId cur) {
    return (static_cast<int64_t>(prev) << 32) | static_cast<uint32_t>(cur);
  }
  static std::string RouteKey(const std::vector<traj::EdgeId>& edges);

  /// Group for (sd, slot of start_time); falls back to the all-slots
  /// aggregate when the slot-specific group is unseen. Null when the SD pair
  /// itself is unseen.
  const GroupStats* FindGroup(const traj::SdPair& sd,
                              double start_time) const;

  /// Adds `t` to its slot group and its SD pair's aggregate and returns
  /// both, without rebuilding their normal-route sets; {null, null} when
  /// `t` is too short to carry a transition.
  std::pair<GroupStats*, GroupStats*> Ingest(
      const traj::MapMatchedTrajectory& t);
  /// Counts one trajectory with the given distinct transitions (ascending)
  /// and route key into `g`, inserting new keys in key order.
  static void IngestInto(GroupStats* g, const std::vector<int64_t>& transitions,
                         const std::string& route);
  /// Rebuilds `g`'s normal-route sets from its route counts; a slot group
  /// below min_slot_support keeps none (queries never reach it).
  void RebuildNormalSet(GroupStats* g, bool slot_group) const;
  /// The end of Fit and ImportState: puts every group's tables in key
  /// order (ImportState appends snapshots as they come), trims them to
  /// size and rebuilds the normal-route sets.
  void FinishGroups();

  PreprocessConfig config_;
  std::unordered_map<GroupKey, GroupStats, GroupKeyHash> groups_;
  /// Aggregate over all slots per SD pair (cold-start fallback).
  std::unordered_map<traj::SdPair, GroupStats, traj::SdPairHash> all_slots_;
};

}  // namespace rl4oasd::core
