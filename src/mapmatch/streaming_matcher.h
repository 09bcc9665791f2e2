// Streaming (online) map matching: feed GPS fixes one at a time as they
// arrive and decode on demand. The lattice grows incrementally — each
// MatchPoint() does exactly the per-fix work batch matching would do (one
// candidate query plus one scored Viterbi layer), so per-point cost is O(1)
// in trajectory length and a fix's cost is paid when it arrives, not at
// Finish().
//
// Exactness contract (enforced by tests/mapmatch_equiv_test.cc): after
// feeding the points of a raw trajectory in order, Finish() returns a result
// bit-identical to HmmMapMatcher::Match() on that trajectory — same edges,
// same start_time, same error. Finish() is non-destructive: it decodes the
// lattice built so far, so callers may decode mid-stream (e.g. for
// provisional routes) and keep feeding.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "mapmatch/hmm_matcher.h"
#include "traj/types.h"

namespace rl4oasd::mapmatch {

/// One instance tracks one vehicle's in-flight trajectory. Not thread-safe;
/// use one instance per stream (they share the matcher's immutable index).
class StreamingMatcher {
 public:
  /// The matcher supplies the network, config, and spatial index; it must
  /// outlive this object.
  explicit StreamingMatcher(const HmmMapMatcher* matcher) : matcher_(matcher) {}

  /// Starts a new trajectory, discarding any in-flight state.
  void Reset(int64_t trajectory_id) {
    id_ = trajectory_id;
    points_fed_ = 0;
    scratch_.lattice.Clear();
  }

  /// Feeds the next GPS fix. Returns true if the fix produced a lattice
  /// layer (false: no road within the candidate radius, or a non-finite
  /// coordinate — the fix is dropped, exactly as batch matching drops it).
  bool MatchPoint(const traj::RawPoint& pt);

  /// Decodes the lattice built so far; bit-identical to batch Match() over
  /// the fixes fed since Reset(). Non-destructive.
  Result<traj::MapMatchedTrajectory> Finish();

  /// All gap-split pieces, in time order; bit-identical to batch
  /// MatchSegments(). Non-destructive.
  Result<std::vector<traj::MapMatchedTrajectory>> FinishSegments();

  int64_t trajectory_id() const { return id_; }
  size_t points_fed() const { return points_fed_; }
  size_t num_layers() const { return scratch_.lattice.layers.size(); }

 private:
  const HmmMapMatcher* matcher_;
  int64_t id_ = 0;
  size_t points_fed_ = 0;
  internal::MatchScratch scratch_;
};

}  // namespace rl4oasd::mapmatch
