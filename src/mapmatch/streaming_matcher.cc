#include "mapmatch/streaming_matcher.h"

#include <utility>
#include <vector>

namespace rl4oasd::mapmatch {

bool StreamingMatcher::MatchPoint(const traj::RawPoint& pt) {
  const size_t point_index = points_fed_++;
  return internal::AppendLayer(*matcher_, pt, point_index, &scratch_,
                               &scratch_.lattice);
}

Result<traj::MapMatchedTrajectory> StreamingMatcher::Finish() {
  if (points_fed_ == 0) {
    return Status::InvalidArgument("empty raw trajectory");
  }
  RL4_ASSIGN_OR_RETURN(internal::DecodedPieces decoded,
                       internal::Decode(*matcher_, scratch_.lattice, id_));
  return std::move(decoded.pieces[decoded.best]);
}

Result<std::vector<traj::MapMatchedTrajectory>>
StreamingMatcher::FinishSegments() {
  if (points_fed_ == 0) {
    return Status::InvalidArgument("empty raw trajectory");
  }
  RL4_ASSIGN_OR_RETURN(internal::DecodedPieces decoded,
                       internal::Decode(*matcher_, scratch_.lattice, id_));
  return std::move(decoded.pieces);
}

}  // namespace rl4oasd::mapmatch
