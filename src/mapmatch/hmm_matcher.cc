#include "mapmatch/hmm_matcher.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include "roadnet/geometry.h"
#include "roadnet/shortest_path.h"

namespace rl4oasd::mapmatch {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

double LogEmission(double d, double sigma) {
  return -0.5 * (d / sigma) * (d / sigma);
}

/// First maximum over a layer's score slice — the pinned segment-end
/// tie-break (lowest candidate index in the (distance, edge id) order).
uint32_t ArgmaxLayer(const internal::Lattice& lat, size_t t) {
  const internal::Layer& ly = lat.layers[t];
  uint32_t best = 0;
  for (uint32_t c = 1; c < ly.count; ++c) {
    if (lat.score[ly.first + c] > lat.score[ly.first + best]) best = c;
  }
  return best;
}

}  // namespace

namespace internal {

bool AppendLayer(const HmmMapMatcher& matcher, const traj::RawPoint& pt,
                 size_t point_index, MatchScratch* scratch, Lattice* lat) {
  const HmmConfig& cfg = matcher.config();
  const roadnet::RoadNetwork& net = *matcher.network();

  matcher.index().QueryInto(pt.pos, cfg.candidate_radius_m, cfg.max_candidates,
                            &scratch->query, &scratch->qcands);
  if (scratch->qcands.empty()) return false;

  Layer ly;
  ly.point_index = point_index;
  ly.pos = pt.pos;
  ly.t = pt.t;
  ly.first = static_cast<uint32_t>(lat->cands.size());
  ly.count = static_cast<uint32_t>(scratch->qcands.size());
  lat->cands.insert(lat->cands.end(), scratch->qcands.begin(),
                    scratch->qcands.end());
  lat->score.resize(lat->cands.size(), kNegInf);
  lat->back.resize(lat->cands.size(), -1);

  double* score = lat->score.data() + ly.first;
  int32_t* back = lat->back.data() + ly.first;
  const EdgeCandidate* cand = lat->cands.data() + ly.first;

  // score[] doubles as the running best transition score per candidate
  // until emissions are added; the first layer has no transitions.
  if (!lat->layers.empty()) {
    const Layer& prev = lat->layers.back();
    const double* score_prev = lat->score.data() + prev.first;
    const EdgeCandidate* cand_prev = lat->cands.data() + prev.first;
    const double gc = roadnet::ApproxDistanceMeters(prev.pos, ly.pos);
    const double beta_m = 50.0 * cfg.transition_beta;
    const double max_net = std::max(gc * cfg.max_network_detour, gc + 300.0);

    // Transition distances come from the precomputed table when the layer's
    // detour bound fits under it (the common case: consecutive fixes),
    // otherwise from one reusable bounded Dijkstra per previous candidate,
    // early-terminated once every current-layer candidate is settled. Both
    // sources yield the same distances: a table entry is a settled
    // EdgeDijkstra distance, a table miss or an entry beyond max_net means
    // a live search bounded by max_net would not reach the edge either.
    const roadnet::EdgeDistanceTable& table = matcher.transition_table();
    const bool use_table = table.built() && max_net <= table.bound_m();
    if (!use_table) {
      scratch->targets.clear();
      for (uint32_t c = 0; c < ly.count; ++c) {
        scratch->targets.push_back(cand[c].edge);
      }
      scratch->dijkstra.Attach(&net);
      scratch->dijkstra.SetTargets(scratch->targets.data(),
                                   scratch->targets.size());
    }
    for (uint32_t p = 0; p < prev.count; ++p) {
      if (score_prev[p] == kNegInf) continue;
      // Exact dominance pruning: log_trans <= 0, so p's best possible score
      // is score_prev[p]; when even that cannot beat (strict >) the weakest
      // current best, p cannot change any candidate's score or back pointer.
      double min_best = score[0];
      for (uint32_t c = 1; c < ly.count; ++c) {
        min_best = std::min(min_best, score[c]);
      }
      if (score_prev[p] <= min_best) continue;
      if (!use_table) scratch->dijkstra.Run(cand_prev[p].edge, max_net);
      for (uint32_t c = 0; c < ly.count; ++c) {
        const double d =
            use_table ? table.DistanceTo(cand_prev[p].edge, cand[c].edge)
                      : scratch->dijkstra.DistanceTo(cand[c].edge);
        if (d < 0.0 || d > max_net) continue;
        const double s = score_prev[p] - std::abs(gc - d) / beta_m;
        // Strict >: ties keep the lowest p, the first maximum over ascending
        // p, as the segment-end argmax does.
        if (s > score[c]) {
          score[c] = s;
          back[c] = static_cast<int32_t>(p);
        }
      }
    }
  }

  if (std::any_of(back, back + ly.count, [](int32_t b) { return b >= 0; })) {
    for (uint32_t c = 0; c < ly.count; ++c) {
      if (back[c] >= 0) {
        score[c] += LogEmission(cand[c].distance_m, cfg.gps_sigma_m);
      } else {
        score[c] = kNegInf;
      }
    }
  } else {
    // The first layer, or a GPS gap: no current candidate is network-
    // reachable from the previous layer within the detour bound. Start a
    // new Viterbi segment from emission-only scores; Decode bridges a gap
    // when a path exists.
    ly.segment_start = true;
    for (uint32_t c = 0; c < ly.count; ++c) {
      score[c] = LogEmission(cand[c].distance_m, cfg.gps_sigma_m);
      back[c] = -1;
    }
  }
  lat->layers.push_back(ly);
  return true;
}

Result<DecodedPieces> Decode(const HmmMapMatcher& matcher, const Lattice& lat,
                             int64_t id) {
  if (lat.layers.empty()) {
    return Status::NotFound("no candidate segments near any GPS fix");
  }
  const roadnet::RoadNetwork& net = *matcher.network();
  const size_t num_layers = lat.layers.size();

  // Backtrack. Segment boundaries are explicit (Layer::segment_start), so a
  // chosen candidate in a non-starting layer always has a valid back
  // pointer; at a boundary the finished segment's end is re-anchored at the
  // previous layer's argmax (segmented Viterbi).
  std::vector<uint32_t> chosen(num_layers);
  uint32_t cur = ArgmaxLayer(lat, num_layers - 1);
  for (size_t t = num_layers; t-- > 0;) {
    chosen[t] = cur;
    if (t == 0) break;
    if (lat.layers[t].segment_start) {
      cur = ArgmaxLayer(lat, t - 1);
    } else {
      cur = static_cast<uint32_t>(lat.back[lat.layers[t].first + cur]);
    }
  }

  // Assemble pieces: collapse repeats, stitch non-adjacent consecutive edges
  // with shortest paths, and split where a segment boundary has no bridge.
  DecodedPieces out;
  std::vector<size_t> piece_fixes;
  traj::MapMatchedTrajectory piece;
  size_t fixes = 0;
  auto flush = [&]() -> Status {
    if (piece.edges.empty()) return Status::OK();
    if (!net.IsConnectedPath(piece.edges)) {
      return Status::Internal("matched trajectory is not connected");
    }
    piece_fixes.push_back(fixes);
    out.pieces.push_back(std::move(piece));
    piece = traj::MapMatchedTrajectory{};
    return Status::OK();
  };

  for (size_t t = 0; t < num_layers; ++t) {
    const Layer& ly = lat.layers[t];
    const roadnet::EdgeId e = lat.cands[ly.first + chosen[t]].edge;
    const bool boundary = t > 0 && ly.segment_start;
    if (!piece.edges.empty()) {
      if (piece.edges.back() == e) {
        ++fixes;
        continue;
      }
      if (!net.AreConsecutive(piece.edges.back(), e)) {
        auto bridge = roadnet::ShortestPathBetweenEdges(net, piece.edges.back(), e);
        if (bridge.size() >= 2) {
          // Skip the first (already present) and last (pushed below).
          for (size_t k = 1; k + 1 < bridge.size(); ++k) {
            piece.edges.push_back(bridge[k]);
          }
        } else if (boundary) {
          // Unbridgeable gap (e.g. disconnected subgraphs): degrade to a
          // split instead of failing the whole trajectory.
          RL4_RETURN_NOT_OK(flush());
        } else {
          // Within a segment reachability was proven by the transition
          // search, so a missing bridge is a real invariant violation.
          return Status::Internal("could not stitch matched edges");
        }
      }
    }
    if (piece.edges.empty()) {
      piece.id = id;
      piece.start_time = ly.t;  // first *matched* fix of this piece
      fixes = 0;
    }
    piece.edges.push_back(e);
    ++fixes;
  }
  RL4_RETURN_NOT_OK(flush());

  for (size_t i = 1; i < piece_fixes.size(); ++i) {
    // Strict >: ties keep the earliest piece.
    if (piece_fixes[i] > piece_fixes[out.best]) out.best = i;
  }
  return out;
}

}  // namespace internal

HmmMapMatcher::HmmMapMatcher(const roadnet::RoadNetwork* net, HmmConfig config)
    : net_(net), config_(config), index_(net) {
  if (config_.transition_table_bound_m > 0.0) {
    table_.Build(*net, config_.transition_table_bound_m);
  }
}

Result<internal::DecodedPieces> HmmMapMatcher::MatchPieces(
    const traj::RawTrajectory& raw, Scratch* scratch) const {
  if (raw.points.empty()) {
    return Status::InvalidArgument("empty raw trajectory");
  }
  internal::Lattice& lat = scratch->lattice;
  lat.Clear();
  for (size_t i = 0; i < raw.points.size(); ++i) {
    internal::AppendLayer(*this, raw.points[i], i, scratch, &lat);
  }
  return internal::Decode(*this, lat, raw.id);
}

Result<traj::MapMatchedTrajectory> HmmMapMatcher::Match(
    const traj::RawTrajectory& raw) const {
  Scratch scratch;
  return Match(raw, &scratch);
}

Result<traj::MapMatchedTrajectory> HmmMapMatcher::Match(
    const traj::RawTrajectory& raw, Scratch* scratch) const {
  RL4_ASSIGN_OR_RETURN(internal::DecodedPieces decoded,
                       MatchPieces(raw, scratch));
  return std::move(decoded.pieces[decoded.best]);
}

Result<std::vector<traj::MapMatchedTrajectory>> HmmMapMatcher::MatchSegments(
    const traj::RawTrajectory& raw, Scratch* scratch) const {
  Scratch local;
  RL4_ASSIGN_OR_RETURN(internal::DecodedPieces decoded,
                       MatchPieces(raw, scratch != nullptr ? scratch : &local));
  return std::move(decoded.pieces);
}

std::vector<Result<traj::MapMatchedTrajectory>> HmmMapMatcher::MatchBatch(
    const std::vector<traj::RawTrajectory>& raws, int threads) const {
  const size_t n = raws.size();
  // Result<T> has no default constructor; prefill every slot with an error
  // so workers can plain-assign into disjoint indices.
  std::vector<Result<traj::MapMatchedTrajectory>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.emplace_back(Status::Internal("batch slot not matched"));
  }
  size_t num_workers = threads < 1 ? 1 : static_cast<size_t>(threads);
  num_workers = std::min(num_workers, n == 0 ? size_t{1} : n);
  if (num_workers <= 1) {
    Scratch scratch;
    for (size_t i = 0; i < n; ++i) {
      out[i] = Match(raws[i], &scratch);
    }
    return out;
  }
  // Strided sharding; each worker owns its scratch and writes only its own
  // slots, so no synchronization is needed beyond the joins. Results are
  // keyed by input index, making output thread-count invariant.
  std::vector<std::thread> workers;
  workers.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    workers.emplace_back([this, &raws, &out, n, num_workers, w] {
      Scratch scratch;
      for (size_t i = w; i < n; i += num_workers) {
        out[i] = Match(raws[i], &scratch);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  return out;
}

}  // namespace rl4oasd::mapmatch
