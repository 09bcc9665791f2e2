// Map-matching substrate tests: spatial index correctness and end-to-end
// HMM matching of noisy synthetic GPS back onto the true route.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "mapmatch/hmm_matcher.h"
#include "mapmatch/spatial_index.h"
#include "mapmatch/streaming_matcher.h"
#include "test_util.h"
#include "traj/gps_sampler.h"

namespace rl4oasd::mapmatch {
namespace {

using ::rl4oasd::testing::SmallDataset;
using ::rl4oasd::testing::SmallGrid;

TEST(SpatialIndexTest, FindsNearbyEdges) {
  const auto net = SmallGrid();
  SpatialIndex index(&net);
  // Query at an edge midpoint must return that edge first.
  const roadnet::EdgeId e = 10;
  const auto candidates = index.Query(net.EdgeMidpoint(e), 50.0);
  ASSERT_FALSE(candidates.empty());
  // The edge itself (or its reverse twin, which is collinear) is closest.
  EXPECT_LT(candidates[0].distance_m, 1.0);
  bool found = false;
  for (const auto& c : candidates) found |= (c.edge == e);
  EXPECT_TRUE(found);
}

TEST(SpatialIndexTest, RespectsRadius) {
  const auto net = SmallGrid();
  SpatialIndex index(&net);
  const auto p = net.EdgeMidpoint(0);
  for (const auto& c : index.Query(p, 30.0)) {
    EXPECT_LE(c.distance_m, 30.0);
  }
}

TEST(SpatialIndexTest, CandidatesSortedAndCapped) {
  const auto net = SmallGrid();
  SpatialIndex index(&net);
  const auto candidates = index.Query(net.EdgeMidpoint(5), 500.0, 4);
  EXPECT_LE(candidates.size(), 4u);
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_LE(candidates[i - 1].distance_m, candidates[i].distance_m);
  }
}

TEST(SpatialIndexTest, FarAwayQueryIsEmpty) {
  const auto net = SmallGrid();
  SpatialIndex index(&net);
  EXPECT_TRUE(index.Query({10.0, 50.0}, 50.0).empty());
}

class HmmMatcherTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HmmMatcherTest, RecoversTrueRouteFromNoisyGps) {
  const auto net = SmallGrid();
  const auto ds = SmallDataset(net, 3, 0.1, GetParam());
  traj::GpsSamplerConfig scfg;
  scfg.noise_sigma_m = 8.0;
  traj::GpsSampler sampler(&net, scfg, GetParam());
  HmmMapMatcher matcher(&net);

  int evaluated = 0;
  double jaccard_sum = 0.0;
  for (size_t k = 0; k < std::min<size_t>(ds.size(), 15); ++k) {
    const auto& truth = ds[k].traj;
    const auto raw = sampler.Sample(truth);
    if (raw.points.size() < 5) continue;
    auto matched = matcher.Match(raw);
    ASSERT_TRUE(matched.ok()) << matched.status().ToString();
    EXPECT_TRUE(net.IsConnectedPath(matched->edges));
    // Jaccard between true and matched edge sets should be high.
    std::set<traj::EdgeId> a(truth.edges.begin(), truth.edges.end());
    std::set<traj::EdgeId> b(matched->edges.begin(), matched->edges.end());
    std::vector<traj::EdgeId> inter;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(inter));
    const double jaccard = static_cast<double>(inter.size()) /
                           static_cast<double>(a.size() + b.size() -
                                               inter.size());
    jaccard_sum += jaccard;
    ++evaluated;
  }
  ASSERT_GT(evaluated, 0);
  // Average recovery should be strong on a clean grid.
  EXPECT_GT(jaccard_sum / evaluated, 0.75);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HmmMatcherTest, ::testing::Values(1, 7, 23));

TEST(HmmMatcherErrorsTest, EmptyTrajectoryRejected) {
  const auto net = SmallGrid();
  HmmMapMatcher matcher(&net);
  traj::RawTrajectory raw;
  const auto r = matcher.Match(raw);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(HmmMatcherErrorsTest, OffNetworkGpsRejected) {
  const auto net = SmallGrid();
  HmmMapMatcher matcher(&net);
  traj::RawTrajectory raw;
  raw.points.push_back({{10.0, 50.0}, 0.0});
  raw.points.push_back({{10.0, 50.001}, 3.0});
  const auto r = matcher.Match(raw);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(HmmMatcherTest, PreservesStartTime) {
  const auto net = SmallGrid();
  const auto ds = SmallDataset(net, 2);
  traj::GpsSampler sampler(&net, {});
  HmmMapMatcher matcher(&net);
  const auto raw = sampler.Sample(ds[0].traj);
  auto matched = matcher.Match(raw);
  ASSERT_TRUE(matched.ok());
  EXPECT_DOUBLE_EQ(matched->start_time, raw.points.front().t);
  EXPECT_EQ(matched->id, raw.id);
}

// Regression: the seed matcher stamped start_time from the first *raw* fix
// even when that fix was off-network and never matched. The contract is the
// first *matched* fix's timestamp.
TEST(HmmMatcherTest, StartTimeFromFirstMatchedFix) {
  const auto net = SmallGrid();
  HmmMapMatcher matcher(&net);
  traj::RawTrajectory raw;
  raw.id = 7;
  // Two fixes ~100 km off-network (dropped from the lattice), then two
  // on-network fixes starting at t = 100.
  raw.points.push_back({{10.0, 50.0}, 0.0});
  raw.points.push_back({{10.0, 50.001}, 2.0});
  const roadnet::EdgeId e = 10;
  const roadnet::EdgeId next = net.NextEdges(e)[0];
  raw.points.push_back({net.EdgeMidpoint(e), 100.0});
  raw.points.push_back({net.EdgeMidpoint(next), 103.0});
  auto matched = matcher.Match(raw);
  ASSERT_TRUE(matched.ok()) << matched.status().ToString();
  EXPECT_DOUBLE_EQ(matched->start_time, 100.0);
}

// Checks Query (uncapped and capped) of an index with `cell_m` cells against
// a brute force scan over every edge, in the pinned (distance, edge id)
// order, for every probe at several radii.
void ExpectMatchesBruteForce(const roadnet::RoadNetwork& net, double cell_m,
                             const std::vector<roadnet::LatLon>& probes) {
  const SpatialIndex index(&net, cell_m);
  for (const auto& p : probes) {
    for (const double radius : {15.0, 60.0, 140.0, 400.0}) {
      std::vector<EdgeCandidate> expected;
      for (roadnet::EdgeId e = 0;
           e < static_cast<roadnet::EdgeId>(net.NumEdges()); ++e) {
        const auto& edge = net.edge(e);
        const double d = roadnet::PointToSegmentMeters(
            p, net.vertex(edge.from).pos, net.vertex(edge.to).pos);
        if (d <= radius) expected.push_back({e, d});
      }
      std::sort(expected.begin(), expected.end(),
                [](const EdgeCandidate& a, const EdgeCandidate& b) {
                  return a.distance_m != b.distance_m
                             ? a.distance_m < b.distance_m
                             : a.edge < b.edge;
                });
      const auto where = ::testing::Message()
                         << "cell " << cell_m << " m, radius " << radius
                         << ", probe (" << p.lat << ", " << p.lon << ")";
      const auto got = index.Query(p, radius, net.NumEdges());
      ASSERT_EQ(got.size(), expected.size()) << where;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].edge, expected[i].edge) << where;
        EXPECT_EQ(got[i].distance_m, expected[i].distance_m) << where;
      }
      // The cap keeps the prefix of the same order.
      const auto capped = index.Query(p, radius, 3);
      ASSERT_EQ(capped.size(), std::min<size_t>(3, expected.size())) << where;
      for (size_t i = 0; i < capped.size(); ++i) {
        EXPECT_EQ(capped[i].edge, expected[i].edge) << where;
      }
    }
  }
}

// Exactness: the grid index must return the same candidate set as a brute
// force scan. The probes sit at edge midpoints, on cell borders (jittered by
// up to a micro-degree either side) and outside the network's rectangle,
// and the cell sizes run from the candidate radius to well above it, so the
// ring's clipping to the grid and the survivors' dedup both meet brute
// force.
TEST(SpatialIndexTest, QueryMatchesBruteForceExactly) {
  const auto net = SmallGrid();
  double min_lat = 90.0, max_lat = -90.0, min_lon = 180.0, max_lon = -180.0;
  for (roadnet::VertexId v = 0;
       v < static_cast<roadnet::VertexId>(net.NumVertices()); ++v) {
    const auto& pos = net.vertex(v).pos;
    min_lat = std::min(min_lat, pos.lat);
    max_lat = std::max(max_lat, pos.lat);
    min_lon = std::min(min_lon, pos.lon);
    max_lon = std::max(max_lon, pos.lon);
  }
  constexpr double kMetersPerDegLat = 111320.0;
  // The index takes its longitude scale at the vertex latitude farthest
  // from the equator.
  const double ref_lat = std::max(std::abs(min_lat), std::abs(max_lat));
  const double meters_per_deg_lon =
      kMetersPerDegLat * std::cos(ref_lat * 3.14159265358979 / 180.0);

  for (const double cell_m : {60.0, 250.0, 1000.0}) {
    const double cell_lat = cell_m / kMetersPerDegLat;
    const double cell_lon = cell_m / meters_per_deg_lon;
    // Every border probe must sit on one of the index's own cell borders,
    // so a change to how the index sizes its cells cannot detach them.
    const SpatialIndex index(&net, cell_m);
    const auto near_index_border = [](double x, double cell) {
      return std::abs(x - std::round(x / cell) * cell) <= 1e-6 + 1e-12;
    };
    Rng rng(static_cast<uint64_t>(cell_m));
    std::vector<roadnet::LatLon> probes;
    for (roadnet::EdgeId e = 0;
         e < static_cast<roadnet::EdgeId>(net.NumEdges()); e += 37) {
      probes.push_back(net.EdgeMidpoint(e));
    }
    // On a cell border in lat, lon or both (every third exactly on it).
    for (int i = 0; i < 48; ++i) {
      roadnet::LatLon p{rng.Uniform(min_lat, max_lat),
                        rng.Uniform(min_lon, max_lon)};
      const auto on_border = [&](double x, double cell) {
        const double jitter = i % 3 == 0 ? 0.0 : rng.Uniform(-1e-6, 1e-6);
        return std::round(x / cell) * cell + jitter;
      };
      if (i % 4 != 1) {
        p.lat = on_border(p.lat, cell_lat);
        EXPECT_TRUE(near_index_border(p.lat, index.cell_deg_lat())) << p.lat;
      }
      if (i % 4 != 0) {
        p.lon = on_border(p.lon, cell_lon);
        EXPECT_TRUE(near_index_border(p.lon, index.cell_deg_lon())) << p.lon;
      }
      probes.push_back(p);
    }
    // Outside the rectangle: up to 500 m past one side (the largest radius
    // still reaches the border edges from there), and ~1,000 km away.
    for (int i = 0; i < 32; ++i) {
      roadnet::LatLon p{rng.Uniform(min_lat, max_lat),
                        rng.Uniform(min_lon, max_lon)};
      const double out_lat = rng.Uniform(0.0, 500.0) / kMetersPerDegLat;
      const double out_lon = out_lat * kMetersPerDegLat / meters_per_deg_lon;
      if (i % 4 == 0) p.lat = max_lat + out_lat;
      if (i % 4 == 1) p.lat = min_lat - out_lat;
      if (i % 4 == 2) p.lon = max_lon + out_lon;
      if (i % 4 == 3) p.lon = min_lon - out_lon;
      probes.push_back(p);
    }
    probes.push_back({min_lat - 9.0, min_lon - 9.0});
    probes.push_back({max_lat + 9.0, max_lon + 9.0});
    ExpectMatchesBruteForce(net, cell_m, probes);
  }
}

// A network file is outside input too. Two clusters ~960 km apart would
// span thousands of 250 m cells, and a vertex at latitude 1e300 would put
// cell coordinates beyond any int, so the grid coarsens its cells; an edge
// with a non-finite vertex is at NaN distance from every fix and is never
// indexed. None of this may change a query's result.
TEST(SpatialIndexTest, FarApartClustersAndNonFiniteVerticesQueryExactly) {
  roadnet::RoadNetwork net;
  const auto a0 = net.AddVertex({30.0, 104.0});
  const auto a1 = net.AddVertex({30.0, 104.002});
  const auto a2 = net.AddVertex({30.001, 104.002});
  // Same latitude as the first cluster (WideLatitudeSpanQueriesExactly
  // covers clusters at different latitudes).
  const auto b0 = net.AddVertex({30.0, 114.0});
  const auto b1 = net.AddVertex({30.002, 114.0});
  const auto lost =
      net.AddVertex({std::numeric_limits<double>::quiet_NaN(), 104.001});
  const auto far = net.AddVertex({1e300, 104.0});
  net.AddEdge(a0, a1);
  net.AddEdge(a1, a2);
  net.AddEdge(b0, b1);
  net.AddEdge(a2, lost, 100.0);
  net.AddEdge(lost, a0, 100.0);
  net.AddEdge(a0, far, 100.0);
  net.Build();
  // Around each cluster, and halfway between them.
  std::vector<roadnet::LatLon> probes = {{30.0, 109.0}};
  for (const double lon : {104.0, 114.0}) {
    for (const double d : {-0.001, 0.0002, 0.0011, 0.0025}) {
      probes.push_back({30.0 + d, lon + d / 2.0});
    }
  }
  ExpectMatchesBruteForce(net, 250.0, probes);
}

// The index keeps one longitude scale for the whole grid. Taken at the
// first vertex (latitude 30), it overstated distances near the latitude-40
// edge by an eighth, past the query's slack: at radius 60 m these probes
// lost 10 of their 25 candidates, the nearest 55.4 m away.
TEST(SpatialIndexTest, WideLatitudeSpanQueriesExactly) {
  roadnet::RoadNetwork net;
  for (const double lat : {30.0, 40.0}) {
    const auto a = net.AddVertex({lat, 104.0});
    const auto b = net.AddVertex({lat + 0.002, 104.0});  // 222 m north
    net.AddEdge(a, b);
  }
  net.Build();
  std::vector<roadnet::LatLon> probes;
  for (const double lat : {40.0, 40.0005, 40.001, 40.0015, 40.002, 40.0025}) {
    for (int k = 0; k <= 8; ++k) {  // 0.0005-0.0009 degrees east
      probes.push_back({lat, 104.0005 + 0.00005 * k});
    }
  }
  ExpectMatchesBruteForce(net, 250.0, probes);
}

// Raw fixes are outside input. A fix with a non-finite coordinate, or one so
// far off that no cell within its radius holds an edge, has no candidates;
// the matcher drops it like any other unmatched fix. (A NaN latitude once
// sent INT_MIN into the cell-ring arithmetic: signed overflow.)
std::vector<roadnet::LatLon> UnmatchableFixes(const roadnet::LatLon& near) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<roadnet::LatLon> fixes = {{nan, nan}, {-1e300, -1e300}};
  for (const double bad : {nan, inf, -inf, 1e300}) {
    fixes.push_back({bad, near.lon});
    fixes.push_back({near.lat, bad});
  }
  return fixes;
}

TEST(SpatialIndexTest, NonFiniteAndFarFixesHaveNoCandidates) {
  const auto net = SmallGrid();
  HmmMapMatcher matcher(&net);
  for (const auto& p : UnmatchableFixes(net.EdgeMidpoint(10))) {
    EXPECT_TRUE(matcher.index().Query(p, 60.0).empty());
    StreamingMatcher stream(&matcher);
    stream.Reset(1);
    EXPECT_FALSE(stream.MatchPoint({p, 0.0}));
    EXPECT_EQ(stream.num_layers(), 0u);
  }
}

TEST(HmmMatcherTest, UnmatchableFixesAreDropped) {
  const auto net = SmallGrid();
  const auto ds = SmallDataset(net, 2);
  traj::GpsSampler sampler(&net, {});
  HmmMapMatcher matcher(&net);
  const auto bad = UnmatchableFixes(net.EdgeMidpoint(10));
  for (size_t k = 0; k < 6; ++k) {
    const auto clean = sampler.Sample(ds[k].traj);
    ASSERT_GE(clean.points.size(), 2u);
    // A bad fix before every clean one, the first of them earlier than any
    // clean fix, so start_time must still come from the first matched fix.
    traj::RawTrajectory dirty;
    dirty.id = clean.id;
    for (size_t i = 0; i < clean.points.size(); ++i) {
      const roadnet::LatLon& off = bad[(i + k) % bad.size()];
      dirty.points.push_back({off, clean.points[i].t - 0.5});
      dirty.points.push_back(clean.points[i]);
    }
    const auto want = matcher.Match(clean);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    const auto got = matcher.Match(dirty);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->edges, want->edges) << "trip " << k;
    EXPECT_EQ(got->start_time, want->start_time) << "trip " << k;

    StreamingMatcher stream(&matcher);
    stream.Reset(dirty.id);
    for (size_t i = 0; i < dirty.points.size(); ++i) {
      EXPECT_EQ(stream.MatchPoint(dirty.points[i]), i % 2 == 1)
          << "trip " << k << " fix " << i;
    }
    const auto streamed = stream.Finish();
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_EQ(streamed->edges, want->edges) << "trip " << k;
    EXPECT_EQ(streamed->start_time, want->start_time) << "trip " << k;
  }
}

// Two line subnetworks ~2.2 km apart with no connecting edge: the gap is
// unbridgeable. The seed matcher failed the whole trajectory with an
// Internal error; the contract now is graceful degradation into pieces.
roadnet::RoadNetwork MakeTwoIslands() {
  roadnet::RoadNetwork net;
  std::vector<roadnet::VertexId> a, b;
  for (int i = 0; i < 3; ++i) {
    a.push_back(net.AddVertex({30.0, 104.0 + 0.001 * i}));
    b.push_back(net.AddVertex({30.02, 104.0 + 0.001 * i}));
  }
  net.AddEdge(a[0], a[1]);  // edge 0
  net.AddEdge(a[1], a[2]);  // edge 1
  net.AddEdge(b[0], b[1]);  // edge 2
  net.AddEdge(b[1], b[2]);  // edge 3
  net.Build();
  return net;
}

traj::RawTrajectory TwoIslandsRaw(const roadnet::RoadNetwork& net) {
  traj::RawTrajectory raw;
  raw.id = 42;
  raw.points.push_back({net.EdgeMidpoint(0), 0.0});
  raw.points.push_back({net.EdgeMidpoint(1), 2.0});
  raw.points.push_back({net.EdgeMidpoint(2), 50.0});
  raw.points.push_back({net.EdgeMidpoint(3), 52.0});
  raw.points.push_back({net.EdgeMidpoint(3), 54.0});
  return raw;
}

TEST(GapHandlingTest, UnbridgeableGapDegradesToLargestPiece) {
  const auto net = MakeTwoIslands();
  HmmMapMatcher matcher(&net);
  const auto raw = TwoIslandsRaw(net);
  // Seed behavior: Status::Internal("could not stitch matched edges").
  auto matched = matcher.Match(raw);
  ASSERT_TRUE(matched.ok()) << matched.status().ToString();
  // The second island spans 3 of the 5 fixes, so it is the piece returned.
  EXPECT_EQ(matched->edges, (std::vector<traj::EdgeId>{2, 3}));
  EXPECT_DOUBLE_EQ(matched->start_time, 50.0);
}

TEST(GapHandlingTest, MatchSegmentsReturnsAllPiecesInTimeOrder) {
  const auto net = MakeTwoIslands();
  HmmMapMatcher matcher(&net);
  const auto raw = TwoIslandsRaw(net);
  auto pieces = matcher.MatchSegments(raw);
  ASSERT_TRUE(pieces.ok()) << pieces.status().ToString();
  ASSERT_EQ(pieces->size(), 2u);
  EXPECT_EQ((*pieces)[0].edges, (std::vector<traj::EdgeId>{0, 1}));
  EXPECT_DOUBLE_EQ((*pieces)[0].start_time, 0.0);
  EXPECT_EQ((*pieces)[1].edges, (std::vector<traj::EdgeId>{2, 3}));
  EXPECT_DOUBLE_EQ((*pieces)[1].start_time, 50.0);
}

// Pinned restart semantics (segmented Viterbi): where a gap has no bridge,
// matching the trajectory piecewise equals matching each side independently.
TEST(GapHandlingTest, SplitPiecesEqualIndependentMatches) {
  const auto net = MakeTwoIslands();
  HmmMapMatcher matcher(&net);
  const auto raw = TwoIslandsRaw(net);
  auto pieces = matcher.MatchSegments(raw);
  ASSERT_TRUE(pieces.ok());
  ASSERT_EQ(pieces->size(), 2u);

  traj::RawTrajectory pre, post;
  pre.id = post.id = raw.id;
  pre.points.assign(raw.points.begin(), raw.points.begin() + 2);
  post.points.assign(raw.points.begin() + 2, raw.points.end());
  auto m_pre = matcher.Match(pre);
  auto m_post = matcher.Match(post);
  ASSERT_TRUE(m_pre.ok() && m_post.ok());
  EXPECT_EQ((*pieces)[0].edges, m_pre->edges);
  EXPECT_EQ((*pieces)[0].start_time, m_pre->start_time);
  EXPECT_EQ((*pieces)[1].edges, m_post->edges);
  EXPECT_EQ((*pieces)[1].start_time, m_post->start_time);
}

// A divided one-way loop: two parallel carriageways ~89 m apart joined at
// the ends. Hopping from the eastbound to the westbound side is a GPS gap
// (network distance ~665 m exceeds the detour bound ~445 m) but a
// connecting path exists, so the matcher stitches one connected route.
roadnet::RoadNetwork MakeDividedLoop() {
  roadnet::RoadNetwork net;
  const auto p0 = net.AddVertex({30.0, 104.000});
  const auto p1 = net.AddVertex({30.0, 104.002});
  const auto p2 = net.AddVertex({30.0, 104.004});
  const auto q0 = net.AddVertex({30.0008, 104.004});
  const auto q1 = net.AddVertex({30.0008, 104.002});
  const auto q2 = net.AddVertex({30.0008, 104.000});
  net.AddEdge(p0, p1);  // 0: eastbound
  net.AddEdge(p1, p2);  // 1
  net.AddEdge(p2, q0);  // 2: crossover
  net.AddEdge(q0, q1);  // 3: westbound
  net.AddEdge(q1, q2);  // 4
  net.AddEdge(q2, p0);  // 5: crossover back
  net.Build();
  return net;
}

TEST(GapHandlingTest, BridgeableGapIsStitched) {
  const auto net = MakeDividedLoop();
  traj::RawTrajectory raw;
  raw.id = 9;
  raw.points.push_back({net.EdgeMidpoint(0), 0.0});
  raw.points.push_back({net.EdgeMidpoint(0), 2.0});
  raw.points.push_back({net.EdgeMidpoint(4), 10.0});

  HmmMapMatcher matcher(&net);
  auto stitched = matcher.Match(raw);
  ASSERT_TRUE(stitched.ok()) << stitched.status().ToString();
  EXPECT_EQ(stitched->edges, (std::vector<traj::EdgeId>{0, 1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(stitched->start_time, 0.0);
  auto pieces = matcher.MatchSegments(raw);
  ASSERT_TRUE(pieces.ok());
  ASSERT_EQ(pieces->size(), 1u);
  EXPECT_EQ((*pieces)[0].edges, stitched->edges);
}

}  // namespace
}  // namespace rl4oasd::mapmatch
