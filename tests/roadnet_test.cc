// Road-network substrate tests: graph queries, geometry, shortest paths,
// alternative routes, grid-city properties, and CSV persistence.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>

#include "roadnet/geometry.h"
#include "roadnet/grid_city.h"
#include "roadnet/road_network.h"
#include "roadnet/shortest_path.h"

namespace rl4oasd::roadnet {
namespace {

RoadNetwork MakeDiamond() {
  // v0 -> v1 -> v3 and v0 -> v2 -> v3 with a long bottom path.
  RoadNetwork net;
  const VertexId v0 = net.AddVertex({30.000, 104.000});
  const VertexId v1 = net.AddVertex({30.001, 104.001});
  const VertexId v2 = net.AddVertex({29.999, 104.001});
  const VertexId v3 = net.AddVertex({30.000, 104.002});
  net.AddEdge(v0, v1);          // e0
  net.AddEdge(v1, v3);          // e1
  net.AddEdge(v0, v2, 500.0);   // e2 (made long explicitly)
  net.AddEdge(v2, v3, 500.0);   // e3
  net.Build();
  return net;
}

TEST(GeometryTest, HaversineKnownDistance) {
  // One degree of latitude is ~111.2 km.
  const LatLon a{30.0, 104.0};
  const LatLon b{31.0, 104.0};
  EXPECT_NEAR(HaversineMeters(a, b), 111200.0, 500.0);
  EXPECT_NEAR(HaversineMeters(a, a), 0.0, 1e-6);
}

TEST(GeometryTest, ApproxMatchesHaversineAtCityScale) {
  const LatLon a{30.60, 104.00};
  const LatLon b{30.62, 104.03};
  const double h = HaversineMeters(a, b);
  const double e = ApproxDistanceMeters(a, b);
  EXPECT_NEAR(e / h, 1.0, 0.01);
}

TEST(GeometryTest, ProjectionOntoSegment) {
  const LatLon a{30.0, 104.0};
  const LatLon b{30.0, 104.01};
  LatLon closest;
  // Point above the midpoint projects to the midpoint.
  const LatLon p{30.001, 104.005};
  const double t = ProjectOntoSegment(p, a, b, &closest);
  EXPECT_NEAR(t, 0.5, 0.01);
  EXPECT_NEAR(closest.lat, 30.0, 1e-9);
  // Point beyond the end clamps to t = 1.
  const LatLon q{30.0, 104.02};
  EXPECT_DOUBLE_EQ(ProjectOntoSegment(q, a, b, &closest), 1.0);
}

TEST(GeometryTest, PointToSegmentDistance) {
  const LatLon a{30.0, 104.0};
  const LatLon b{30.0, 104.01};
  const LatLon p{30.001, 104.005};  // ~111 m north of the segment
  EXPECT_NEAR(PointToSegmentMeters(p, a, b), 111.2, 2.0);
}

TEST(RoadNetworkTest, DegreesAndAdjacency) {
  const RoadNetwork net = MakeDiamond();
  EXPECT_EQ(net.NumVertices(), 4u);
  EXPECT_EQ(net.NumEdges(), 4u);
  // e0 = v0->v1: successor is e1 only.
  EXPECT_EQ(net.EdgeOutDegree(0), 1);
  EXPECT_EQ(net.NextEdges(0), (std::vector<EdgeId>{1}));
  // e0's start vertex has in-degree 0.
  EXPECT_EQ(net.EdgeInDegree(0), 0);
  // e1 = v1->v3: e3 also enters v3.
  EXPECT_TRUE(net.AreConsecutive(0, 1));
  EXPECT_FALSE(net.AreConsecutive(0, 3));
  EXPECT_EQ(net.PrevEdges(1), (std::vector<EdgeId>{0}));
}

TEST(RoadNetworkTest, PathHelpers) {
  const RoadNetwork net = MakeDiamond();
  EXPECT_TRUE(net.IsConnectedPath({0, 1}));
  EXPECT_FALSE(net.IsConnectedPath({0, 3}));
  EXPECT_TRUE(net.IsConnectedPath({}));
  EXPECT_GT(net.PathLengthMeters({0, 1}), 0.0);
  EXPECT_DOUBLE_EQ(net.PathLengthMeters({2, 3}), 1000.0);
}

TEST(RoadNetworkTest, EdgeLengthFromGeometry) {
  const RoadNetwork net = MakeDiamond();
  // e0 connects points ~140 m apart.
  const double d = HaversineMeters({30.000, 104.000}, {30.001, 104.001});
  EXPECT_NEAR(net.edge(0).length_m, d, 1e-6);
}

TEST(ShortestPathTest, PrefersShortRoute) {
  const RoadNetwork net = MakeDiamond();
  const auto path = ShortestPath(net, 0, 3);
  EXPECT_EQ(path, (std::vector<EdgeId>{0, 1}));
}

TEST(ShortestPathTest, RespectsCustomWeights) {
  const RoadNetwork net = MakeDiamond();
  // Penalize the top path heavily.
  auto weight = [&](EdgeId e) {
    return (e == 0 || e == 1) ? 1e6 : net.edge(e).length_m;
  };
  const auto path = ShortestPath(net, 0, 3, weight);
  EXPECT_EQ(path, (std::vector<EdgeId>{2, 3}));
}

TEST(ShortestPathTest, UnreachableReturnsEmpty) {
  RoadNetwork net;
  const VertexId v0 = net.AddVertex({30, 104});
  const VertexId v1 = net.AddVertex({30.001, 104});
  const VertexId v2 = net.AddVertex({30.002, 104});
  net.AddEdge(v0, v1);
  net.Build();
  EXPECT_TRUE(ShortestPath(net, 0, 2).empty());
  (void)v2;
}

TEST(ShortestPathTest, BetweenEdgesInclusive) {
  const RoadNetwork net = MakeDiamond();
  const auto path = ShortestPathBetweenEdges(net, 0, 1);
  EXPECT_EQ(path, (std::vector<EdgeId>{0, 1}));
  // Same edge: single-element path.
  const auto self = ShortestPathBetweenEdges(net, 0, 0);
  EXPECT_EQ(self, (std::vector<EdgeId>{0}));
}

TEST(ShortestPathTest, NetworkDistance) {
  const RoadNetwork net = MakeDiamond();
  EXPECT_DOUBLE_EQ(NetworkDistanceMeters(net, 0, 0), 0.0);
  EXPECT_NEAR(NetworkDistanceMeters(net, 0, 1), net.edge(1).length_m, 1e-9);
  // Unreachable: e1 cannot reach e0.
  EXPECT_LT(NetworkDistanceMeters(net, 1, 0), 0.0);
}

TEST(EdgeDijkstraTest, MatchesNetworkDistance) {
  GridCityConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  const RoadNetwork net = BuildGridCity(cfg);
  EdgeDijkstra search(&net);
  const double bound = 1500.0;
  for (EdgeId src = 0; src < static_cast<EdgeId>(net.NumEdges()); src += 29) {
    search.Run(src, bound);
    for (EdgeId dst = 0; dst < static_cast<EdgeId>(net.NumEdges());
         dst += 17) {
      const double d = search.DistanceTo(dst);
      const double want = NetworkDistanceMeters(net, src, dst);
      if (want >= 0.0 && want <= bound) {
        EXPECT_DOUBLE_EQ(d, want) << src << "->" << dst;
      } else {
        EXPECT_LT(d, 0.0) << src << "->" << dst;
      }
    }
  }
}

TEST(EdgeDistanceTableTest, BitIdenticalToLiveSearch) {
  GridCityConfig cfg;
  cfg.rows = 7;
  cfg.cols = 7;
  const RoadNetwork net = BuildGridCity(cfg);
  // A 1 m bound leaves one entry per row (the source itself), so the row
  // search also runs at its shortest length.
  for (const double bound : {1.0, 900.0}) {
    EdgeDistanceTable table;
    table.Build(net, bound);
    ASSERT_TRUE(table.built());
    EXPECT_DOUBLE_EQ(table.bound_m(), bound);
    EdgeDijkstra search(&net);
    size_t settled_total = 0;
    for (EdgeId src = 0; src < static_cast<EdgeId>(net.NumEdges()); ++src) {
      search.Run(src, bound);
      size_t reached = 0;
      for (EdgeId dst = 0; dst < static_cast<EdgeId>(net.NumEdges()); ++dst) {
        const double live = search.DistanceTo(dst);
        const double tab = table.DistanceTo(src, dst);
        if (live >= 0.0) {
          // Exactly the live search's settled distance — no tolerance.
          EXPECT_EQ(tab, live) << src << "->" << dst;
          ++reached;
        } else {
          EXPECT_LT(tab, 0.0) << src << "->" << dst;
        }
      }
      EXPECT_EQ(table.DistanceTo(src, src), 0.0);
      // The settled list is exactly the reached set, source first.
      ASSERT_EQ(search.settled().size(), reached) << src;
      EXPECT_EQ(search.settled().front(), src);
      settled_total += search.settled().size();
    }
    // One entry per settled edge of every source's search: no duplicates,
    // nothing beyond the bound.
    EXPECT_EQ(table.NumEntries(), settled_total);
    if (bound > 1.0) {
      EXPECT_GT(table.NumEntries(), net.NumEdges());  // beyond the diagonal
    } else {
      EXPECT_EQ(table.NumEntries(), net.NumEdges());
    }
  }
}

TEST(AlternativeRoutesTest, FindsDistinctRoutes) {
  const RoadNetwork net = MakeDiamond();
  const auto routes = AlternativeRoutes(net, 0, 1, 2);
  // Only one route exists between e0 and e1 in the diamond.
  ASSERT_GE(routes.size(), 1u);
  EXPECT_EQ(routes[0], (std::vector<EdgeId>{0, 1}));
}

TEST(AlternativeRoutesTest, GridProducesMultipleRoutes) {
  GridCityConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  cfg.removal_prob = 0.0;
  const RoadNetwork net = BuildGridCity(cfg);
  // Pick two far-apart edges.
  const EdgeId src = 0;
  const EdgeId dst = static_cast<EdgeId>(net.NumEdges() - 1);
  const auto routes = AlternativeRoutes(net, src, dst, 3);
  ASSERT_GE(routes.size(), 2u);
  std::set<std::vector<EdgeId>> distinct(routes.begin(), routes.end());
  EXPECT_EQ(distinct.size(), routes.size());
  for (const auto& r : routes) {
    EXPECT_TRUE(net.IsConnectedPath(r));
    EXPECT_EQ(r.front(), src);
    EXPECT_EQ(r.back(), dst);
  }
  // The first route is the true shortest.
  for (size_t k = 1; k < routes.size(); ++k) {
    EXPECT_LE(net.PathLengthMeters(routes[0]),
              net.PathLengthMeters(routes[k]) + 1e-9);
  }
}

TEST(GridCityTest, SizeMatchesPaperScale) {
  const RoadNetwork net = BuildGridCity(GridCityConfig{});
  // Paper: 4,885 (Chengdu) / 5,052 (Xi'an) segments.
  EXPECT_GT(net.NumEdges(), 4000u);
  EXPECT_LT(net.NumEdges(), 6000u);
  EXPECT_EQ(net.NumVertices(), 36u * 36u);
}

TEST(GridCityTest, Deterministic) {
  GridCityConfig cfg;
  cfg.rows = 6;
  cfg.cols = 6;
  const RoadNetwork a = BuildGridCity(cfg);
  const RoadNetwork b = BuildGridCity(cfg);
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (EdgeId e = 0; e < static_cast<EdgeId>(a.NumEdges()); ++e) {
    EXPECT_EQ(a.edge(e).from, b.edge(e).from);
    EXPECT_EQ(a.edge(e).to, b.edge(e).to);
    EXPECT_DOUBLE_EQ(a.edge(e).length_m, b.edge(e).length_m);
  }
}

TEST(GridCityTest, ArterialsFasterThanLocals) {
  const RoadNetwork net = BuildGridCity(GridCityConfig{});
  double arterial_speed = 0.0, local_speed = 1e9;
  for (EdgeId e = 0; e < static_cast<EdgeId>(net.NumEdges()); ++e) {
    const auto& edge = net.edge(e);
    if (edge.road_class == RoadClass::kArterial) {
      arterial_speed = std::max(arterial_speed, edge.speed_limit_mps);
    } else if (edge.road_class == RoadClass::kLocal) {
      local_speed = std::min(local_speed, edge.speed_limit_mps);
    }
  }
  EXPECT_GT(arterial_speed, local_speed);
}

TEST(GridCityTest, BidirectionalEdges) {
  GridCityConfig cfg;
  cfg.rows = 5;
  cfg.cols = 5;
  cfg.removal_prob = 0.0;
  const RoadNetwork net = BuildGridCity(cfg);
  // Every edge has a reverse twin.
  for (EdgeId e = 0; e < static_cast<EdgeId>(net.NumEdges()); ++e) {
    bool found = false;
    for (EdgeId r : net.OutEdges(net.edge(e).to)) {
      if (net.edge(r).to == net.edge(e).from) found = true;
    }
    EXPECT_TRUE(found) << "edge " << e << " has no reverse";
  }
}

TEST(RoadNetworkIoTest, CsvRoundTrip) {
  GridCityConfig cfg;
  cfg.rows = 4;
  cfg.cols = 4;
  const RoadNetwork net = BuildGridCity(cfg);
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "rl4oasd_net_test").string();
  ASSERT_TRUE(net.SaveCsv(prefix).ok());
  auto loaded = RoadNetwork::LoadCsv(prefix);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->NumVertices(), net.NumVertices());
  ASSERT_EQ(loaded->NumEdges(), net.NumEdges());
  for (EdgeId e = 0; e < static_cast<EdgeId>(net.NumEdges()); ++e) {
    EXPECT_EQ(loaded->edge(e).from, net.edge(e).from);
    EXPECT_EQ(loaded->edge(e).to, net.edge(e).to);
    EXPECT_NEAR(loaded->edge(e).length_m, net.edge(e).length_m, 0.01);
    EXPECT_EQ(loaded->edge(e).road_class, net.edge(e).road_class);
  }
  std::remove((prefix + ".vertices.csv").c_str());
  std::remove((prefix + ".edges.csv").c_str());
}

TEST(RoadNetworkIoTest, LoadMissingFileFails) {
  auto r = RoadNetwork::LoadCsv("/nonexistent/prefix");
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace rl4oasd::roadnet
