#include "roadnet/shortest_path.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>

namespace rl4oasd::roadnet {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct QueueEntry {
  double cost;
  int32_t node;
  bool operator>(const QueueEntry& other) const { return cost > other.cost; }
};

using MinQueue =
    std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>;

double WeightOf(const RoadNetwork& net, const EdgeWeightFn& weight, EdgeId e) {
  return weight ? weight(e) : net.edge(e).length_m;
}

}  // namespace

std::vector<EdgeId> ShortestPath(const RoadNetwork& net, VertexId src,
                                 VertexId dst, const EdgeWeightFn& weight) {
  const size_t n = net.NumVertices();
  std::vector<double> dist(n, kInf);
  std::vector<EdgeId> parent_edge(n, kInvalidEdge);
  MinQueue pq;
  dist[src] = 0.0;
  pq.push({0.0, src});
  while (!pq.empty()) {
    auto [cost, v] = pq.top();
    pq.pop();
    if (cost > dist[v]) continue;
    if (v == dst) break;
    for (EdgeId e : net.OutEdges(v)) {
      const double w = WeightOf(net, weight, e);
      const VertexId u = net.edge(e).to;
      if (cost + w < dist[u]) {
        dist[u] = cost + w;
        parent_edge[u] = e;
        pq.push({dist[u], u});
      }
    }
  }
  if (dist[dst] == kInf) return {};
  std::vector<EdgeId> path;
  VertexId v = dst;
  while (v != src) {
    const EdgeId e = parent_edge[v];
    if (e == kInvalidEdge) return {};
    path.push_back(e);
    v = net.edge(e).from;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<EdgeId> ShortestPathBetweenEdges(const RoadNetwork& net,
                                             EdgeId src_edge, EdgeId dst_edge,
                                             const EdgeWeightFn& weight) {
  // Dijkstra over the edge graph: a node is an edge; moving to a successor
  // edge costs that successor's weight. The source edge's own weight anchors
  // the start cost so route comparisons remain consistent.
  const size_t n = net.NumEdges();
  std::vector<double> dist(n, kInf);
  std::vector<EdgeId> parent(n, kInvalidEdge);
  MinQueue pq;
  dist[src_edge] = WeightOf(net, weight, src_edge);
  pq.push({dist[src_edge], src_edge});
  while (!pq.empty()) {
    auto [cost, e] = pq.top();
    pq.pop();
    if (cost > dist[e]) continue;
    if (e == dst_edge) break;
    for (EdgeId next : net.NextEdges(e)) {
      const double w = WeightOf(net, weight, next);
      if (cost + w < dist[next]) {
        dist[next] = cost + w;
        parent[next] = e;
        pq.push({dist[next], next});
      }
    }
  }
  if (dist[dst_edge] == kInf) return {};
  std::vector<EdgeId> path;
  EdgeId e = dst_edge;
  while (e != kInvalidEdge) {
    path.push_back(e);
    if (e == src_edge) break;
    e = parent[e];
  }
  if (path.back() != src_edge) return {};
  std::reverse(path.begin(), path.end());
  return path;
}

double NetworkDistanceMeters(const RoadNetwork& net, EdgeId src_edge,
                             EdgeId dst_edge) {
  if (src_edge == dst_edge) return 0.0;
  auto path = ShortestPathBetweenEdges(net, src_edge, dst_edge);
  if (path.empty()) return -1.0;
  // Distance travelled after finishing src_edge up to finishing dst_edge.
  double d = 0.0;
  for (size_t i = 1; i < path.size(); ++i) d += net.edge(path[i]).length_m;
  return d;
}

void EdgeDijkstra::Attach(const RoadNetwork* net) {
  if (net_ == net) return;
  net_ = net;
  const size_t n = net == nullptr ? 0 : net->NumEdges();
  dist_.assign(n, 0.0);
  reached_epoch_.assign(n, 0);
  finished_epoch_.assign(n, 0);
  target_epoch_.assign(n, 0);
  run_epoch_ = 0;
  target_gen_ = 0;
  num_targets_ = 0;
}

void EdgeDijkstra::BumpRunEpoch() {
  // The run epoch doubles as the "reached"/"finished" stamp; on the (in
  // practice unreachable) wrap, clear the stamps so a stale epoch from 4
  // billion runs ago cannot alias a live one.
  if (run_epoch_ == std::numeric_limits<uint32_t>::max()) {
    std::fill(reached_epoch_.begin(), reached_epoch_.end(), 0u);
    std::fill(finished_epoch_.begin(), finished_epoch_.end(), 0u);
    run_epoch_ = 0;
  }
  ++run_epoch_;
}

void EdgeDijkstra::SetTargets(const EdgeId* targets, size_t count) {
  if (target_gen_ == std::numeric_limits<uint32_t>::max()) {
    std::fill(target_epoch_.begin(), target_epoch_.end(), 0u);
    target_gen_ = 0;
  }
  ++target_gen_;
  num_targets_ = count;
  for (size_t i = 0; i < count; ++i) {
    target_epoch_[static_cast<size_t>(targets[i])] = target_gen_;
  }
}

void EdgeDijkstra::Run(EdgeId src, double max_dist_m) {
  BumpRunEpoch();
  heap_.clear();
  settled_.clear();
  const auto cmp = [](const std::pair<double, EdgeId>& a,
                      const std::pair<double, EdgeId>& b) {
    return a.first > b.first;  // min-heap on distance
  };
  size_t targets_left = num_targets_;
  const size_t s = static_cast<size_t>(src);
  dist_[s] = 0.0;
  reached_epoch_[s] = run_epoch_;
  heap_.emplace_back(0.0, src);
  while (!heap_.empty()) {
    const auto [d, e] = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), cmp);
    heap_.pop_back();
    const size_t ei = static_cast<size_t>(e);
    if (d > dist_[ei]) continue;  // lazy deletion of a superseded entry
    if (finished_epoch_[ei] != run_epoch_) {
      finished_epoch_[ei] = run_epoch_;
      settled_.push_back(e);
      if (targets_left > 0 && target_epoch_[ei] == target_gen_ &&
          --targets_left == 0) {
        return;  // every declared target settled — its distance is final
      }
    }
    for (EdgeId next : net_->NextEdges(e)) {
      const double nd = d + net_->edge(next).length_m;
      if (nd > max_dist_m) continue;
      const size_t ni = static_cast<size_t>(next);
      if (reached_epoch_[ni] == run_epoch_ && dist_[ni] <= nd) continue;
      dist_[ni] = nd;
      reached_epoch_[ni] = run_epoch_;
      heap_.emplace_back(nd, next);
      std::push_heap(heap_.begin(), heap_.end(), cmp);
    }
  }
}

void EdgeDistanceTable::Build(const RoadNetwork& net, double bound_m) {
  bound_m_ = bound_m;
  const size_t n = net.NumEdges();
  offsets_.assign(n + 1, 0);
  dst_.clear();
  dist_.clear();
  // Reuses EdgeDijkstra rather than a private search so a table entry is the
  // product of the exact same relaxation sequence as a live query — the
  // bit-equality contract between the two lookup paths is structural, not a
  // numerical coincidence.
  EdgeDijkstra search(&net);
  std::vector<EdgeId> row;
  for (EdgeId src = 0; src < static_cast<EdgeId>(n); ++src) {
    offsets_[static_cast<size_t>(src)] = dst_.size();
    search.Run(src, bound_m);
    row = search.settled();
    std::sort(row.begin(), row.end());
    for (EdgeId e : row) {
      dst_.push_back(e);
      dist_.push_back(search.DistanceTo(e));
    }
  }
  offsets_[n] = dst_.size();
}

std::vector<std::vector<EdgeId>> AlternativeRoutes(const RoadNetwork& net,
                                                   EdgeId src_edge,
                                                   EdgeId dst_edge, int k,
                                                   double penalty) {
  std::vector<std::vector<EdgeId>> routes;
  std::set<std::vector<EdgeId>> seen;
  std::vector<double> factor(net.NumEdges(), 1.0);
  auto weight = [&](EdgeId e) { return net.edge(e).length_m * factor[e]; };
  for (int i = 0; i < k * 3 && static_cast<int>(routes.size()) < k; ++i) {
    auto path = ShortestPathBetweenEdges(net, src_edge, dst_edge, weight);
    if (path.empty()) break;
    if (seen.insert(path).second) {
      routes.push_back(path);
    }
    for (EdgeId e : path) factor[e] *= penalty;
  }
  return routes;
}

}  // namespace rl4oasd::roadnet
