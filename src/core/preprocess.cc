#include "core/preprocess.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace rl4oasd::core {

Preprocessor::Preprocessor(PreprocessConfig config) : config_(config) {
  RL4_CHECK_GT(config_.time_slot_hours, 0);
}

std::string Preprocessor::RouteKey(const std::vector<traj::EdgeId>& edges) {
  // Compact binary key: 4 bytes per edge id.
  std::string key;
  key.resize(edges.size() * sizeof(traj::EdgeId));
  std::memcpy(key.data(), edges.data(), key.size());
  return key;
}

namespace {

// Orders a table's (key, count) entries by key.
constexpr auto kByKey = [](const auto& a, const auto& b) {
  return a.first < b.first;
};
// Compares an entry with a bare key, for lower_bound.
constexpr auto kKeyBelow = [](const auto& entry, const auto& key) {
  return entry.first < key;
};

/// The count stored under `key` in a key-sorted table, or null.
template <typename K>
const int64_t* FindCount(const std::vector<std::pair<K, int64_t>>& table,
                         const K& key) {
  auto it = std::lower_bound(table.begin(), table.end(), key, kKeyBelow);
  return it != table.end() && it->first == key ? &it->second : nullptr;
}

/// Adds 1 to `key`'s count, inserting it at its sorted position; searches
/// from `from` (keys arrive ascending) and returns the position after it.
template <typename K>
auto CountUp(std::vector<std::pair<K, int64_t>>* table,
             typename std::vector<std::pair<K, int64_t>>::iterator from,
             const K& key) {
  auto it = std::lower_bound(from, table->end(), key, kKeyBelow);
  if (it != table->end() && it->first == key) {
    ++it->second;
  } else {
    it = table->insert(it, {key, 1});
  }
  return it + 1;
}

/// Sorts by key and keeps the first entry of a repeated key, as a hash
/// map's insert did. Fit's tables and ExportState's snapshots are already
/// strictly ascending, so this only checks them; a bundle file is outside
/// input.
template <typename K>
void SortUniqueByKey(std::vector<std::pair<K, int64_t>>* table) {
  if (!std::is_sorted(table->begin(), table->end(), kByKey)) {
    std::stable_sort(table->begin(), table->end(), kByKey);
  }
  auto same_key = [](const auto& a, const auto& b) {
    return a.first == b.first;
  };
  table->erase(std::unique(table->begin(), table->end(), same_key),
               table->end());
}

template <typename T>
void Append(std::vector<T>* dst, const std::vector<T>& src) {
  dst->insert(dst->end(), src.begin(), src.end());
}

template <typename T>
void SortUnique(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
  v->shrink_to_fit();
}

}  // namespace

void Preprocessor::IngestInto(GroupStats* g,
                              const std::vector<int64_t>& transitions,
                              const std::string& route) {
  g->num_trajs += 1;
  auto it = g->transition_count.begin();
  for (const int64_t key : transitions) {
    it = CountUp(&g->transition_count, it, key);
  }
  CountUp(&g->route_count, g->route_count.begin(), route);
}

void Preprocessor::RebuildNormalSet(GroupStats* g, bool slot_group) const {
  g->normal_transitions.clear();
  g->normal_edges.clear();
  // FindGroup answers a sparse slot group's queries from its SD pair's
  // aggregate, so nothing ever reads that group's sets.
  if (slot_group && g->num_trajs < config_.min_slot_support) return;
  for (const auto& [route_key, count] : g->route_count) {
    const double fraction =
        static_cast<double>(count) / static_cast<double>(g->num_trajs);
    if (fraction <= config_.delta) continue;
    const size_t n = route_key.size() / sizeof(traj::EdgeId);
    const auto* edges =
        reinterpret_cast<const traj::EdgeId*>(route_key.data());
    for (size_t i = 0; i < n; ++i) {
      g->normal_edges.push_back(edges[i]);
      if (i > 0) {
        g->normal_transitions.push_back(TransitionKey(edges[i - 1], edges[i]));
      }
    }
  }
  SortUnique(&g->normal_transitions);
  SortUnique(&g->normal_edges);
}

void Preprocessor::FinishGroups() {
  auto finish = [this](GroupStats* g, bool slot_group) {
    SortUniqueByKey(&g->transition_count);
    SortUniqueByKey(&g->route_count);
    g->transition_count.shrink_to_fit();
    g->route_count.shrink_to_fit();
    RebuildNormalSet(g, slot_group);
  };
  for (auto& [key, g] : groups_) finish(&g, /*slot_group=*/true);
  for (auto& [sd, g] : all_slots_) finish(&g, /*slot_group=*/false);
}

bool Preprocessor::EdgeOnNormalRouteAt(const traj::SdPair& sd,
                                       double start_time,
                                       traj::EdgeId edge) const {
  const GroupStats* g = FindGroup(sd, start_time);
  if (g == nullptr || g->num_trajs == 0) return false;
  const auto& normal = g->normal_edges;
  return std::binary_search(normal.begin(), normal.end(), edge);
}

void Preprocessor::Fit(const traj::Dataset& historical) {
  ++stats_generation_;
  groups_.clear();
  all_slots_.clear();
  for (const auto& lt : historical.trajs()) {
    (void)Ingest(lt.traj);
  }
  FinishGroups();
}

void Preprocessor::Update(const traj::MapMatchedTrajectory& t) {
  const auto [slot_group, aggregate] = Ingest(t);
  if (slot_group == nullptr) return;
  RebuildNormalSet(slot_group, /*slot_group=*/true);
  RebuildNormalSet(aggregate, /*slot_group=*/false);
}

std::pair<GroupStats*, GroupStats*> Preprocessor::Ingest(
    const traj::MapMatchedTrajectory& t) {
  if (t.edges.size() < 2) return {nullptr, nullptr};
  ++stats_generation_;
  const GroupKey key{t.sd(),
                     traj::TimeSlotOf(t.start_time, config_.time_slot_hours)};
  GroupStats* slot_group = &groups_[key];
  GroupStats* aggregate = &all_slots_[t.sd()];
  // A trajectory contributes each distinct transition once (the fraction is
  // "how many trajectories of the group travel this transition").
  std::vector<int64_t> transitions;
  transitions.reserve(t.edges.size() - 1);
  for (size_t i = 1; i < t.edges.size(); ++i) {
    transitions.push_back(TransitionKey(t.edges[i - 1], t.edges[i]));
  }
  std::sort(transitions.begin(), transitions.end());
  transitions.erase(std::unique(transitions.begin(), transitions.end()),
                    transitions.end());
  const std::string route = RouteKey(t.edges);
  IngestInto(slot_group, transitions, route);
  IngestInto(aggregate, transitions, route);
  return {slot_group, aggregate};
}

const GroupStats* Preprocessor::FindGroup(const traj::SdPair& sd,
                                          double start_time) const {
  const GroupKey key{sd,
                     traj::TimeSlotOf(start_time, config_.time_slot_hours)};
  auto it = groups_.find(key);
  if (it != groups_.end() &&
      it->second.num_trajs >= config_.min_slot_support) {
    return &it->second;
  }
  auto it2 = all_slots_.find(sd);
  if (it2 != all_slots_.end()) return &it2->second;
  return nullptr;
}

std::vector<double> Preprocessor::TransitionFractions(
    const traj::MapMatchedTrajectory& t) const {
  std::vector<double> fractions(t.edges.size(), 0.0);
  if (t.edges.empty()) return fractions;
  // Source and destination are always traveled within their group.
  fractions.front() = 1.0;
  fractions.back() = 1.0;
  const GroupStats* g = FindGroup(t.sd(), t.start_time);
  for (size_t i = 1; i + 1 < t.edges.size(); ++i) {
    if (g == nullptr || g->num_trajs == 0) continue;
    const int64_t key = TransitionKey(t.edges[i - 1], t.edges[i]);
    const int64_t* count = FindCount(g->transition_count, key);
    if (count != nullptr) {
      fractions[i] = static_cast<double>(*count) /
                     static_cast<double>(g->num_trajs);
    }
  }
  return fractions;
}

std::vector<uint8_t> Preprocessor::NoisyLabels(
    const traj::MapMatchedTrajectory& t) const {
  const auto fractions = TransitionFractions(t);
  std::vector<uint8_t> labels(fractions.size(), 0);
  for (size_t i = 0; i < fractions.size(); ++i) {
    labels[i] = fractions[i] > config_.alpha ? 0 : 1;
  }
  if (!labels.empty()) {
    labels.front() = 0;
    labels.back() = 0;
  }
  return labels;
}

std::vector<uint8_t> Preprocessor::NormalRouteFeatures(
    const traj::MapMatchedTrajectory& t) const {
  std::vector<uint8_t> nrf(t.edges.size(), 1);
  if (t.edges.empty()) return nrf;
  nrf.front() = 0;
  nrf.back() = 0;
  for (size_t i = 1; i + 1 < t.edges.size(); ++i) {
    nrf[i] = NormalRouteFeatureAt(t.sd(), t.start_time, t.edges[i - 1],
                                  t.edges[i]);
  }
  return nrf;
}

double Preprocessor::TransitionFractionAt(const traj::SdPair& sd,
                                          double start_time,
                                          traj::EdgeId prev,
                                          traj::EdgeId cur) const {
  const GroupStats* g = FindGroup(sd, start_time);
  if (g == nullptr || g->num_trajs == 0) return 0.0;
  const int64_t key = TransitionKey(prev, cur);
  const int64_t* count = FindCount(g->transition_count, key);
  if (count == nullptr) return 0.0;
  return static_cast<double>(*count) / static_cast<double>(g->num_trajs);
}

uint8_t Preprocessor::NormalRouteFeatureAt(const traj::SdPair& sd,
                                           double start_time,
                                           traj::EdgeId prev,
                                           traj::EdgeId cur) const {
  const GroupStats* g = FindGroup(sd, start_time);
  if (g == nullptr || g->num_trajs == 0) return 1;
  const auto& normal = g->normal_transitions;
  const int64_t key = TransitionKey(prev, cur);
  return std::binary_search(normal.begin(), normal.end(), key) ? 0 : 1;
}

std::vector<GroupSnapshot> Preprocessor::ExportState() const {
  std::vector<GroupSnapshot> out;
  out.reserve(groups_.size() + all_slots_.size());
  auto snapshot_of = [](const traj::SdPair& sd, int slot,
                        const GroupStats& g) {
    GroupSnapshot s;
    s.sd = sd;
    s.slot = slot;
    s.num_trajs = g.num_trajs;
    s.transitions = g.transition_count;
    s.routes = g.route_count;
    return s;
  };
  for (const auto& [key, g] : groups_) {
    out.push_back(snapshot_of(key.sd, key.slot, g));
  }
  for (const auto& [sd, g] : all_slots_) {
    out.push_back(snapshot_of(sd, -1, g));
  }
  std::sort(out.begin(), out.end(),
            [](const GroupSnapshot& a, const GroupSnapshot& b) {
              if (!(a.sd == b.sd)) return a.sd < b.sd;
              return a.slot < b.slot;
            });
  return out;
}

void Preprocessor::ImportState(const std::vector<GroupSnapshot>& snapshots) {
  ++stats_generation_;
  groups_.clear();
  all_slots_.clear();
  for (const GroupSnapshot& s : snapshots) {
    GroupStats* g = s.slot < 0 ? &all_slots_[s.sd]
                               : &groups_[GroupKey{s.sd, s.slot}];
    g->num_trajs = s.num_trajs;
    Append(&g->transition_count, s.transitions);
    Append(&g->route_count, s.routes);
  }
  FinishGroups();
}

}  // namespace rl4oasd::core
