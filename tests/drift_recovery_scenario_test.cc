// End-to-end drift-recovery scenario on the Figure 6 concept-drift workload:
// a route-popularity swap is injected mid-stream and the self-updating
// service (serve::DriftAdapter) must close the whole loop on its own —
// detect the drift, harvest post-change trips, fine-tune a candidate in the
// background, gate it in shadow, hot-swap it in, and recover detection
// quality — while the fleet-service invariants keep holding:
//   * conservation: started == finished + evicted + active at every
//     checkpoint;
//   * per-trip alert streams stay exactly-once, in order, and equal to the
//     final post-DL label runs, across the swap;
//   * service F1 vs ground truth recovers to within kRecoveryTolerance of
//     its pre-drift level, after troughing during the outage.
//
// Fully deterministic: every seed is pinned, the adapter runs in
// synchronous Poll() mode (no background thread), and nothing waits on
// wall-clock time. A phase-by-phase trace is written next to the binary
// (drift_recovery_trace.txt) so a CI failure ships the whole story as an
// artifact.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/mutex.h"
#include "core/rl4oasd.h"
#include "eval/metrics.h"
#include "roadnet/grid_city.h"
#include "serve/drift.h"
#include "serve/fleet.h"
#include "traj/dataset.h"
#include "traj/generator.h"
#include "traj/types.h"

namespace rl4oasd::serve {
namespace {

/// Recovery gate: post-swap service F1 must be within this of the pre-drift
/// level (golden tolerance; see tests/README.md for the pinned values).
constexpr double kRecoveryTolerance = 0.15;
/// The drift must actually hurt before the swap: trough F1 at least this
/// far below the pre-drift level, else the scenario is not testing anything.
constexpr double kMinDegradation = 0.10;
/// Concurrent vehicles in the rolling ingest window.
constexpr size_t kRollingWindow = 8;

/// Records everything the service reports, keyed by vehicle id (each trip
/// gets a unique vehicle in this scenario, so vehicle id == trip identity).
class RecordingSink : public AlertSink {
 public:
  void OnAlert(const Alert& alert) override {
    common::MutexLock lock(&mu_);
    alerts_[alert.vehicle_id].push_back(alert.range);
  }
  void OnTripEnd(int64_t vehicle_id,
                 const std::vector<uint8_t>& final_labels) override {
    common::MutexLock lock(&mu_);
    final_labels_[vehicle_id] = final_labels;
  }
  void OnTripEvicted(int64_t, double, const std::vector<uint8_t>&) override {
    common::MutexLock lock(&mu_);
    ++evictions_;
  }

  const std::map<int64_t, std::vector<traj::Subtrajectory>>& alerts() const {
    return alerts_;
  }
  const std::map<int64_t, std::vector<uint8_t>>& final_labels() const {
    return final_labels_;
  }
  size_t evictions() const { return evictions_; }

 private:
  mutable common::Mutex mu_;
  std::map<int64_t, std::vector<traj::Subtrajectory>> alerts_;
  std::map<int64_t, std::vector<uint8_t>> final_labels_;
  size_t evictions_ = 0;
};

struct Workload {
  roadnet::RoadNetwork net;
  traj::Dataset part0;  // pre-drift half of the day
  traj::Dataset part1;  // post-drift half (route popularities rotated)
};

/// The Figure 6 workload at xi = 2, sized for a test. With the default
/// popularity skew the per-pair route shares are ~0.55/0.27/0.18 — all
/// above alpha/delta, so the pre-drift service is clean — yet the part-1
/// rotation still degrades the incumbent sharply (calibrated on this exact
/// seed: F1 0.72 pre-drift, 0.40 on rotated traffic, 0.62 after
/// fine-tuning on a post-change buffer), because the learned boundary
/// tracks the empirical transition statistics, not just the thresholds.
Workload MakeWorkload() {
  Workload w;
  roadnet::GridCityConfig g;
  g.rows = 10;
  g.cols = 10;
  g.arterial_every = 3;
  g.removal_prob = 0.0;
  g.seed = 7;
  w.net = roadnet::BuildGridCity(g);

  traj::GeneratorConfig t;
  t.num_sd_pairs = 12;
  t.min_trajs_per_pair = 60;
  t.max_trajs_per_pair = 90;
  t.routes_per_pair = 3;
  t.popularity_skew = 1.0;  // shares ~0.55 / 0.27 / 0.18
  t.anomaly_ratio = 0.10;
  t.min_pair_dist_m = 800;
  t.max_pair_dist_m = 2500;
  t.min_route_edges = 8;
  t.drift_parts = 2;
  t.seed = 31;
  traj::TrajectoryGenerator gen(&w.net, t);
  const traj::Dataset full = gen.Generate();
  for (const auto& lt : full.trajs()) {
    (lt.traj.start_time < 43200.0 ? w.part0 : w.part1).Add(lt);
  }
  return w;
}

core::Rl4OasdConfig ScenarioModelConfig() {
  core::Rl4OasdConfig cfg;
  cfg.preprocess.alpha = 0.1;
  cfg.preprocess.delta = 0.12;
  cfg.detector.delay_d = 4;
  cfg.rsr.embed_dim = 16;
  cfg.rsr.nrf_dim = 16;
  cfg.rsr.hidden_dim = 16;
  cfg.asd.label_dim = 16;
  cfg.embedding.epochs = 1;
  cfg.embedding.random_walks_per_edge = 1;
  cfg.embedding.walk_length = 10;
  cfg.pretrain_samples = 200;
  cfg.pretrain_epochs = 4;
  cfg.joint_samples = 250;
  cfg.epochs_per_traj = 2;
  return cfg;
}

DriftConfig ScenarioDriftConfig() {
  DriftConfig dc;
  dc.window_points = 400;
  dc.reference_windows = 2;
  dc.cusum_k = 0.02;
  dc.cusum_h = 0.10;
  dc.ratio_threshold = 2.0;
  dc.min_abs_shift = 0.05;
  dc.max_buffer_trips = 400;
  // Enough post-drift trips that the fine-tune's merged statistics pull the
  // newly popular route above delta (the buffer is cleared at the trigger,
  // so all of these postdate the change).
  dc.min_buffer_trips = 250;
  dc.fine_tune_max_samples = 200;
  dc.shadow_trips = 48;
  dc.promote_min_gain = 0.0;
  dc.reject_backoff_points = 2048;
  dc.post_swap_cooldown_points = 0;
  dc.background = false;  // deterministic: the driver steps the loop
  return dc;
}

/// Sorted-by-start-time trip order: the chronological day the fleet lives.
std::vector<const traj::LabeledTrajectory*> Chronological(
    const traj::Dataset& part) {
  std::vector<const traj::LabeledTrajectory*> order;
  for (const auto& lt : part.trajs()) {
    if (lt.traj.edges.size() >= 2) order.push_back(&lt);
  }
  std::sort(order.begin(), order.end(),
            [](const traj::LabeledTrajectory* a,
               const traj::LabeledTrajectory* b) {
              return a->traj.start_time < b->traj.start_time;
            });
  return order;
}

/// Drives a rolling window of concurrent trips through the adapter's
/// monitor with FeedBatch waves (one point per active trip per wave),
/// polling the adaptation loop between waves. `first_vid` numbers the
/// trips; `on_trip_done(vid)` fires after each EndTrip.
template <typename DoneFn>
void FeedRolling(DriftAdapter* adapter,
                 const std::vector<const traj::LabeledTrajectory*>& trips,
                 int64_t first_vid, DoneFn on_trip_done) {
  struct Active {
    int64_t vid;
    const traj::MapMatchedTrajectory* t;
    size_t next = 0;
  };
  std::vector<Active> active;
  size_t cursor = 0;
  std::vector<FleetPoint> wave;
  while (cursor < trips.size() || !active.empty()) {
    while (active.size() < kRollingWindow && cursor < trips.size()) {
      const auto* lt = trips[cursor];
      const int64_t vid = first_vid + static_cast<int64_t>(cursor);
      ASSERT_TRUE(adapter->monitor()
                      ->StartTrip(vid, lt->traj.sd(), lt->traj.start_time)
                      .ok());
      active.push_back({vid, &lt->traj, 0});
      ++cursor;
    }
    wave.clear();
    for (auto& a : active) {
      wave.push_back({a.vid, a.t->edges[a.next],
                      a.t->start_time + 2.0 * static_cast<double>(a.next)});
      ++a.next;
    }
    ASSERT_EQ(adapter->monitor()->FeedBatch(wave), wave.size());
    for (size_t i = active.size(); i-- > 0;) {
      if (active[i].next == active[i].t->edges.size()) {
        ASSERT_TRUE(adapter->monitor()->EndTrip(active[i].vid).ok());
        on_trip_done(active[i].vid);
        active.erase(active.begin() + static_cast<ptrdiff_t>(i));
      }
    }
    adapter->Poll();
  }
}

/// F1 of the service's final labels vs ground truth over trips
/// [from_vid, to_vid) — scoring exactly what the fleet reported.
double ServiceF1(const RecordingSink& sink,
                 const std::map<int64_t, const traj::LabeledTrajectory*>& gt,
                 int64_t from_vid, int64_t to_vid) {
  eval::F1Evaluator ev;
  for (const auto& [vid, labels] : sink.final_labels()) {
    if (vid < from_vid || vid >= to_vid) continue;
    ev.Add(gt.at(vid)->labels, labels);
  }
  return ev.Compute().f1;
}

TEST(DriftRecoveryScenario, ServiceDetectsRetrainsGatesSwapsAndRecovers) {
  Workload w = MakeWorkload();
  ASSERT_GE(w.part0.size(), 300u);
  ASSERT_GE(w.part1.size(), 300u);

  auto model = std::make_shared<core::Rl4Oasd>(&w.net, ScenarioModelConfig());
  model->Fit(w.part0);

  RecordingSink sink;
  DriftAdapter adapter(&w.net, model, FleetConfig{}, ScenarioDriftConfig(),
                       &sink);

  // Ground truth by vehicle id; part-0 trips get vids [0, n0), part-1 trips
  // [n0, n0 + n1).
  const auto order0 = Chronological(w.part0);
  const auto order1 = Chronological(w.part1);
  std::map<int64_t, const traj::LabeledTrajectory*> gt;
  for (size_t i = 0; i < order0.size(); ++i) {
    gt[static_cast<int64_t>(i)] = order0[i];
  }
  const int64_t part1_base = static_cast<int64_t>(order0.size());
  for (size_t i = 0; i < order1.size(); ++i) {
    gt[part1_base + static_cast<int64_t>(i)] = order1[i];
  }

  // --- Phase 1: the pre-drift day. The detector arms; nothing fires.
  FeedRolling(&adapter, order0, 0, [](int64_t) {});
  const DriftStatus pre = adapter.Status();
  EXPECT_TRUE(pre.detector_armed);
  EXPECT_EQ(pre.drift_events, 0u);
  EXPECT_EQ(pre.promotions, 0u);
  EXPECT_EQ(pre.model_generation, 1u);
  const double pre_f1 = ServiceF1(sink, gt, 0, part1_base);
  {
    const FleetStats s = adapter.monitor()->Stats();
    EXPECT_EQ(s.trips_started,
              s.trips_finished + s.trips_evicted +
                  static_cast<int64_t>(adapter.monitor()->ActiveTrips()));
  }

  // --- Phase 2: the popularity swap hits. The loop must detect, retrain,
  // shadow-gate, and promote, all while ingest keeps flowing.
  int64_t first_promoted_done = -1;  // first trip finished post-promotion
  int64_t detect_done = -1;          // trips finished when the detector fired
  FeedRolling(&adapter, order1, part1_base, [&](int64_t vid) {
    const DriftStatus s = adapter.Status();
    if (detect_done < 0 && s.drift_events > 0) detect_done = vid;
    if (first_promoted_done < 0 && s.promotions > 0) {
      first_promoted_done = vid;
    }
  });

  const DriftStatus post = adapter.Status();
  EXPECT_GE(post.drift_events, 1u) << "drift was never detected";
  ASSERT_GE(post.promotions, 1u) << "no candidate was promoted";
  EXPECT_EQ(post.cycles_started, post.promotions + post.rejections);
  EXPECT_EQ(post.model_generation, 1u + post.promotions);
  EXPECT_GE(post.last_candidate_score, post.last_live_score);
  ASSERT_GT(detect_done, 0);
  ASSERT_GT(first_promoted_done, detect_done);

  // --- Phase 3: quality. Trough (between trigger and swap) must show real
  // damage; the recovered plateau must be back within tolerance.
  const double trough_f1 =
      ServiceF1(sink, gt, detect_done, first_promoted_done);
  // Score the plateau a little past the swap so lazily re-primed stragglers
  // (trips started under the old model) age out of the window.
  const int64_t plateau_from = first_promoted_done + kRollingWindow;
  const int64_t end_vid = part1_base + static_cast<int64_t>(order1.size());
  ASSERT_GT(end_vid - plateau_from, 50)
      << "not enough post-swap trips to judge recovery";
  const double recovered_f1 = ServiceF1(sink, gt, plateau_from, end_vid);
  EXPECT_LT(trough_f1, pre_f1 - kMinDegradation)
      << "the injected drift did not hurt the incumbent model";
  EXPECT_GT(recovered_f1, pre_f1 - kRecoveryTolerance)
      << "the promoted model did not recover detection quality";

  // --- Phase 4: service invariants held across the whole story.
  const FleetStats stats = adapter.monitor()->Stats();
  EXPECT_EQ(adapter.monitor()->ActiveTrips(), 0u);
  EXPECT_EQ(stats.trips_started, stats.trips_finished + stats.trips_evicted);
  EXPECT_EQ(stats.trips_evicted, 0);
  EXPECT_EQ(sink.evictions(), 0u);
  EXPECT_EQ(stats.trips_finished,
            static_cast<int64_t>(sink.final_labels().size()));
  // Every alert corresponds exactly-once, in order, to a final label run —
  // including trips that straddled the hot swap.
  size_t total_alerts = 0;
  for (const auto& [vid, labels] : sink.final_labels()) {
    const auto runs = traj::ExtractAnomalousRuns(labels);
    const auto it = sink.alerts().find(vid);
    const auto& got = it == sink.alerts().end()
                          ? std::vector<traj::Subtrajectory>{}
                          : it->second;
    ASSERT_EQ(got.size(), runs.size()) << "vehicle " << vid;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], runs[i]) << "vehicle " << vid;
      if (i > 0) {
        EXPECT_GT(got[i].begin, got[i - 1].begin);
      }
    }
    total_alerts += got.size();
  }
  EXPECT_EQ(stats.alerts_emitted, static_cast<int64_t>(total_alerts));

  // --- Trace for CI artifacts (always written; uploaded on failure).
  if (FILE* f = std::fopen("drift_recovery_trace.txt", "w")) {
    std::fprintf(f,
                 "part0_trips=%zu part1_trips=%zu\n"
                 "pre_f1=%.4f trough_f1=%.4f recovered_f1=%.4f\n"
                 "detect_done_vid=%lld promoted_done_vid=%lld\n"
                 "drift_events=%llu cycles=%llu promotions=%llu "
                 "rejections=%llu cycle_errors=%llu\n"
                 "gate_live=%.4f gate_candidate=%.4f divergent=%llu\n"
                 "generation=%llu harvested=%llu buffer_evictions=%llu\n",
                 order0.size(), order1.size(), pre_f1, trough_f1,
                 recovered_f1, static_cast<long long>(detect_done),
                 static_cast<long long>(first_promoted_done),
                 static_cast<unsigned long long>(post.drift_events),
                 static_cast<unsigned long long>(post.cycles_started),
                 static_cast<unsigned long long>(post.promotions),
                 static_cast<unsigned long long>(post.rejections),
                 static_cast<unsigned long long>(post.cycle_errors),
                 post.last_live_score, post.last_candidate_score,
                 static_cast<unsigned long long>(
                     post.last_shadow_divergent_trips),
                 static_cast<unsigned long long>(post.model_generation),
                 static_cast<unsigned long long>(post.trips_harvested),
                 static_cast<unsigned long long>(post.buffer_evictions));
    std::fclose(f);
  }
}

}  // namespace
}  // namespace rl4oasd::serve
