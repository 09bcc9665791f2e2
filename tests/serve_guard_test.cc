// Tests for the ingest input contract (serve/ingest_guard.h), the
// quarantine-based graceful-degradation path in serve::FleetMonitor, and
// the chaos-injection metamorphic suite (serve/chaos.h).
//
// The robustness contract under test:
//   * the guard classifies exactly one anomaly per point, in the documented
//     precedence order, and each class's repair does what the header says;
//   * single-mode chaos runs are *exactly* countable — the guard's
//     per-class counters equal the injector's ground truth;
//   * conservation identities survive arbitrary combined chaos
//     (trips: started == finished + evicted + active; points:
//     offered == processed + rejected + quarantine-dropped);
//   * chaos divergence is bounded per vehicle: a vehicle whose stream the
//     injector never touched produces the identical alert sequence;
//   * sync Feed and async Submit ingest stay equivalent point-for-point
//     under chaos, across shard counts, with quarantine active;
//   * quarantine state round-trips through fleet snapshots bit-identically;
//   * one skewed or negative client timestamp cannot make a live trip the
//     EvictStalest victim (regression: staleness follows the guard's
//     monotone clock, not the raw device clock).
// The CI ThreadSanitizer job runs this suite.
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "fleet_stats_fields.h"
#include "io/fleet_snapshot.h"
#include "serve/chaos.h"
#include "serve/fleet.h"
#include "serve/ingest_guard.h"
#include "test_util.h"
#include "traj/types.h"

namespace rl4oasd::serve {
namespace {

core::Rl4OasdConfig TinyConfig() {
  core::Rl4OasdConfig cfg;
  cfg.preprocess.alpha = 0.1;
  cfg.preprocess.delta = 0.12;
  cfg.detector.delay_d = 2;
  cfg.rsr.embed_dim = 16;
  cfg.rsr.nrf_dim = 8;
  cfg.rsr.hidden_dim = 16;
  cfg.asd.label_dim = 8;
  cfg.embedding.epochs = 1;
  cfg.pretrain_samples = 60;
  cfg.pretrain_epochs = 2;
  cfg.joint_samples = 120;
  cfg.epochs_per_traj = 1;
  return cfg;
}

IngestGuardConfig RepairAll() {
  IngestGuardConfig g;
  g.duplicate_policy = GuardPolicy::kRepair;
  g.out_of_order_policy = GuardPolicy::kRepair;
  g.skew_policy = GuardPolicy::kRepair;
  g.dropout_policy = GuardPolicy::kRepair;
  g.teleport_policy = GuardPolicy::kRepair;
  return g;
}

/// First edge provably NOT reachable from `from` within `hops` adjacency
/// hops — the same predicate the guard and the chaos injector share.
traj::EdgeId UnreachableFrom(const roadnet::RoadNetwork& net,
                             traj::EdgeId from, int hops) {
  for (size_t e = 0; e < net.NumEdges(); ++e) {
    const auto id = static_cast<traj::EdgeId>(e);
    if (id != from &&
        !IngestGuard::ReachableWithinHops(net, from, id, hops)) {
      return id;
    }
  }
  return roadnet::kInvalidEdge;
}

/// Records the full per-vehicle callback sequence — alerts, trip ends,
/// evictions, finalizations, AND quarantine entries — as readable strings,
/// so equivalence across ingest modes is one map comparison.
class GuardSequenceSink : public AlertSink {
 public:
  void OnAlert(const Alert& alert) override {
    Record(alert.vehicle_id, "alert[" + std::to_string(alert.range.begin) +
                                 "," + std::to_string(alert.range.end) + ")");
  }
  void OnTripEnd(int64_t vehicle_id,
                 const std::vector<uint8_t>& final_labels) override {
    Record(vehicle_id, "end:" + LabelString(final_labels));
  }
  void OnTripEvicted(int64_t vehicle_id, double /*trip_start_time*/,
                     const std::vector<uint8_t>& labels_so_far) override {
    Record(vehicle_id, "evicted:" + LabelString(labels_so_far));
  }
  void OnTripQuarantined(int64_t vehicle_id, double /*trip_start_time*/,
                         int64_t malformed_points) override {
    Record(vehicle_id, "quarantined:" + std::to_string(malformed_points));
  }

  std::map<int64_t, std::vector<std::string>> Take() {
    common::MutexLock lock(&mu_);
    return std::move(events_);
  }
  int64_t NumQuarantineEvents() const {
    common::MutexLock lock(&mu_);
    int64_t n = 0;
    for (const auto& [vid, seq] : events_) {
      for (const std::string& e : seq) {
        if (e.rfind("quarantined:", 0) == 0) ++n;
      }
    }
    return n;
  }

 private:
  static std::string LabelString(const std::vector<uint8_t>& labels) {
    std::string s;
    s.reserve(labels.size());
    for (uint8_t l : labels) s.push_back(l ? '1' : '0');
    return s;
  }
  void Record(int64_t vehicle_id, std::string event) {
    common::MutexLock lock(&mu_);
    events_[vehicle_id].push_back(std::move(event));
  }

  mutable common::Mutex mu_;
  std::map<int64_t, std::vector<std::string>> events_ RL4OASD_GUARDED_BY(mu_);
};

class GuardTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new roadnet::RoadNetwork(testing::SmallGrid());
    dataset_ = new traj::Dataset(testing::SmallDataset(*net_, 6, 0.12));
    model_ = new core::Rl4Oasd(net_, TinyConfig());
    model_->Fit(*dataset_);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete dataset_;
    delete net_;
    model_ = nullptr;
    dataset_ = nullptr;
    net_ = nullptr;
  }

  static std::vector<const traj::MapMatchedTrajectory*> PickTrips(
      size_t count) {
    std::vector<const traj::MapMatchedTrajectory*> picks;
    for (const auto& lt : dataset_->trajs()) {
      if (lt.traj.edges.size() >= 4) picks.push_back(&lt.traj);
      if (picks.size() == count) break;
    }
    return picks;
  }

  /// Round-robin interleaving at the paper's 2s sampling rate; the first
  /// point sits `first_offset` seconds after the trip's start time (use a
  /// positive offset when a dropped first point must still expose a
  /// detectable gap against the StartTrip-seeded monotone clock).
  static std::vector<FleetPoint> CleanStream(
      const std::vector<const traj::MapMatchedTrajectory*>& picks,
      double first_offset = 0.0) {
    std::vector<FleetPoint> points;
    size_t longest = 0;
    for (const auto* t : picks) longest = std::max(longest, t->edges.size());
    for (size_t i = 0; i < longest; ++i) {
      for (size_t v = 0; v < picks.size(); ++v) {
        if (i < picks[v]->edges.size()) {
          points.push_back({static_cast<int64_t>(v), picks[v]->edges[i],
                            picks[v]->start_time + first_offset +
                                2.0 * static_cast<double>(i)});
        }
      }
    }
    return points;
  }

  static void StartAll(
      FleetMonitor* monitor,
      const std::vector<const traj::MapMatchedTrajectory*>& picks) {
    for (size_t v = 0; v < picks.size(); ++v) {
      ASSERT_TRUE(monitor
                      ->StartTrip(static_cast<int64_t>(v), picks[v]->sd(),
                                  picks[v]->start_time)
                      .ok());
    }
  }

  struct ChaosRunResult {
    ChaosCounts counts;
    std::unordered_map<int64_t, int64_t> perturbed;
    FleetStats stats;
    std::map<int64_t, std::vector<std::string>> events;
  };

  /// Perturbs `clean` with `spec`, replays it through a fresh monitor over
  /// the shared model via the synchronous Feed path, and returns the
  /// injector's ground truth next to the monitor's accounting.
  static ChaosRunResult RunPerturbed(
      const ChaosSpec& spec, const IngestGuardConfig& guard,
      const std::vector<const traj::MapMatchedTrajectory*>& picks,
      std::span<const FleetPoint> clean) {
    ChaosInjector injector(spec, net_);
    const std::vector<FleetPoint> pts = injector.Perturb(clean);
    GuardSequenceSink sink;
    FleetConfig cfg;
    cfg.guard = guard;
    FleetMonitor monitor(model_, cfg, &sink);
    StartAll(&monitor, picks);
    for (const FleetPoint& p : pts) {
      (void)monitor.Feed(p.vehicle_id, p.edge, p.timestamp);
    }
    for (size_t v = 0; v < picks.size(); ++v) {
      (void)monitor.EndTrip(static_cast<int64_t>(v));
    }
    ChaosRunResult r;
    r.counts = injector.counts();
    r.perturbed = injector.perturbed_by_vehicle();
    r.stats = monitor.Stats();
    r.events = sink.Take();
    return r;
  }

  static roadnet::RoadNetwork* net_;
  static traj::Dataset* dataset_;
  static core::Rl4Oasd* model_;
};

roadnet::RoadNetwork* GuardTest::net_ = nullptr;
traj::Dataset* GuardTest::dataset_ = nullptr;
core::Rl4Oasd* GuardTest::model_ = nullptr;

// ---------------------------------------------------------------------------
// IngestGuard unit tests

TEST_F(GuardTest, ClassifiesInPrecedenceOrder) {
  const IngestGuard guard(IngestGuardConfig{}, net_);
  const auto* t = PickTrips(1)[0];
  IngestGuard::State s;
  s.mono_ts = 1000.0;

  // Clean first point.
  auto d = guard.Check(&s, t->edges[0], 1000.0);
  EXPECT_EQ(d.anomaly, IngestGuard::Anomaly::kNone);
  EXPECT_TRUE(d.accept);
  EXPECT_EQ(d.timestamp, 1000.0);

  // Identical retransmit: duplicate.
  d = guard.Check(&s, t->edges[0], 1000.0);
  EXPECT_EQ(d.anomaly, IngestGuard::Anomaly::kDuplicate);

  // Regressing timestamp: out-of-order beats any spatial verdict, and the
  // reported timestamp never regresses below the monotone clock.
  d = guard.Check(&s, t->edges[1], 998.0);
  EXPECT_EQ(d.anomaly, IngestGuard::Anomaly::kOutOfOrder);
  EXPECT_EQ(d.timestamp, 1000.0);

  // Forward jump past the skew tolerance: clock skew (pass-through lets it
  // advance the clock).
  d = guard.Check(&s, t->edges[2], 1000.0 + 3601.0);
  EXPECT_EQ(d.anomaly, IngestGuard::Anomaly::kClockSkew);

  // Forward gap above dropout_gap_s but within skew tolerance: dropout.
  d = guard.Check(&s, t->edges[3], 4601.0 + 100.0);
  EXPECT_EQ(d.anomaly, IngestGuard::Anomaly::kDropout);

  // An unreachable edge with a credible timestamp: teleport.
  const traj::EdgeId far = UnreachableFrom(*net_, t->edges[3], 2);
  ASSERT_NE(far, roadnet::kInvalidEdge);
  d = guard.Check(&s, far, 4703.0);
  EXPECT_EQ(d.anomaly, IngestGuard::Anomaly::kTeleport);

  // An out-of-range edge id is rejected under every policy — even the
  // observe-only default.
  d = guard.Check(&s, static_cast<traj::EdgeId>(net_->NumEdges()), 4705.0);
  EXPECT_EQ(d.anomaly, IngestGuard::Anomaly::kInvalidEdge);
  EXPECT_FALSE(d.accept);
}

TEST_F(GuardTest, RepairsFollowTheContract) {
  const IngestGuard guard(RepairAll(), net_);
  const auto* t = PickTrips(1)[0];
  IngestGuard::State s;
  s.mono_ts = 0.0;

  ASSERT_TRUE(guard.Check(&s, t->edges[0], 2.0).accept);
  ASSERT_TRUE(guard.Check(&s, t->edges[1], 4.0).accept);

  // Duplicate: the copy is dropped; clock and position are untouched.
  auto d = guard.Check(&s, t->edges[1], 4.0);
  EXPECT_FALSE(d.accept);
  EXPECT_EQ(s.position, t->edges[1]);
  EXPECT_EQ(s.mono_ts, 4.0);

  // Out-of-order: accepted with the timestamp clamped to "now"; the
  // position does not move to the historical segment.
  d = guard.Check(&s, t->edges[2], 1.0);
  EXPECT_TRUE(d.accept);
  EXPECT_TRUE(d.repaired);
  EXPECT_EQ(d.timestamp, 4.0);
  EXPECT_EQ(s.position, t->edges[1]);

  // Clock skew: accepted, clamped one sampling interval past the clock.
  d = guard.Check(&s, t->edges[2], 4.0 + 7200.0);
  EXPECT_TRUE(d.accept);
  EXPECT_TRUE(d.repaired);
  EXPECT_EQ(d.timestamp, 6.0);
  EXPECT_EQ(s.position, t->edges[2]);

  // Dropout: the post-gap point is credible and accepted unchanged.
  d = guard.Check(&s, t->edges[3], 6.0 + 100.0);
  EXPECT_TRUE(d.accept);
  EXPECT_FALSE(d.repaired);
  EXPECT_EQ(d.timestamp, 106.0);

  // Teleport: nothing to clamp onto — dropped, position kept.
  const traj::EdgeId far = UnreachableFrom(*net_, s.position, 2);
  ASSERT_NE(far, roadnet::kInvalidEdge);
  d = guard.Check(&s, far, 108.0);
  EXPECT_FALSE(d.accept);
  EXPECT_EQ(s.position, t->edges[3]);
  EXPECT_EQ(d.timestamp, 106.0);
}

TEST_F(GuardTest, ReachableWithinHopsIsABoundedBfs) {
  const traj::EdgeId e0 = 0;
  EXPECT_TRUE(IngestGuard::ReachableWithinHops(*net_, e0, e0, 0));
  const auto& succ = net_->NextEdges(e0);
  ASSERT_FALSE(succ.empty());
  EXPECT_TRUE(IngestGuard::ReachableWithinHops(*net_, e0, succ[0], 1));
  const auto& succ2 = net_->NextEdges(succ[0]);
  ASSERT_FALSE(succ2.empty());
  EXPECT_TRUE(IngestGuard::ReachableWithinHops(*net_, e0, succ2[0], 2));
  const traj::EdgeId far = UnreachableFrom(*net_, e0, 3);
  ASSERT_NE(far, roadnet::kInvalidEdge);
  EXPECT_FALSE(IngestGuard::ReachableWithinHops(*net_, e0, far, 3));
}

TEST_F(GuardTest, HealthScoreTracksTheStrikeBucket) {
  IngestGuardConfig cfg = RepairAll();
  cfg.malformed_budget = 4;
  const IngestGuard guard(cfg, net_);
  const auto* t = PickTrips(1)[0];
  IngestGuard::State s;
  ASSERT_TRUE(guard.Check(&s, t->edges[0], 2.0).accept);
  EXPECT_EQ(guard.HealthScore(s), 1.0);
  const traj::EdgeId far = UnreachableFrom(*net_, t->edges[0], 2);
  ASSERT_NE(far, roadnet::kInvalidEdge);
  (void)guard.Check(&s, far, 4.0);
  EXPECT_EQ(guard.HealthScore(s), 0.75);
  (void)guard.Check(&s, far, 6.0);
  EXPECT_EQ(guard.HealthScore(s), 0.5);
  // A clean point leaks one strike back out.
  ASSERT_TRUE(guard.Check(&s, t->edges[1], 8.0).accept);
  EXPECT_EQ(guard.HealthScore(s), 0.75);
}

TEST_F(GuardTest, StateRoundTripsAndRejectsLies) {
  IngestGuard::State s;
  s.mono_ts = 123.5;
  s.last_arrival_ts = 121.0;
  s.last_arrival_edge = 7;
  s.position = 9;
  s.strikes = 3;
  s.clean_streak = 1;
  s.quarantine_points = 5;
  s.malformed_total = 11;
  s.has_arrival = true;
  s.quarantined = true;

  BinaryWriter w;
  s.ExportState(&w);

  IngestGuard::State r;
  BinaryReader reader(w.buffer());
  ASSERT_TRUE(r.ImportState(&reader, net_->NumEdges()).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(r.mono_ts, s.mono_ts);
  EXPECT_EQ(r.last_arrival_edge, s.last_arrival_edge);
  EXPECT_EQ(r.position, s.position);
  EXPECT_EQ(r.strikes, s.strikes);
  EXPECT_EQ(r.quarantine_points, s.quarantine_points);
  EXPECT_EQ(r.malformed_total, s.malformed_total);
  EXPECT_TRUE(r.quarantined);

  // A flag byte outside {0, 1} is a lie, not UB.
  std::string bytes = w.buffer();
  bytes[bytes.size() - 1] = 2;
  BinaryReader bad_flag(std::move(bytes));
  EXPECT_FALSE(r.ImportState(&bad_flag, net_->NumEdges()).ok());

  // An edge id past the serving network is rejected the same way.
  IngestGuard::State hostile = s;
  hostile.position = static_cast<traj::EdgeId>(net_->NumEdges());
  BinaryWriter hw;
  hostile.ExportState(&hw);
  BinaryReader hr(hw.buffer());
  EXPECT_FALSE(r.ImportState(&hr, net_->NumEdges()).ok());
}

// ---------------------------------------------------------------------------
// Monitor-level guard behavior

TEST_F(GuardTest, StaleTimestampCannotMakeTripTheEvictionVictim) {
  // Regression: Feed used to store the raw client timestamp into
  // last_update, so a single negative (or wildly regressing) timestamp
  // made its trip the EvictStalest victim even though the vehicle was the
  // *freshest* stream in the fleet. Staleness now follows the guard's
  // monotone per-trip clock — under the observe-only default config, so
  // the fix is unconditional.
  const auto picks = PickTrips(3);
  ASSERT_EQ(picks.size(), 3u);
  CollectingSink sink;
  FleetConfig cfg;
  cfg.max_active_trips = 2;
  FleetMonitor monitor(model_, cfg, &sink);

  ASSERT_TRUE(monitor.StartTrip(1, picks[0]->sd(), 1000.0).ok());
  ASSERT_TRUE(monitor.Feed(1, picks[0]->edges[0], 1000.0).ok());
  ASSERT_TRUE(monitor.Feed(1, picks[0]->edges[1], 1002.0).ok());
  ASSERT_TRUE(monitor.StartTrip(2, picks[1]->sd(), 500.0).ok());
  ASSERT_TRUE(monitor.Feed(2, picks[1]->edges[0], 500.0).ok());

  // The poison: vehicle 1's device clock steps to a huge negative value.
  // Pass-through accepts the point; the trip's staleness must not regress.
  ASSERT_TRUE(monitor.Feed(1, picks[0]->edges[2], -1e9).ok());

  // Admission beyond the cap evicts the stalest trip: that must be the
  // genuinely oldest vehicle 2 (last update 500), not the poisoned 1.
  ASSERT_TRUE(monitor.StartTrip(3, picks[2]->sd(), 2000.0).ok());
  const auto evicted = sink.TakeEvicted();
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].first, 2);
  EXPECT_TRUE(monitor.Feed(1, picks[0]->edges[3], 1004.0).ok());
}

TEST_F(GuardTest, QuarantineLifecycleFiresExactlyOnceAndRecovers) {
  const auto picks = PickTrips(1);
  const auto* t = picks[0];
  CollectingSink sink;
  FleetConfig cfg;
  cfg.guard = RepairAll();
  cfg.guard.malformed_budget = 2;
  cfg.guard.quarantine_recovery_points = 3;
  cfg.guard.quarantine_evict_points = 0;  // never evict: recovery only
  FleetMonitor monitor(model_, cfg, &sink);
  ASSERT_TRUE(monitor.StartTrip(7, t->sd(), 0.0).ok());
  ASSERT_TRUE(monitor.Feed(7, t->edges[0], 2.0).ok());
  ASSERT_TRUE(monitor.Feed(7, t->edges[1], 4.0).ok());

  const traj::EdgeId far = UnreachableFrom(*net_, t->edges[1], 2);
  ASSERT_NE(far, roadnet::kInvalidEdge);

  // Two teleports are repaired away (strikes 1, 2); the third blows the
  // budget and tips the trip into quarantine.
  EXPECT_EQ(monitor.Feed(7, far, 6.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(monitor.Feed(7, far, 8.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(monitor.Feed(7, far, 10.0).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(sink.NumQuarantined(), 1u);
  auto quarantined = monitor.TripQuarantined(7);
  ASSERT_TRUE(quarantined.ok());
  EXPECT_TRUE(*quarantined);
  auto health = monitor.TripHealth(7);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(*health, 0.0);

  // While quarantined, even garbage is observed-and-dropped.
  EXPECT_EQ(monitor.Feed(7, far, 12.0).status().code(),
            StatusCode::kResourceExhausted);

  // Three consecutive clean points end the quarantine; the first two are
  // validated but dropped, the third (the recovery point) is fed.
  EXPECT_EQ(monitor.Feed(7, t->edges[2], 14.0).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(monitor.Feed(7, t->edges[3], 16.0).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(monitor.Feed(7, t->edges[4], 18.0).ok());
  quarantined = monitor.TripQuarantined(7);
  ASSERT_TRUE(quarantined.ok());
  EXPECT_FALSE(*quarantined);
  EXPECT_EQ(sink.NumQuarantined(), 1u);  // one episode, one event

  ASSERT_TRUE(monitor.Feed(7, t->edges[5], 20.0).ok());
  ASSERT_TRUE(monitor.EndTrip(7).ok());

  const FleetStats stats = monitor.Stats();
  EXPECT_EQ(stats.guard_teleports, 4);
  EXPECT_EQ(stats.trips_quarantined, 1);
  EXPECT_EQ(stats.trips_recovered, 1);
  EXPECT_EQ(stats.quarantine_evictions, 0);
  EXPECT_EQ(stats.points_quarantine_dropped, 4);
  // Disposition partition: every offered point lands in exactly one bucket.
  EXPECT_EQ(stats.points_processed + stats.points_rejected +
                stats.points_quarantine_dropped,
            10);
}

TEST_F(GuardTest, QuarantineEvictsAfterItsPointBudget) {
  const auto picks = PickTrips(1);
  const auto* t = picks[0];
  CollectingSink sink;
  FleetConfig cfg;
  cfg.guard = RepairAll();
  cfg.guard.malformed_budget = 1;
  cfg.guard.quarantine_recovery_points = 100;
  cfg.guard.quarantine_evict_points = 3;
  FleetMonitor monitor(model_, cfg, &sink);
  ASSERT_TRUE(monitor.StartTrip(9, t->sd(), 0.0).ok());
  ASSERT_TRUE(monitor.Feed(9, t->edges[0], 2.0).ok());

  const traj::EdgeId far = UnreachableFrom(*net_, t->edges[0], 2);
  ASSERT_NE(far, roadnet::kInvalidEdge);
  EXPECT_EQ(monitor.Feed(9, far, 4.0).status().code(),
            StatusCode::kInvalidArgument);  // strike 1: repaired away
  EXPECT_EQ(monitor.Feed(9, far, 6.0).status().code(),
            StatusCode::kResourceExhausted);  // strike 2 > budget: quarantine
  EXPECT_EQ(sink.NumQuarantined(), 1u);

  // Three more garbage points exhaust the quarantine budget; the last one
  // evicts the trip with the usual silent-eviction guarantees.
  EXPECT_EQ(monitor.Feed(9, far, 8.0).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(monitor.Feed(9, far, 10.0).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(monitor.Feed(9, far, 12.0).status().code(),
            StatusCode::kResourceExhausted);

  EXPECT_EQ(monitor.Feed(9, t->edges[1], 14.0).status().code(),
            StatusCode::kNotFound);  // the trip is gone
  EXPECT_EQ(sink.NumEvicted(), 1u);
  const FleetStats stats = monitor.Stats();
  EXPECT_EQ(stats.quarantine_evictions, 1);
  EXPECT_EQ(stats.trips_evicted, 1);
  EXPECT_EQ(monitor.ActiveTrips(), 0u);
}

// ---------------------------------------------------------------------------
// Metamorphic chaos suite: single-mode runs are exactly countable

TEST_F(GuardTest, CleanStreamsAreGuardClean) {
  // The premise under every exactness assertion below: an unperturbed
  // dataset replay triggers nothing — generated trips are connected paths
  // sampled on the guard's nominal interval.
  const auto picks = PickTrips(8);
  ASSERT_GE(picks.size(), 6u);
  const auto clean = CleanStream(picks);
  ChaosSpec spec;  // all probabilities zero: identity perturbation
  const auto r = RunPerturbed(spec, RepairAll(), picks, clean);
  EXPECT_EQ(r.counts.emitted, r.counts.input);
  EXPECT_EQ(r.stats.guard_duplicates, 0);
  EXPECT_EQ(r.stats.guard_out_of_order, 0);
  EXPECT_EQ(r.stats.guard_clock_skew, 0);
  EXPECT_EQ(r.stats.guard_dropout_gaps, 0);
  EXPECT_EQ(r.stats.guard_teleports, 0);
  EXPECT_EQ(r.stats.guard_invalid_edges, 0);
  EXPECT_EQ(r.stats.points_rejected, 0);
  EXPECT_EQ(r.stats.points_processed, r.counts.emitted);
}

TEST_F(GuardTest, DuplicateChaosIsExactlyCounted) {
  const auto picks = PickTrips(8);
  const auto clean = CleanStream(picks);
  ChaosSpec spec;
  spec.dup_prob = 0.25;
  spec.seed = 17;
  const auto r = RunPerturbed(spec, RepairAll(), picks, clean);
  ASSERT_GT(r.counts.duplicated, 0);
  EXPECT_EQ(r.stats.guard_duplicates, r.counts.duplicated);
  EXPECT_EQ(r.stats.points_rejected, r.counts.duplicated);  // copies dropped
  EXPECT_EQ(r.stats.guard_out_of_order, 0);
  EXPECT_EQ(r.stats.guard_clock_skew, 0);
  EXPECT_EQ(r.stats.guard_teleports, 0);
  EXPECT_EQ(r.stats.points_processed,
            r.counts.emitted - r.counts.duplicated);
}

TEST_F(GuardTest, ReorderChaosIsExactlyCounted) {
  const auto picks = PickTrips(8);
  const auto clean = CleanStream(picks);
  ChaosSpec spec;
  spec.reorder_prob = 0.25;
  spec.reorder_window = 3;
  spec.seed = 23;
  // Pass-through: displaced points are observed, not dropped, so the
  // out-of-order count is pure observation. (Displacement also punches
  // spatial holes, so teleports may tick too — not asserted.)
  const auto r = RunPerturbed(spec, IngestGuardConfig{}, picks, clean);
  ASSERT_GT(r.counts.reordered, 0);
  EXPECT_EQ(r.stats.guard_out_of_order, r.counts.reordered);
  EXPECT_EQ(r.stats.guard_duplicates, 0);
  EXPECT_EQ(r.stats.guard_clock_skew, 0);
  EXPECT_EQ(r.stats.points_rejected, 0);
  EXPECT_EQ(r.stats.points_processed, r.counts.emitted);
}

TEST_F(GuardTest, SkewChaosIsExactlyCounted) {
  const auto picks = PickTrips(8);
  const auto clean = CleanStream(picks);
  ChaosSpec spec;
  spec.skew_prob = 0.2;
  spec.seed = 31;
  // Repair clamps each skewed clock to one sampling interval past the
  // monotone clock, so the stream re-synchronizes immediately and the
  // following clean point is NOT misclassified (kPassThrough would let the
  // jumped clock cascade into out-of-order verdicts downstream).
  const auto r = RunPerturbed(spec, RepairAll(), picks, clean);
  ASSERT_GT(r.counts.skewed, 0);
  EXPECT_EQ(r.stats.guard_clock_skew, r.counts.skewed);
  EXPECT_EQ(r.stats.points_repaired, r.counts.skewed);
  EXPECT_EQ(r.stats.guard_duplicates, 0);
  EXPECT_EQ(r.stats.guard_out_of_order, 0);
  EXPECT_EQ(r.stats.guard_dropout_gaps, 0);
  EXPECT_EQ(r.stats.guard_teleports, 0);
  EXPECT_EQ(r.stats.points_processed, r.counts.emitted);
}

TEST_F(GuardTest, TeleportChaosIsExactlyCounted) {
  const auto picks = PickTrips(8);
  const auto clean = CleanStream(picks);
  ChaosSpec spec;
  spec.teleport_prob = 0.08;
  spec.teleport_min_hops = 2;  // matches the guard's hop bound
  // Exactness needs *isolated* teleports: repair drops the bogus point and
  // keeps the position on the last clean edge, so a lone teleport leaves
  // the next clean point two trajectory hops from the position — within
  // the guard's hop bound, resynchronizing immediately. Two teleports in a
  // row punch a three-hop hole and the following clean point would be
  // (correctly, from the guard's view) flagged too. Search deterministically
  // for the first seed whose stream has teleports but no same-vehicle
  // adjacent pair; teleport-only perturbation is 1:1 with the clean stream,
  // so a diff recovers exactly which points were teleported.
  std::unordered_map<int64_t, std::vector<traj::EdgeId>> clean_edges;
  for (const FleetPoint& p : clean) {
    clean_edges[p.vehicle_id].push_back(p.edge);
  }
  bool found_seed = false;
  for (uint64_t seed = 1; seed <= 64 && !found_seed; ++seed) {
    spec.seed = seed;
    ChaosInjector probe(spec, net_);
    const auto pts = probe.Perturb(clean);
    if (probe.counts().teleported == 0) continue;
    std::unordered_map<int64_t, int> last_was_teleport;
    std::unordered_map<int64_t, size_t> cursor;
    bool isolated = true;
    for (const FleetPoint& p : pts) {
      const size_t i = cursor[p.vehicle_id]++;
      const bool teleported = clean_edges[p.vehicle_id][i] != p.edge;
      if (teleported && last_was_teleport[p.vehicle_id]) {
        isolated = false;
        break;
      }
      last_was_teleport[p.vehicle_id] = teleported ? 1 : 0;
    }
    found_seed = isolated;
  }
  ASSERT_TRUE(found_seed) << "no seed in [1, 64] yields isolated teleports";
  const auto r = RunPerturbed(spec, RepairAll(), picks, clean);
  ASSERT_GT(r.counts.teleported, 0);
  EXPECT_EQ(r.stats.guard_teleports, r.counts.teleported);
  EXPECT_EQ(r.stats.points_rejected, r.counts.teleported);
  EXPECT_EQ(r.stats.guard_duplicates, 0);
  EXPECT_EQ(r.stats.guard_out_of_order, 0);
  EXPECT_EQ(r.stats.guard_clock_skew, 0);
  EXPECT_EQ(r.stats.guard_dropout_gaps, 0);
  EXPECT_EQ(r.stats.points_processed,
            r.counts.emitted - r.counts.teleported);
}

TEST_F(GuardTest, DropoutChaosIsExactlyCounted) {
  const auto picks = PickTrips(8);
  // First point one interval after StartTrip, so even a dropped *first*
  // point exposes a detectable gap against the seeded monotone clock.
  const auto clean = CleanStream(picks, /*first_offset=*/2.0);
  ChaosSpec spec;
  spec.drop_prob = 0.2;
  spec.seed = 47;
  IngestGuardConfig g = RepairAll();
  // The dataset samples every 2s; any gap above one lost point (4s) is a
  // dropout. Precedence puts dropout before teleport, so the spatial hole
  // a drop leaves never double-counts.
  g.dropout_gap_s = 3.0;
  const auto r = RunPerturbed(spec, g, picks, clean);
  ASSERT_GT(r.counts.drop_gaps, 0);
  EXPECT_EQ(r.stats.guard_dropout_gaps, r.counts.drop_gaps);
  EXPECT_EQ(r.stats.guard_teleports, 0);
  EXPECT_EQ(r.stats.guard_duplicates, 0);
  EXPECT_EQ(r.stats.guard_out_of_order, 0);
  EXPECT_EQ(r.stats.guard_clock_skew, 0);
  EXPECT_EQ(r.stats.points_rejected, 0);  // post-gap points are credible
  EXPECT_EQ(r.stats.points_processed, r.counts.emitted);
}

// ---------------------------------------------------------------------------
// Combined chaos: conservation, quarantine accounting, bounded divergence

TEST_F(GuardTest, CombinedChaosConservesAndBoundsDivergence) {
  const auto picks = PickTrips(12);
  ASSERT_GE(picks.size(), 8u);
  const auto clean = CleanStream(picks);
  IngestGuardConfig g = RepairAll();
  g.malformed_budget = 3;
  g.quarantine_recovery_points = 4;
  g.quarantine_evict_points = 64;

  // Reference: the same guard config over the untouched stream.
  ChaosSpec identity;
  const auto ref = RunPerturbed(identity, g, picks, clean);

  ChaosSpec spec;
  spec.drop_prob = 0.03;
  spec.dup_prob = 0.04;
  spec.reorder_prob = 0.03;
  spec.reorder_window = 3;
  spec.skew_prob = 0.02;
  spec.teleport_prob = 0.05;
  spec.seed = 11;
  const auto r = RunPerturbed(spec, g, picks, clean);

  // Trip conservation (every trip was EndTrip'd or quarantine-evicted).
  EXPECT_EQ(r.stats.trips_started,
            r.stats.trips_finished + r.stats.trips_evicted);
  // This spec is mild enough that no trip burns 64 quarantine points, so
  // every offered point found a live trip...
  ASSERT_EQ(r.stats.quarantine_evictions, 0);
  // ...and the disposition partition holds to the point: offered ==
  // processed + rejected + quarantine-dropped.
  EXPECT_EQ(r.counts.emitted, r.stats.points_processed +
                                  r.stats.points_rejected +
                                  r.stats.points_quarantine_dropped);
  // Exactly-once quarantine notification: sink events == counted episodes.
  int64_t quarantine_events = 0;
  for (const auto& [vid, seq] : r.events) {
    for (const std::string& e : seq) {
      if (e.rfind("quarantined:", 0) == 0) ++quarantine_events;
    }
  }
  EXPECT_EQ(quarantine_events, r.stats.trips_quarantined);

  // Bounded divergence: a vehicle the injector never touched must produce
  // the identical event sequence as the clean run.
  size_t untouched = 0;
  for (size_t v = 0; v < picks.size(); ++v) {
    const int64_t vid = static_cast<int64_t>(v);
    const auto it = r.perturbed.find(vid);
    if (it != r.perturbed.end() && it->second > 0) continue;
    ++untouched;
    const auto expected = ref.events.find(vid);
    const auto actual = r.events.find(vid);
    ASSERT_NE(expected, ref.events.end());
    ASSERT_NE(actual, r.events.end());
    EXPECT_EQ(actual->second, expected->second) << "vehicle " << vid;
  }
  // The spec is mild enough that the assertion is not vacuous.
  EXPECT_GT(untouched, 0u);
}

TEST_F(GuardTest, SyncAndAsyncIngestAgreeUnderChaosAcrossShards) {
  // The acceptance criterion: the metamorphic suite must hold for the
  // synchronous Feed path AND the async Submit path, with quarantine
  // active, across shard counts — the guard lives below both, applied
  // identically on the lane-drain FeedBatch path.
  const auto picks = PickTrips(10);
  ASSERT_GE(picks.size(), 8u);
  const auto clean = CleanStream(picks);
  ChaosSpec spec;
  spec.drop_prob = 0.02;
  spec.dup_prob = 0.04;
  spec.reorder_prob = 0.03;
  spec.skew_prob = 0.02;
  spec.teleport_prob = 0.08;
  spec.seed = 5;
  ChaosInjector injector(spec, net_);
  const std::vector<FleetPoint> pts = injector.Perturb(clean);

  IngestGuardConfig g = RepairAll();
  g.malformed_budget = 1;
  g.quarantine_recovery_points = 2;
  g.quarantine_evict_points = 8;

  // Synchronous reference.
  GuardSequenceSink ref_sink;
  FleetConfig ref_cfg;
  ref_cfg.guard = g;
  FleetMonitor ref(model_, ref_cfg, &ref_sink);
  StartAll(&ref, picks);
  for (const FleetPoint& p : pts) {
    (void)ref.Feed(p.vehicle_id, p.edge, p.timestamp);
  }
  for (size_t v = 0; v < picks.size(); ++v) {
    (void)ref.EndTrip(static_cast<int64_t>(v));
  }
  const auto expected = ref_sink.Take();
  const FleetStats ref_stats = ref.Stats();
  // The spec is hot enough that quarantine actually exercises.
  ASSERT_GT(ref_stats.trips_quarantined, 0);

  for (const size_t shards : {size_t{1}, size_t{4}, size_t{16}}) {
    GuardSequenceSink sink;
    FleetConfig cfg;
    cfg.guard = g;
    cfg.num_shards = shards;
    cfg.ingest_workers = shards;
    cfg.micro_batch = 8;
    cfg.async_alerts = true;
    FleetMonitor monitor(model_, cfg, &sink);
    StartAll(&monitor, picks);
    for (const FleetPoint& p : pts) {
      ASSERT_TRUE(monitor.Submit(p).ok());
    }
    for (size_t v = 0; v < picks.size(); ++v) {
      ASSERT_TRUE(monitor.SubmitEndTrip(static_cast<int64_t>(v)).ok());
    }
    monitor.Quiesce();

    EXPECT_EQ(sink.Take(), expected) << "shards " << shards;
    const FleetStats stats = monitor.Stats();
    EXPECT_EQ(stats.points_processed, ref_stats.points_processed);
    EXPECT_EQ(stats.guard_duplicates, ref_stats.guard_duplicates);
    EXPECT_EQ(stats.guard_out_of_order, ref_stats.guard_out_of_order);
    EXPECT_EQ(stats.guard_clock_skew, ref_stats.guard_clock_skew);
    EXPECT_EQ(stats.guard_dropout_gaps, ref_stats.guard_dropout_gaps);
    EXPECT_EQ(stats.guard_teleports, ref_stats.guard_teleports);
    EXPECT_EQ(stats.points_repaired, ref_stats.points_repaired);
    EXPECT_EQ(stats.points_rejected, ref_stats.points_rejected);
    EXPECT_EQ(stats.points_quarantine_dropped,
              ref_stats.points_quarantine_dropped);
    EXPECT_EQ(stats.trips_quarantined, ref_stats.trips_quarantined);
    EXPECT_EQ(stats.trips_recovered, ref_stats.trips_recovered);
    EXPECT_EQ(stats.quarantine_evictions, ref_stats.quarantine_evictions);
    EXPECT_EQ(stats.trips_finished, ref_stats.trips_finished);
    EXPECT_EQ(stats.trips_evicted, ref_stats.trips_evicted);
  }
}

// ---------------------------------------------------------------------------
// Durability: quarantine state rides fleet snapshots

TEST_F(GuardTest, QuarantineStateSnapshotsBitIdentically) {
  const auto picks = PickTrips(4);
  ASSERT_EQ(picks.size(), 4u);
  FleetConfig cfg;
  cfg.guard = RepairAll();
  cfg.guard.malformed_budget = 1;
  cfg.guard.quarantine_recovery_points = 3;
  cfg.guard.quarantine_evict_points = 0;
  CollectingSink sink;
  FleetMonitor monitor(model_, cfg, &sink);
  StartAll(&monitor, picks);
  for (size_t v = 0; v < picks.size(); ++v) {
    ASSERT_TRUE(monitor
                    .Feed(static_cast<int64_t>(v), picks[v]->edges[0],
                          picks[v]->start_time)
                    .ok());
    ASSERT_TRUE(monitor
                    .Feed(static_cast<int64_t>(v), picks[v]->edges[1],
                          picks[v]->start_time + 2.0)
                    .ok());
  }
  // Quarantine vehicle 0 mid-stream.
  const traj::EdgeId far = UnreachableFrom(*net_, picks[0]->edges[1], 2);
  ASSERT_NE(far, roadnet::kInvalidEdge);
  (void)monitor.Feed(0, far, picks[0]->start_time + 4.0);
  (void)monitor.Feed(0, far, picks[0]->start_time + 6.0);
  auto quarantined = monitor.TripQuarantined(0);
  ASSERT_TRUE(quarantined.ok());
  ASSERT_TRUE(*quarantined);

  BinaryWriter snap;
  ASSERT_TRUE(monitor.Snapshot(&snap, "quarantine").ok());

  // The model-free inspector sees the quarantine.
  const std::string path =
      ::testing::TempDir() + "/rl4oasd_guard_snapshot_test.snap";
  ASSERT_TRUE(snap.WriteToFile(path).ok());
  auto desc = io::DescribeFleetSnapshot(path);
  ASSERT_TRUE(desc.ok()) << desc.status().ToString();
  EXPECT_EQ(desc->quarantined_trips, 1u);
  EXPECT_EQ(desc->counter(io::FleetCounter::kTripsQuarantined), 1);
  bool found = false;
  for (const auto& trip : desc->trips) {
    if (trip.vehicle_id == 0) {
      EXPECT_TRUE(trip.quarantined);
      found = true;
    } else {
      EXPECT_FALSE(trip.quarantined);
    }
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());

  // Restore into a fresh monitor; re-snapshotting reproduces the original
  // bytes exactly (the acceptance bar: guard state is part of the trip's
  // durable identity, not an approximation of it).
  CollectingSink resumed_sink;
  FleetMonitor resumed(model_, cfg, &resumed_sink);
  BinaryReader reader(snap.buffer());
  ASSERT_TRUE(resumed.Restore(&reader).ok());
  testing::ExpectSnapshottedStatsEqual(resumed.Stats(), monitor.Stats());
  BinaryWriter snap2;
  ASSERT_TRUE(resumed.Snapshot(&snap2, "quarantine").ok());
  EXPECT_EQ(snap.buffer(), snap2.buffer());

  // The restored fleet resumes mid-quarantine: still dropping, and the
  // recovery streak picks up where it left off.
  quarantined = resumed.TripQuarantined(0);
  ASSERT_TRUE(quarantined.ok());
  EXPECT_TRUE(*quarantined);
  EXPECT_EQ(resumed.Feed(0, picks[0]->edges[2], picks[0]->start_time + 8.0)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(resumed.Feed(0, picks[0]->edges[3], picks[0]->start_time + 10.0)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(
      resumed.Feed(0, picks[0]->edges[4], picks[0]->start_time + 12.0).ok());
  quarantined = resumed.TripQuarantined(0);
  ASSERT_TRUE(quarantined.ok());
  EXPECT_FALSE(*quarantined);
  EXPECT_EQ(resumed.Stats().trips_recovered, 1);
}

// ---------------------------------------------------------------------------
// Concurrency: guard + quarantine under the async pipeline (CI TSAN job)

TEST_F(GuardTest, GuardAndQuarantineStressConserves) {
  // Producers push deterministic per-vehicle streams salted with teleports
  // (every 4th point) through the async pipeline while an evictor yanks
  // trips, forcing quarantine entries, recoveries, quarantine evictions,
  // and staleness evictions to interleave. After the drain, every identity
  // must hold to the point.
  const auto picks = PickTrips(6);
  ASSERT_GE(picks.size(), 4u);
  FleetConfig cfg;
  cfg.guard = RepairAll();
  cfg.guard.malformed_budget = 1;
  cfg.guard.quarantine_recovery_points = 2;
  cfg.guard.quarantine_evict_points = 6;
  cfg.trip_timeout_s = 50.0;
  cfg.num_shards = 4;
  cfg.ingest_workers = 4;
  cfg.micro_batch = 8;
  cfg.async_alerts = true;
  CollectingSink sink;
  FleetMonitor monitor(model_, cfg, &sink);

  // Deterministic prelude before any eviction pressure exists: guarantees
  // the teleport counter is exercised even if the evictor later wins every
  // race against the producers.
  {
    const auto* t = picks[0];
    ASSERT_TRUE(monitor.StartTrip(999999, t->sd(), t->start_time).ok());
    ASSERT_TRUE(monitor.Submit({999999, t->edges[0], t->start_time}).ok());
    const traj::EdgeId far = UnreachableFrom(*net_, t->edges[0], 2);
    ASSERT_NE(far, roadnet::kInvalidEdge);
    ASSERT_TRUE(monitor.Submit({999999, far, t->start_time + 2.0}).ok());
    ASSERT_TRUE(monitor.SubmitEndTrip(999999).ok());
    monitor.Quiesce();
    ASSERT_GT(monitor.Stats().guard_teleports, 0);
  }

  constexpr int kThreads = 4;
  constexpr int kTripsPerThread = 5;
  std::atomic<int> started{1};  // the prelude trip
  std::atomic<bool> stop_evictor{false};
  std::thread evictor([&] {
    while (!stop_evictor.load()) {
      monitor.EvictStale(1e12);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th] {
      for (int k = 0; k < kTripsPerThread; ++k) {
        const auto* t = picks[static_cast<size_t>(th * 7 + k * 3) %
                              picks.size()];
        const int64_t vid = th * 1000 + k;
        if (!monitor.StartTrip(vid, t->sd(), t->start_time).ok()) continue;
        started.fetch_add(1);
        const traj::EdgeId far = UnreachableFrom(*net_, t->edges[0], 2);
        for (size_t i = 0; i < t->edges.size(); ++i) {
          const traj::EdgeId e = (i % 4 == 3) ? far : t->edges[i];
          ASSERT_TRUE(monitor
                          .Submit({vid, e,
                                   t->start_time +
                                       2.0 * static_cast<double>(i)})
                          .ok());
        }
        ASSERT_TRUE(monitor.SubmitEndTrip(vid).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  stop_evictor.store(true);
  evictor.join();
  monitor.Quiesce();
  monitor.EvictStale(1e12);  // clear any trip whose end marker lost a race
  monitor.Quiesce();

  EXPECT_EQ(monitor.ActiveTrips(), 0u);
  const FleetStats stats = monitor.Stats();
  EXPECT_EQ(stats.trips_started, started.load());
  EXPECT_EQ(stats.trips_started, stats.trips_finished + stats.trips_evicted);
  EXPECT_EQ(stats.points_shed, 0);
  // Under kBlock nothing is shed, so every submitted point was either fed,
  // guard-dropped, or skipped because the evictor removed its trip first —
  // the first three buckets can never exceed what was submitted.
  EXPECT_GE(stats.points_submitted,
            stats.points_processed + stats.points_rejected +
                stats.points_quarantine_dropped);
  EXPECT_EQ(stats.alerts_delivered, stats.alerts_emitted);
  EXPECT_GT(stats.guard_teleports, 0);
  // Quarantine evictions are a subset of all evictions, and every sink
  // notification corresponds to a counted episode.
  EXPECT_LE(stats.quarantine_evictions, stats.trips_evicted);
  EXPECT_EQ(static_cast<int64_t>(sink.NumQuarantined()),
            stats.trips_quarantined);
  EXPECT_EQ(static_cast<int64_t>(sink.NumEvicted()), stats.trips_evicted);
  EXPECT_EQ(static_cast<int64_t>(sink.NumFinished()), stats.trips_finished);
}

}  // namespace
}  // namespace rl4oasd::serve
