// Tests for the fleet monitoring service: trip lifecycle, alert-on-formation
// semantics, eviction, service counters, and thread-safe concurrent ingest.
#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/model_io.h"
#include "serve/fleet.h"
#include "test_util.h"

namespace rl4oasd::serve {
namespace {

/// One small trained model shared by every test in the suite (training takes
/// a few seconds; the tests only need a consistent detector).
class FleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new roadnet::RoadNetwork(testing::SmallGrid());
    dataset_ = new traj::Dataset(testing::SmallDataset(*net_, 6, 0.12));
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
    model_ = new core::Rl4Oasd(net_, cfg);
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

  /// Feeds a whole trajectory through the monitor as vehicle `vid`.
  static std::vector<uint8_t> RunTrip(FleetMonitor* monitor, int64_t vid,
                                      const traj::MapMatchedTrajectory& t) {
    EXPECT_TRUE(monitor->StartTrip(vid, t.sd(), t.start_time).ok());
    double ts = t.start_time;
    for (traj::EdgeId e : t.edges) {
      auto label = monitor->Feed(vid, e, ts);
      EXPECT_TRUE(label.ok());
      ts += 2.0;  // paper sampling rate: 2-4 s
    }
    auto labels = monitor->EndTrip(vid);
    EXPECT_TRUE(labels.ok());
    return labels.ValueOr({});
  }

  static roadnet::RoadNetwork* net_;
  static traj::Dataset* dataset_;
  static core::Rl4Oasd* model_;
};

roadnet::RoadNetwork* FleetTest::net_ = nullptr;
traj::Dataset* FleetTest::dataset_ = nullptr;
core::Rl4Oasd* FleetTest::model_ = nullptr;

TEST_F(FleetTest, TripLifecycle) {
  CollectingSink sink;
  FleetMonitor monitor(model_, {}, &sink);
  const auto& t = (*dataset_)[0].traj;

  EXPECT_EQ(monitor.ActiveTrips(), 0u);
  ASSERT_TRUE(monitor.StartTrip(7, t.sd(), t.start_time).ok());
  EXPECT_EQ(monitor.ActiveTrips(), 1u);

  for (traj::EdgeId e : t.edges) {
    auto label = monitor.Feed(7, e, t.start_time);
    ASSERT_TRUE(label.ok());
    EXPECT_TRUE(*label == 0 || *label == 1);
  }
  auto labels = monitor.EndTrip(7);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(labels->size(), t.edges.size());
  EXPECT_EQ(monitor.ActiveTrips(), 0u);

  const FleetStats stats = monitor.Stats();
  EXPECT_EQ(stats.trips_started, 1);
  EXPECT_EQ(stats.trips_finished, 1);
  EXPECT_EQ(stats.points_processed,
            static_cast<int64_t>(t.edges.size()));
  EXPECT_EQ(sink.NumFinished(), 1u);
}

TEST_F(FleetTest, MonitorLabelsMatchBatchDetection) {
  // The streaming service must reproduce Rl4Oasd::Detect exactly.
  CollectingSink sink;
  FleetMonitor monitor(model_, {}, &sink);
  for (size_t i = 0; i < 30; ++i) {
    const auto& t = (*dataset_)[i].traj;
    if (t.edges.size() < 2) continue;
    EXPECT_EQ(RunTrip(&monitor, static_cast<int64_t>(i), t),
              model_->Detect(t))
        << "trajectory " << i;
  }
}

TEST_F(FleetTest, DoubleStartRejected) {
  FleetMonitor monitor(model_, {}, nullptr);
  const auto& t = (*dataset_)[0].traj;
  ASSERT_TRUE(monitor.StartTrip(1, t.sd(), 0.0).ok());
  const Status st = monitor.StartTrip(1, t.sd(), 0.0);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST_F(FleetTest, FeedAndEndWithoutStartRejected) {
  FleetMonitor monitor(model_, {}, nullptr);
  EXPECT_EQ(monitor.Feed(99, 0, 0.0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(monitor.EndTrip(99).status().code(), StatusCode::kNotFound);
}

TEST_F(FleetTest, AnomalousTripEmitsAlert) {
  CollectingSink sink;
  FleetMonitor monitor(model_, {}, &sink);
  // Find anomalous trajectories the batch detector actually flags, and
  // verify the streaming path alerts on them.
  int checked = 0;
  int64_t vid = 1000;
  for (const auto& lt : dataset_->trajs()) {
    if (!lt.HasAnomaly() || lt.traj.edges.size() < 2) continue;
    const auto batch = model_->Detect(lt.traj);
    const auto batch_runs = traj::ExtractAnomalousRuns(batch);
    if (batch_runs.empty()) continue;

    const size_t alerts_before = sink.NumAlerts();
    RunTrip(&monitor, vid++, lt.traj);
    EXPECT_GT(sink.NumAlerts(), alerts_before)
        << "trajectory " << lt.traj.id << " flagged in batch but no alert";
    if (++checked >= 5) break;
  }
  EXPECT_GT(checked, 0) << "dataset produced no detectable anomalies";
}

TEST_F(FleetTest, AlertRangesMatchFinalRuns) {
  CollectingSink sink;
  FleetMonitor monitor(model_, {}, &sink);
  for (const auto& lt : dataset_->trajs()) {
    if (!lt.HasAnomaly() || lt.traj.edges.size() < 2) continue;
    const auto labels = RunTrip(&monitor, 1, lt.traj);
    const auto final_runs = traj::ExtractAnomalousRuns(labels);
    const auto alerts = sink.TakeAlerts();
    // Every alert must correspond to an anomalous region: each alerted range
    // overlaps some final run (DL post-processing may extend boundaries).
    for (const Alert& a : alerts) {
      bool overlaps = false;
      for (const auto& r : final_runs) {
        if (a.range.begin < r.end && r.begin < a.range.end) overlaps = true;
      }
      EXPECT_TRUE(overlaps) << "alert [" << a.range.begin << ","
                            << a.range.end << ") matches no final run";
    }
    // And every final run was alerted at least once.
    if (!final_runs.empty()) {
      EXPECT_GE(alerts.size(), final_runs.size());
    }
    break;
  }
}

TEST_F(FleetTest, StatsCountAlerts) {
  CollectingSink sink;
  FleetMonitor monitor(model_, {}, &sink);
  int64_t vid = 0;
  for (size_t i = 0; i < 40; ++i) {
    const auto& t = (*dataset_)[i].traj;
    if (t.edges.size() < 2) continue;
    RunTrip(&monitor, vid++, t);
  }
  EXPECT_EQ(monitor.Stats().alerts_emitted,
            static_cast<int64_t>(sink.NumAlerts()));
}

TEST_F(FleetTest, EvictStaleDropsIdleTrips) {
  FleetConfig cfg;
  cfg.trip_timeout_s = 100.0;
  FleetMonitor monitor(model_, cfg, nullptr);
  const auto& t = (*dataset_)[0].traj;
  ASSERT_TRUE(monitor.StartTrip(1, t.sd(), 0.0).ok());
  ASSERT_TRUE(monitor.StartTrip(2, t.sd(), 0.0).ok());
  ASSERT_TRUE(monitor.Feed(2, t.edges[0], 500.0).ok());

  // Vehicle 1 last updated at t=0, vehicle 2 at t=500.
  EXPECT_EQ(monitor.EvictStale(550.0), 1u);
  EXPECT_EQ(monitor.ActiveTrips(), 1u);
  EXPECT_EQ(monitor.Feed(1, t.edges[0], 551.0).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(monitor.Feed(2, t.edges[1], 551.0).ok());
  EXPECT_EQ(monitor.Stats().trips_evicted, 1);
}

TEST_F(FleetTest, MaxActiveTripsEvictsStalest) {
  FleetConfig cfg;
  cfg.max_active_trips = 3;
  FleetMonitor monitor(model_, cfg, nullptr);
  const auto& t = (*dataset_)[0].traj;
  for (int64_t v = 0; v < 3; ++v) {
    ASSERT_TRUE(monitor.StartTrip(v, t.sd(), 100.0 * static_cast<double>(v))
                    .ok());
  }
  EXPECT_EQ(monitor.ActiveTrips(), 3u);
  // The cap is reached: starting a fourth evicts vehicle 0 (stalest).
  ASSERT_TRUE(monitor.StartTrip(100, t.sd(), 400.0).ok());
  EXPECT_EQ(monitor.ActiveTrips(), 3u);
  EXPECT_EQ(monitor.Feed(0, t.edges[0], 401.0).status().code(),
            StatusCode::kNotFound);
}

TEST_F(FleetTest, AlertsMatchFinalRunsExactlyOncePerRun) {
  // The duplicate/lost-alert regression at the service level: for every
  // trip, the alert stream must equal the final post-processed runs exactly
  // — one alert per run, begins strictly increasing, nothing re-reported
  // when Delayed Labeling merges fragments and nothing skipped.
  int64_t vid = 5000;
  for (const auto& lt : dataset_->trajs()) {
    if (lt.traj.edges.size() < 2) continue;
    CollectingSink sink;
    FleetMonitor monitor(model_, {}, &sink);
    const auto labels = RunTrip(&monitor, vid++, lt.traj);
    const auto final_runs = traj::ExtractAnomalousRuns(labels);
    const auto alerts = sink.TakeAlerts();
    ASSERT_EQ(alerts.size(), final_runs.size()) << "trajectory " << lt.traj.id;
    for (size_t i = 0; i < alerts.size(); ++i) {
      EXPECT_EQ(alerts[i].range, final_runs[i]) << "trajectory " << lt.traj.id;
      if (i > 0) {
        EXPECT_GT(alerts[i].range.begin, alerts[i - 1].range.begin);
      }
    }
  }
}

TEST_F(FleetTest, EvictionAlertsOpenTailAndNotifiesSink) {
  // Find a trajectory whose streaming session still reports an anomaly at
  // the end of the feed, replay it without EndTrip, and evict: every run
  // (finalized or still open) must have been alerted, and the sink must be
  // told about the eviction — nothing vanishes silently.
  for (const auto& lt : dataset_->trajs()) {
    if (!lt.HasAnomaly() || lt.traj.edges.size() < 2) continue;
    auto reference = model_->StartSession(lt.traj.sd(), lt.traj.start_time);
    for (traj::EdgeId e : lt.traj.edges) reference.Feed(e);
    const auto expected = reference.CurrentAnomalies();
    if (expected.empty()) continue;

    CollectingSink sink;
    FleetConfig cfg;
    cfg.trip_timeout_s = 100.0;
    FleetMonitor monitor(model_, cfg, &sink);
    ASSERT_TRUE(
        monitor.StartTrip(42, lt.traj.sd(), lt.traj.start_time).ok());
    for (traj::EdgeId e : lt.traj.edges) {
      ASSERT_TRUE(monitor.Feed(42, e, lt.traj.start_time).ok());
    }
    ASSERT_EQ(monitor.EvictStale(lt.traj.start_time + 500.0), 1u);

    const auto alerts = sink.TakeAlerts();
    ASSERT_EQ(alerts.size(), expected.size());
    for (size_t i = 0; i < alerts.size(); ++i) {
      EXPECT_EQ(alerts[i].range, expected[i]);
      // (vehicle_id, trip_start_time) identifies the trip across restarts.
      EXPECT_EQ(alerts[i].trip_start_time, lt.traj.start_time);
    }
    const auto evicted = sink.TakeEvicted();
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0].first, 42);
    EXPECT_EQ(evicted[0].second.size(), lt.traj.edges.size());
    EXPECT_EQ(sink.NumFinished(), 0u);
    const FleetStats stats = monitor.Stats();
    EXPECT_EQ(stats.trips_evicted, 1);
    EXPECT_EQ(stats.alerts_emitted, static_cast<int64_t>(alerts.size()));
    EXPECT_EQ(monitor.ActiveTrips(), 0u);
    return;  // one qualifying trajectory is enough
  }
  GTEST_SKIP() << "dataset produced no trip with a detectable anomaly";
}

TEST_F(FleetTest, DuplicateStartAtCapEvictsNothing) {
  // A StartTrip that fails (duplicate vehicle) must not evict a live trip
  // to make room for the trip it never starts.
  CollectingSink sink;
  FleetConfig cfg;
  cfg.max_active_trips = 1;
  FleetMonitor monitor(model_, cfg, &sink);
  const auto& t = (*dataset_)[0].traj;
  ASSERT_TRUE(monitor.StartTrip(1, t.sd(), 0.0).ok());
  EXPECT_EQ(monitor.StartTrip(1, t.sd(), 5.0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(monitor.ActiveTrips(), 1u);
  EXPECT_EQ(monitor.Stats().trips_evicted, 0);
  EXPECT_EQ(sink.NumEvicted(), 0u);
}

/// Parks the *first* eviction callback until the test opens the gate, and
/// records every victim. Lets a test freeze one StartTrip inside its
/// eviction (mid-admission) while another runs to completion — the exact
/// interleaving behind the historical cap-overshoot race, made
/// deterministic (no reliance on scheduler timing, works on one core).
class EvictGateSink : public AlertSink {
 public:
  void OnAlert(const Alert&) override {}
  void OnTripEvicted(int64_t vehicle_id, double /*trip_start_time*/,
                     const std::vector<uint8_t>&) override {
    common::MutexLock lock(&mu_);
    victims_.push_back(vehicle_id);
    if (victims_.size() == 1) {
      entered_cv_.NotifyAll();
      while (!open_) gate_cv_.Wait(&mu_);
    }
  }
  void AwaitFirstEviction() {
    common::MutexLock lock(&mu_);
    while (victims_.empty()) entered_cv_.Wait(&mu_);
  }
  void Open() {
    common::MutexLock lock(&mu_);
    open_ = true;
    gate_cv_.NotifyAll();
  }
  std::vector<int64_t> Victims() {
    common::MutexLock lock(&mu_);
    return victims_;
  }

 private:
  mutable common::Mutex mu_;
  common::CondVar entered_cv_;
  common::CondVar gate_cv_;
  std::vector<int64_t> victims_ RL4OASD_GUARDED_BY(mu_);
  bool open_ RL4OASD_GUARDED_BY(mu_) = false;
};

TEST_F(FleetTest, StartTripRacingEvictionNeverOvershootsCap) {
  // Deterministic regression for the StartTrip cap race. Old order:
  // check-active-then-evict-then-insert. Freeze starter A inside the
  // eviction it performs for its own admission (the victim is already
  // removed and uncounted, A's trip not yet inserted); let starter B run
  // start-to-finish in that window. B observes active < cap, skips
  // eviction, and admits; when A resumes and inserts, active lands above
  // the cap — and *stays* there, because nothing ever re-checks. With
  // reservation atomic to admission, each over-cap admission pays its own
  // eviction and the final count is exactly the cap, whatever the
  // interleaving.
  const auto& t = (*dataset_)[0].traj;
  EvictGateSink sink;
  FleetConfig cfg;
  cfg.max_active_trips = 1;
  FleetMonitor monitor(model_, cfg, &sink);
  ASSERT_TRUE(monitor.StartTrip(1, t.sd(), 0.0).ok());

  std::thread starter_a([&] {
    ASSERT_TRUE(monitor.StartTrip(2, t.sd(), 20.0).ok());
  });
  sink.AwaitFirstEviction();  // A is frozen mid-StartTrip, mid-eviction
  ASSERT_TRUE(monitor.StartTrip(3, t.sd(), 30.0).ok());
  sink.Open();
  starter_a.join();

  // Quiescent now: the cap must hold exactly, and every trip must be
  // accounted for.
  EXPECT_EQ(monitor.ActiveTrips(), 1u);
  const FleetStats stats = monitor.Stats();
  EXPECT_EQ(stats.trips_started, 3);
  EXPECT_EQ(stats.trips_started,
            stats.trips_evicted + static_cast<int64_t>(monitor.ActiveTrips()));
  const auto victims = sink.Victims();
  EXPECT_EQ(victims.size(), static_cast<size_t>(stats.trips_evicted));
  EXPECT_EQ(victims[0], 1);  // the stalest trip goes first
}

TEST_F(FleetTest, RacingDuplicateStartNeverEvictsInnocent) {
  // Regression: StartTrip used to evict *before* inserting, so when two
  // threads raced a start for the same vehicle at the cap, the loser passed
  // the duplicate pre-check, evicted an innocent stalest trip, and then
  // failed at the insert anyway — the fleet lost a live trip for a start
  // that never happened. Post-fix only an admitted start evicts, so each
  // round must evict exactly one trip (paid by the winner) and the
  // second-stalest trip must survive.
  const auto& t = (*dataset_)[0].traj;
  for (int iter = 0; iter < 25; ++iter) {
    CollectingSink sink;
    FleetConfig cfg;
    cfg.max_active_trips = 2;
    FleetMonitor monitor(model_, cfg, &sink);
    ASSERT_TRUE(monitor.StartTrip(1, t.sd(), 0.0).ok());   // stalest: fair game
    ASSERT_TRUE(monitor.StartTrip(2, t.sd(), 10.0).ok());  // innocent bystander
    std::atomic<int> admitted{0};
    std::atomic<int> rejected{0};
    // Spin barrier: both racers enter StartTrip together, so both pass the
    // duplicate pre-check before either inserts.
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    auto racer = [&] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      const Status st = monitor.StartTrip(3, t.sd(), 20.0);
      if (st.ok()) {
        admitted.fetch_add(1);
      } else if (st.code() == StatusCode::kFailedPrecondition) {
        rejected.fetch_add(1);
      }
    };
    std::thread a(racer);
    std::thread b(racer);
    while (ready.load() != 2) {
    }
    go.store(true, std::memory_order_release);
    a.join();
    b.join();
    EXPECT_EQ(admitted.load(), 1);
    EXPECT_EQ(rejected.load(), 1);
    // Exactly one eviction — the winner's — and the victim is the stalest
    // trip, never the bystander.
    EXPECT_EQ(monitor.ActiveTrips(), 2u);
    EXPECT_EQ(monitor.Stats().trips_evicted, 1);
    const auto evicted = sink.TakeEvicted();
    ASSERT_EQ(evicted.size(), 1u) << "iteration " << iter;
    EXPECT_EQ(evicted[0].first, 1) << "iteration " << iter;
    EXPECT_TRUE(monitor.Feed(2, t.edges[0], 30.0).ok());
  }
}

TEST_F(FleetTest, ConcurrentStartersNeverOvershootCap) {
  // Regression: StartTrip used to check the cap before inserting, so N
  // concurrent starters could each observe active < cap and admit cap+N-1
  // trips with nobody evicting — and once the count sat above the cap,
  // nothing ever brought it back down. Reservation is now atomic with
  // admission (distinct indices), so every over-cap admission evicts
  // exactly once and the quiescent count lands exactly on the cap. Each
  // round is a barrier-synced burst of starters crossing the cap boundary
  // together (the racy moment). Runs under the CI ThreadSanitizer job.
  const auto& t = (*dataset_)[0].traj;
  constexpr size_t kCap = 4;
  constexpr int kThreads = 8;
  constexpr int kRounds = 10;
  for (int round = 0; round < kRounds; ++round) {
    CollectingSink sink;
    FleetConfig cfg;
    cfg.max_active_trips = kCap;
    cfg.num_shards = 4;  // force cross-thread shard sharing
    FleetMonitor monitor(model_, cfg, &sink);
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int th = 0; th < kThreads; ++th) {
      threads.emplace_back([&, th] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
        }
        ASSERT_TRUE(monitor.StartTrip(th, t.sd(), static_cast<double>(th))
                        .ok());
      });
    }
    while (ready.load() != kThreads) {
    }
    go.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();

    // Quiescent: every over-cap admission has paid its eviction.
    EXPECT_EQ(monitor.ActiveTrips(), kCap) << "round " << round;
    const FleetStats stats = monitor.Stats();
    EXPECT_EQ(stats.trips_started, kThreads);
    EXPECT_EQ(stats.trips_started,
              stats.trips_evicted + static_cast<int64_t>(kCap));
    EXPECT_EQ(stats.trips_evicted, static_cast<int64_t>(sink.NumEvicted()));
  }
}

TEST_F(FleetTest, CapEvictionNotifiesSink) {
  CollectingSink sink;
  FleetConfig cfg;
  cfg.max_active_trips = 2;
  FleetMonitor monitor(model_, cfg, &sink);
  const auto& t = (*dataset_)[0].traj;
  ASSERT_TRUE(monitor.StartTrip(1, t.sd(), 0.0).ok());
  ASSERT_TRUE(monitor.StartTrip(2, t.sd(), 10.0).ok());
  // The cap is reached: the third start evicts vehicle 1 (stalest) and the
  // sink hears about it.
  ASSERT_TRUE(monitor.StartTrip(3, t.sd(), 20.0).ok());
  const auto evicted = sink.TakeEvicted();
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].first, 1);
  EXPECT_EQ(monitor.Stats().trips_evicted, 1);
  EXPECT_EQ(monitor.ActiveTrips(), 2u);
}

TEST_F(FleetTest, FingerprintIdenticalSwapRejectedAsNoOp) {
  // SwapModel's contract: a fine-tuned refresh arrives as a separate
  // instance with different bytes. A byte-identical handle (here: a clone)
  // cannot change served behaviour, so the swap is rejected — the incoming
  // model is returned unchanged, the generation does not advance, and no
  // in-flight trip pays a re-prime.
  CollectingSink sink;
  FleetMonitor monitor(model_, {}, &sink);
  const auto& t = (*dataset_)[0].traj;
  ASSERT_TRUE(monitor.StartTrip(1, t.sd(), t.start_time).ok());
  ASSERT_TRUE(monitor.Feed(1, t.edges[0], t.start_time).ok());

  const uint64_t gen_before = monitor.ModelGeneration();
  const auto live_before = monitor.model();
  auto clone_result = io::CloneModel(net_, *model_);
  ASSERT_TRUE(clone_result.ok()) << clone_result.status().ToString();
  std::shared_ptr<const core::Rl4Oasd> clone = std::move(clone_result).value();

  const auto returned = monitor.SwapModel(clone);
  EXPECT_EQ(returned.get(), clone.get());
  EXPECT_EQ(monitor.ModelGeneration(), gen_before);
  EXPECT_EQ(monitor.model().get(), live_before.get());

  // The mid-flight trip streams on as if the call never happened.
  for (size_t i = 1; i < t.edges.size(); ++i) {
    ASSERT_TRUE(
        monitor.Feed(1, t.edges[i], t.start_time + 2.0 * static_cast<double>(i))
            .ok());
  }
  auto labels = monitor.EndTrip(1);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(*labels, model_->Detect(t));
}

TEST_F(FleetTest, FeedBatchMatchesPerPointFeed) {
  // The same two trajectories, interleaved into batches, must produce the
  // same labels and the same alerts as per-point Feed.
  const traj::MapMatchedTrajectory* a = nullptr;
  const traj::MapMatchedTrajectory* b = nullptr;
  for (const auto& lt : dataset_->trajs()) {
    if (lt.traj.edges.size() < 2) continue;
    if (a == nullptr) {
      a = &lt.traj;
    } else if (lt.HasAnomaly()) {
      b = &lt.traj;
      break;
    }
  }
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  CollectingSink per_point_sink;
  FleetMonitor per_point(model_, {}, &per_point_sink);
  const auto labels_a = RunTrip(&per_point, 1, *a);
  const auto labels_b = RunTrip(&per_point, 2, *b);

  CollectingSink batch_sink;
  FleetMonitor batched(model_, {}, &batch_sink);
  ASSERT_TRUE(batched.StartTrip(1, a->sd(), a->start_time).ok());
  ASSERT_TRUE(batched.StartTrip(2, b->sd(), b->start_time).ok());
  std::vector<FleetPoint> points;
  for (size_t i = 0; i < std::max(a->edges.size(), b->edges.size()); ++i) {
    if (i < a->edges.size()) {
      points.push_back({1, a->edges[i], a->start_time + 2.0 * i});
    }
    if (i < b->edges.size()) {
      points.push_back({2, b->edges[i], b->start_time + 2.0 * i});
    }
  }
  // Feed in uneven chunks to exercise batch boundaries.
  size_t offset = 0;
  size_t fed = 0;
  for (size_t chunk = 7; offset < points.size(); chunk = chunk * 2 + 1) {
    const size_t n = std::min(chunk, points.size() - offset);
    fed += batched.FeedBatch(
        std::span<const FleetPoint>(points.data() + offset, n));
    offset += n;
  }
  EXPECT_EQ(fed, points.size());
  // A batch point for an unknown vehicle is skipped, not fatal.
  const FleetPoint stray{99, a->edges[0], 0.0};
  EXPECT_EQ(batched.FeedBatch(std::span<const FleetPoint>(&stray, 1)), 0u);

  auto batch_a = batched.EndTrip(1);
  auto batch_b = batched.EndTrip(2);
  ASSERT_TRUE(batch_a.ok());
  ASSERT_TRUE(batch_b.ok());
  EXPECT_EQ(*batch_a, labels_a);
  EXPECT_EQ(*batch_b, labels_b);
  EXPECT_EQ(batch_sink.NumAlerts(), per_point_sink.NumAlerts());
  EXPECT_EQ(batched.Stats().points_processed,
            static_cast<int64_t>(points.size()));
}

TEST_F(FleetTest, FeedBatchMicroBatchingMatchesPerPointFeed) {
  // Wide waves: many concurrent trips interleaved round-robin, so FeedBatch
  // fuses real multi-trip model steps. Labels, per-vehicle alert sequences
  // (exactly-once, same run boundaries), and counters must all match the
  // per-point path.
  std::vector<const traj::MapMatchedTrajectory*> picks;
  for (const auto& lt : dataset_->trajs()) {
    if (lt.traj.edges.size() >= 2) picks.push_back(&lt.traj);
    if (picks.size() == 24) break;
  }
  ASSERT_GE(picks.size(), 8u);

  CollectingSink per_point_sink;
  FleetMonitor per_point(model_, {}, &per_point_sink);
  std::vector<std::vector<uint8_t>> expected(picks.size());
  for (size_t i = 0; i < picks.size(); ++i) {
    expected[i] = RunTrip(&per_point, static_cast<int64_t>(i), *picks[i]);
  }

  // Interleave one point per trip per round into one big point stream.
  std::vector<FleetPoint> points;
  size_t longest = 0;
  for (const auto* t : picks) longest = std::max(longest, t->edges.size());
  for (size_t i = 0; i < longest; ++i) {
    for (size_t v = 0; v < picks.size(); ++v) {
      if (i < picks[v]->edges.size()) {
        points.push_back({static_cast<int64_t>(v), picks[v]->edges[i],
                          picks[v]->start_time + 2.0 * static_cast<double>(i)});
      }
    }
  }

  for (const size_t micro_batch : {size_t{1}, size_t{4}, size_t{128}}) {
    CollectingSink batch_sink;
    FleetConfig cfg;
    cfg.micro_batch = micro_batch;
    FleetMonitor batched(model_, cfg, &batch_sink);
    for (size_t v = 0; v < picks.size(); ++v) {
      ASSERT_TRUE(batched
                      .StartTrip(static_cast<int64_t>(v), picks[v]->sd(),
                                 picks[v]->start_time)
                      .ok());
    }
    // Uneven chunks exercise both wide waves and ragged final batches.
    size_t offset = 0;
    size_t fed = 0;
    for (size_t chunk = 173; offset < points.size(); chunk = chunk * 2 + 7) {
      const size_t n = std::min(chunk, points.size() - offset);
      fed += batched.FeedBatch(
          std::span<const FleetPoint>(points.data() + offset, n));
      offset += n;
    }
    EXPECT_EQ(fed, points.size()) << "micro_batch " << micro_batch;
    for (size_t v = 0; v < picks.size(); ++v) {
      auto labels = batched.EndTrip(static_cast<int64_t>(v));
      ASSERT_TRUE(labels.ok());
      EXPECT_EQ(*labels, expected[v])
          << "vehicle " << v << " micro_batch " << micro_batch;
    }
    // Per-vehicle alert sequences must match exactly (cross-vehicle order
    // may differ between ingest strategies).
    auto split_by_vehicle = [&](std::vector<Alert> alerts) {
      std::vector<std::vector<traj::Subtrajectory>> by_vehicle(picks.size());
      for (const Alert& a : alerts) {
        by_vehicle[static_cast<size_t>(a.vehicle_id)].push_back(a.range);
      }
      return by_vehicle;
    };
    const auto batch_alerts = split_by_vehicle(batch_sink.TakeAlerts());
    const auto point_alerts = split_by_vehicle(per_point_sink.TakeAlerts());
    for (size_t v = 0; v < picks.size(); ++v) {
      EXPECT_EQ(batch_alerts[v], point_alerts[v])
          << "vehicle " << v << " micro_batch " << micro_batch;
    }
    // Re-collect the per-point alerts for the next micro_batch round.
    for (size_t v = 0; v < picks.size(); ++v) {
      for (const auto& r : point_alerts[v]) {
        per_point_sink.OnAlert(Alert{static_cast<int64_t>(v),
                                     picks[v]->sd(), picks[v]->start_time, r,
                                     0.0, 0});
      }
    }
    EXPECT_EQ(batched.Stats().points_processed,
              static_cast<int64_t>(points.size()));
  }
}

TEST_F(FleetTest, FeedBatchSameVehicleRunStaysOrdered) {
  // All points of one vehicle in a single batch: micro-batching degenerates
  // to one-point waves for that trip, and the result must equal Feed.
  const traj::MapMatchedTrajectory* pick = nullptr;
  for (const auto& lt : dataset_->trajs()) {
    if (lt.HasAnomaly() && lt.traj.edges.size() >= 4) {
      pick = &lt.traj;
      break;
    }
  }
  ASSERT_NE(pick, nullptr);
  CollectingSink per_point_sink;
  FleetMonitor per_point(model_, {}, &per_point_sink);
  const auto expected = RunTrip(&per_point, 7, *pick);

  CollectingSink batch_sink;
  FleetMonitor batched(model_, {}, &batch_sink);
  ASSERT_TRUE(batched.StartTrip(7, pick->sd(), pick->start_time).ok());
  std::vector<FleetPoint> points;
  for (size_t i = 0; i < pick->edges.size(); ++i) {
    points.push_back({7, pick->edges[i], pick->start_time + 2.0 * i});
  }
  EXPECT_EQ(batched.FeedBatch(points), points.size());
  auto labels = batched.EndTrip(7);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(*labels, expected);
  EXPECT_EQ(batch_sink.NumAlerts(), per_point_sink.NumAlerts());
}

TEST_F(FleetTest, FeedBatchConservationUnderConcurrentEviction) {
  // FeedBatch counterpart of the stress test above: batched ingest from
  // many threads with an aggressive evictor yanking trips between waves
  // (runs under the CI ThreadSanitizer job). A batch point whose trip is
  // evicted mid-batch takes the Feed fallback, which either reaches the
  // vehicle's live trip or is dropped — either way the counters must
  // conserve and every alert/lifecycle event reaches the sink exactly once.
  CollectingSink sink;
  FleetConfig cfg;
  cfg.trip_timeout_s = 50.0;
  cfg.num_shards = 4;
  cfg.micro_batch = 8;
  FleetMonitor monitor(model_, cfg, &sink);

  constexpr int kThreads = 8;
  constexpr int kTripsPerThread = 8;
  std::atomic<int> started{0};
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
      std::vector<FleetPoint> batch;
      for (int k = 0; k < kTripsPerThread; ++k) {
        const auto& lt =
            (*dataset_)[(static_cast<size_t>(th) * 17 +
                         static_cast<size_t>(k) * 5) %
                        dataset_->size()];
        const auto& t = lt.traj;
        if (t.edges.size() < 2) continue;
        const int64_t vid = th * 1000 + k;
        if (!monitor.StartTrip(vid, t.sd(), t.start_time).ok()) continue;
        started.fetch_add(1);
        batch.clear();
        for (traj::EdgeId e : t.edges) {
          batch.push_back({vid, e, t.start_time});
          if (batch.size() == 16) {
            (void)monitor.FeedBatch(batch);
            batch.clear();
          }
        }
        if (!batch.empty()) (void)monitor.FeedBatch(batch);
        (void)monitor.EndTrip(vid);  // NotFound when the evictor won
      }
    });
  }
  for (auto& th : threads) th.join();
  stop_evictor.store(true);
  evictor.join();
  monitor.EvictStale(1e12);

  EXPECT_EQ(monitor.ActiveTrips(), 0u);
  const FleetStats stats = monitor.Stats();
  EXPECT_EQ(stats.trips_started, started.load());
  EXPECT_EQ(stats.trips_started, stats.trips_finished + stats.trips_evicted);
  EXPECT_EQ(stats.alerts_emitted, static_cast<int64_t>(sink.NumAlerts()));
  EXPECT_EQ(stats.trips_finished, static_cast<int64_t>(sink.NumFinished()));
  EXPECT_EQ(stats.trips_evicted, static_cast<int64_t>(sink.NumEvicted()));
}

TEST_F(FleetTest, ConcurrentFeedBatchCallersShareWaves) {
  // Several threads pushing interleaved multi-vehicle batches at once:
  // wave locking must not deadlock (consistent Trip-address order), and
  // every label sequence must still match the serial detector.
  std::vector<const traj::LabeledTrajectory*> picks;
  for (const auto& lt : dataset_->trajs()) {
    if (lt.traj.edges.size() >= 2) picks.push_back(&lt);
    if (picks.size() == 12) break;
  }
  FleetMonitor monitor(model_, {}, nullptr);
  for (size_t v = 0; v < picks.size(); ++v) {
    ASSERT_TRUE(monitor
                    .StartTrip(static_cast<int64_t>(v), picks[v]->traj.sd(),
                               picks[v]->traj.start_time)
                    .ok());
  }
  // Thread t feeds the points of vehicles with v % kThreads == t, in round-
  // robin batches — concurrent FeedBatch calls with disjoint vehicles.
  constexpr size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (size_t th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th] {
      std::vector<FleetPoint> batch;
      size_t longest = 0;
      for (size_t v = th; v < picks.size(); v += kThreads) {
        longest = std::max(longest, picks[v]->traj.edges.size());
      }
      for (size_t i = 0; i < longest; ++i) {
        batch.clear();
        for (size_t v = th; v < picks.size(); v += kThreads) {
          const auto& edges = picks[v]->traj.edges;
          if (i < edges.size()) {
            batch.push_back({static_cast<int64_t>(v), edges[i],
                             picks[v]->traj.start_time});
          }
        }
        if (!batch.empty()) (void)monitor.FeedBatch(batch);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (size_t v = 0; v < picks.size(); ++v) {
    auto labels = monitor.EndTrip(static_cast<int64_t>(v));
    ASSERT_TRUE(labels.ok());
    EXPECT_EQ(*labels, model_->Detect(picks[v]->traj)) << "vehicle " << v;
  }
}

TEST_F(FleetTest, ConcurrentIngestFromManyThreads) {
  CollectingSink sink;
  FleetMonitor monitor(model_, {}, &sink);

  constexpr int kThreads = 8;
  constexpr int kTripsPerThread = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th] {
      for (int k = 0; k < kTripsPerThread; ++k) {
        const auto& lt =
            (*dataset_)[(static_cast<size_t>(th) * 31 + static_cast<size_t>(k)) %
                        dataset_->size()];
        const auto& t = lt.traj;
        if (t.edges.size() < 2) continue;
        const int64_t vid = th * 1000 + k;
        if (!monitor.StartTrip(vid, t.sd(), t.start_time).ok()) {
          ++failures;
          continue;
        }
        for (traj::EdgeId e : t.edges) {
          if (!monitor.Feed(vid, e, t.start_time).ok()) ++failures;
        }
        auto labels = monitor.EndTrip(vid);
        if (!labels.ok() || labels->size() != t.edges.size()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(monitor.ActiveTrips(), 0u);
  const FleetStats stats = monitor.Stats();
  EXPECT_EQ(stats.trips_started, stats.trips_finished);
  EXPECT_GT(stats.points_processed, 0);
}

TEST_F(FleetTest, StressConservationUnderConcurrentEviction) {
  // Ingest, trip lifecycle, and eviction all running concurrently. Designed
  // to run under ThreadSanitizer (the CI tsan job includes this suite).
  // Invariants checked at the end:
  //   * conservation: started == finished + evicted + active (== 0 here),
  //   * no lost or phantom alerts: monitor counter == sink delivery count,
  //   * every lifecycle event reached the sink exactly once.
  CollectingSink sink;
  FleetConfig cfg;
  cfg.trip_timeout_s = 50.0;
  cfg.num_shards = 4;  // force cross-thread shard sharing
  FleetMonitor monitor(model_, cfg, &sink);

  constexpr int kThreads = 8;
  constexpr int kTripsPerThread = 10;
  std::atomic<int64_t> ok_points{0};
  std::atomic<int> started{0};
  std::atomic<bool> stop_evictor{false};

  // One thread aggressively evicts "stale" trips while others feed: any
  // trip pausing between points can be yanked mid-flight.
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
        const auto& lt =
            (*dataset_)[(static_cast<size_t>(th) * 13 +
                         static_cast<size_t>(k) * 7) %
                        dataset_->size()];
        const auto& t = lt.traj;
        if (t.edges.size() < 2) continue;
        const int64_t vid = th * 1000 + k;
        if (!monitor.StartTrip(vid, t.sd(), t.start_time).ok()) continue;
        started.fetch_add(1);
        for (traj::EdgeId e : t.edges) {
          if (monitor.Feed(vid, e, t.start_time).ok()) {
            ok_points.fetch_add(1);
          } else {
            break;  // evicted mid-trip; the monitor already notified
          }
        }
        (void)monitor.EndTrip(vid);  // NotFound when the evictor won
      }
    });
  }
  for (auto& th : threads) th.join();
  stop_evictor.store(true);
  evictor.join();
  monitor.EvictStale(1e12);  // clear any remaining active trips

  EXPECT_EQ(monitor.ActiveTrips(), 0u);
  const FleetStats stats = monitor.Stats();
  EXPECT_EQ(stats.trips_started, started.load());
  EXPECT_EQ(stats.trips_started, stats.trips_finished + stats.trips_evicted);
  EXPECT_EQ(stats.points_processed, ok_points.load());
  EXPECT_EQ(stats.alerts_emitted, static_cast<int64_t>(sink.NumAlerts()));
  EXPECT_EQ(stats.trips_finished, static_cast<int64_t>(sink.NumFinished()));
  EXPECT_EQ(stats.trips_evicted, static_cast<int64_t>(sink.NumEvicted()));
}

TEST_F(FleetTest, ConcurrentResultsMatchSerialDetection) {
  // Interleaved multi-vehicle streaming must not cross-contaminate sessions:
  // run the same 16 trajectories concurrently and compare every label
  // sequence against the serial batch result.
  std::vector<const traj::LabeledTrajectory*> picks;
  for (const auto& lt : dataset_->trajs()) {
    if (lt.traj.edges.size() >= 2) picks.push_back(&lt);
    if (picks.size() == 16) break;
  }
  FleetMonitor monitor(model_, {}, nullptr);
  std::vector<std::vector<uint8_t>> streamed(picks.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < picks.size(); ++i) {
    threads.emplace_back([&, i] {
      streamed[i] = RunTrip(&monitor, static_cast<int64_t>(i),
                            picks[i]->traj);
    });
  }
  for (auto& th : threads) th.join();
  for (size_t i = 0; i < picks.size(); ++i) {
    EXPECT_EQ(streamed[i], model_->Detect(picks[i]->traj)) << "vehicle " << i;
  }
}

}  // namespace
}  // namespace rl4oasd::serve
