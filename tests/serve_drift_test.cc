// Tests for the drift-adaptation loop (serve::DriftAdapter and friends):
//   * DriftDetector — stationary traffic never trips the CUSUM/ratio tests,
//     sustained shifts in either channel (alert rate, NRF rate) fire exactly
//     once, ClearFire re-fires on a persisting shift, Reset re-arms after a
//     cooldown, and the min_abs_shift floor guards a near-zero reference;
//   * label harvester — every EndTrip-finalized trip is drained exactly
//     once, evicted trips are never harvested, the buffer is bounded with
//     oldest-first eviction;
//   * shadow gate — a worse candidate is rejected (no swap, backoff
//     engaged), a better candidate is promoted via SwapModel, and a
//     byte-identical candidate short-circuits to a rejection;
//   * the whole loop stays clean under ThreadSanitizer with a background
//     worker fine-tuning and hot-swapping against concurrent batched ingest
//     and eviction churn (the CI TSAN job runs this suite).
#include <atomic>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "io/model_io.h"
#include "serve/drift.h"
#include "serve/fleet.h"
#include "test_util.h"
#include "traj/dataset.h"

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

// ---------------------------------------------------------------------------
// DriftDetector: pure windowed statistics, no service involved.

DriftConfig DetectorOnly() {
  DriftConfig dc;
  dc.window_points = 100;
  dc.reference_windows = 2;
  dc.cusum_k = 0.02;
  dc.cusum_h = 0.10;
  dc.ratio_threshold = 2.0;
  dc.min_abs_shift = 0.05;
  return dc;
}

TEST(DriftDetectorTest, StaysQuietOnStationaryTraffic) {
  DriftDetector det(DetectorOnly());
  // 100 trips of 20 segments at constant 5% alert / 10% NRF rates.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(det.ObserveTrip(20, 1, 2)) << "trip " << i;
  }
  EXPECT_TRUE(det.armed());
  EXPECT_FALSE(det.fired());
  const auto& s = det.stats();
  EXPECT_EQ(s.windows_completed, 20u);  // 2000 segments / 100 per window
  EXPECT_DOUBLE_EQ(s.ref_alert_rate, 0.05);
  EXPECT_DOUBLE_EQ(s.ref_nrf_rate, 0.10);
  EXPECT_DOUBLE_EQ(s.cusum_alert, 0.0);  // rate == ref: allowance absorbs it
}

TEST(DriftDetectorTest, FiresOnceOnSustainedAlertRateShift) {
  DriftDetector det(DetectorOnly());
  for (int i = 0; i < 10; ++i) det.ObserveTrip(20, 1, 2);  // ref = 5%
  ASSERT_TRUE(det.armed());
  // The alert rate jumps to 25%: excess 0.25 - 0.05 - 0.02 = 0.18 crosses
  // h = 0.10 in the first completed window. The rising edge is reported
  // exactly once even though the shift persists.
  int rising_edges = 0;
  for (int i = 0; i < 20; ++i) {
    rising_edges += det.ObserveTrip(20, 5, 2) ? 1 : 0;
  }
  EXPECT_EQ(rising_edges, 1);
  EXPECT_TRUE(det.fired());
  EXPECT_GT(det.stats().last_alert_rate, det.stats().ref_alert_rate);
}

TEST(DriftDetectorTest, FiresOnNrfShiftAlone) {
  // The label-free channel: a route-popularity swap first shows up as
  // segments the historical statistics place on no normal route, even if
  // the model's alert rate lags.
  DriftDetector det(DetectorOnly());
  for (int i = 0; i < 10; ++i) det.ObserveTrip(20, 1, 2);
  ASSERT_TRUE(det.armed());
  int rising_edges = 0;
  for (int i = 0; i < 20; ++i) {
    rising_edges += det.ObserveTrip(20, 1, 10) ? 1 : 0;  // NRF 10% -> 50%
  }
  EXPECT_EQ(rising_edges, 1);
  EXPECT_TRUE(det.fired());
}

TEST(DriftDetectorTest, ClearFireRefiresOnPersistingShift) {
  DriftDetector det(DetectorOnly());
  for (int i = 0; i < 10; ++i) det.ObserveTrip(20, 1, 2);
  for (int i = 0; i < 10; ++i) det.ObserveTrip(20, 5, 2);
  ASSERT_TRUE(det.fired());
  // A rejected candidate un-latches the fire but keeps the saturated CUSUM:
  // the very next completed window of still-shifted traffic re-fires.
  det.ClearFire();
  EXPECT_FALSE(det.fired());
  int rising_edges = 0;
  for (int i = 0; i < 10; ++i) {
    rising_edges += det.ObserveTrip(20, 5, 2) ? 1 : 0;
  }
  EXPECT_EQ(rising_edges, 1);
}

TEST(DriftDetectorTest, ResetRearmsOnNewRegimeAfterCooldown) {
  DriftDetector det(DetectorOnly());
  for (int i = 0; i < 10; ++i) det.ObserveTrip(20, 1, 2);
  for (int i = 0; i < 10; ++i) det.ObserveTrip(20, 5, 2);
  ASSERT_TRUE(det.fired());

  // Post-swap: discard 200 segments of transition traffic, then collect a
  // fresh reference. The new regime's 25% rate becomes the new normal.
  det.Reset(/*cooldown_points=*/200);
  EXPECT_FALSE(det.fired());
  EXPECT_FALSE(det.armed());
  for (int i = 0; i < 10; ++i) det.ObserveTrip(20, 5, 2);  // cooldown eats 200
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(det.ObserveTrip(20, 5, 2)) << "trip " << i;
  }
  EXPECT_TRUE(det.armed());
  EXPECT_FALSE(det.fired());
  EXPECT_DOUBLE_EQ(det.stats().ref_alert_rate, 0.25);
  EXPECT_EQ(det.stats().cooldown_points_remaining, 0u);
}

TEST(DriftDetectorTest, MinAbsShiftFloorGuardsNearZeroReference) {
  DriftConfig dc = DetectorOnly();
  dc.reference_windows = 1;
  DriftDetector det(dc);
  for (int i = 0; i < 4; ++i) det.ObserveTrip(25, 0, 0);  // ref = 0%
  ASSERT_TRUE(det.armed());
  // A 4% flutter trivially beats ratio * 0 but stays under the absolute
  // floor (5%), and two windows of CUSUM excess (2 * 0.02) stay under h.
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(det.ObserveTrip(25, 1, 0)) << "trip " << i;
  }
  // Back to quiet: the CUSUM decays instead of latching later.
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(det.ObserveTrip(25, 0, 0)) << "trip " << i;
  }
  EXPECT_FALSE(det.fired());
}

// ---------------------------------------------------------------------------
// DriftAdapter: harvester and gate, driven deterministically via Poll().

class DriftTest : public ::testing::Test {
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

  /// Shared-ownership deep copy of the trained suite model.
  static std::shared_ptr<core::Rl4Oasd> TrainedClone() {
    auto cloned = io::CloneModel(net_, *model_);
    EXPECT_TRUE(cloned.ok()) << cloned.status().ToString();
    return std::shared_ptr<core::Rl4Oasd>(std::move(cloned).value());
  }

  /// An untrained model over the same network: a strictly worse candidate.
  static std::shared_ptr<core::Rl4Oasd> FreshModel(uint64_t seed) {
    core::Rl4OasdConfig cfg = TinyConfig();
    cfg.seed = seed;
    cfg.rsr.seed = seed + 1;
    cfg.asd.seed = seed + 2;
    return std::make_shared<core::Rl4Oasd>(net_, cfg);
  }

  /// Feeds one whole trajectory through the adapter's monitor as `vid`.
  static void RunTrip(DriftAdapter* adapter, int64_t vid,
                      const traj::MapMatchedTrajectory& t) {
    ASSERT_TRUE(adapter->monitor()->StartTrip(vid, t.sd(), t.start_time).ok());
    double ts = t.start_time;
    for (traj::EdgeId e : t.edges) {
      ASSERT_TRUE(adapter->monitor()->Feed(vid, e, ts).ok());
      ts += 2.0;
    }
    ASSERT_TRUE(adapter->monitor()->EndTrip(vid).ok());
  }

  /// A detector that never arms (windows never close): harvester-only tests.
  static DriftConfig HarvestOnly() {
    DriftConfig dc;
    dc.window_points = size_t{1} << 30;
    return dc;
  }

  /// A detector guaranteed to fire at the first tested window (negative
  /// CUSUM allowance, zero threshold), single-shot via huge backoff and
  /// cooldown — the gate runs exactly one cycle per test.
  static DriftConfig HairTrigger() {
    DriftConfig dc;
    dc.window_points = 150;
    dc.reference_windows = 1;
    dc.cusum_k = -1.0;
    dc.cusum_h = 0.0;
    dc.min_buffer_trips = 40;
    dc.shadow_trips = 32;
    dc.fine_tune_max_samples = 8;
    dc.reject_backoff_points = size_t{1} << 40;
    dc.post_swap_cooldown_points = size_t{1} << 40;
    return dc;
  }

  /// Feeds dataset trips in order (so SD-pair groups stay dense enough for
  /// the gate's reference statistics) until `done` or the cap is hit.
  template <typename DoneFn>
  static void FeedUntil(DriftAdapter* adapter, size_t max_trips, DoneFn done) {
    int64_t vid = 1;
    size_t fed = 0;
    for (const auto& lt : dataset_->trajs()) {
      if (lt.traj.edges.size() < 2) continue;
      RunTrip(adapter, vid++, lt.traj);
      adapter->Poll();
      if (done(adapter->Status())) return;
      if (++fed >= max_trips) return;
    }
  }

  static roadnet::RoadNetwork* net_;
  static traj::Dataset* dataset_;
  static core::Rl4Oasd* model_;
};

roadnet::RoadNetwork* DriftTest::net_ = nullptr;
traj::Dataset* DriftTest::dataset_ = nullptr;
core::Rl4Oasd* DriftTest::model_ = nullptr;

TEST_F(DriftTest, HarvestsEachFinishedTripExactlyOnce) {
  CollectingSink downstream;
  DriftAdapter adapter(net_, TrainedClone(), {}, HarvestOnly(), &downstream);
  int64_t vid = 1;
  size_t fed = 0;
  for (const auto& lt : dataset_->trajs()) {
    if (lt.traj.edges.size() < 2) continue;
    RunTrip(&adapter, vid++, lt.traj);
    EXPECT_FALSE(adapter.Poll());  // no drift config can fire here
    if (++fed == 10) break;
  }
  DriftStatus s = adapter.Status();
  EXPECT_EQ(s.trips_harvested, 10u);
  EXPECT_EQ(s.buffer_trips, 10u);
  EXPECT_EQ(s.pending_trips, 0u);
  EXPECT_EQ(s.drift_events, 0u);
  // Re-polling with nothing new must not re-harvest anything.
  adapter.Poll();
  EXPECT_EQ(adapter.Status().trips_harvested, 10u);
  // Every callback reached the downstream sink unchanged.
  EXPECT_EQ(downstream.NumFinished(), 10u);
  EXPECT_EQ(adapter.monitor()->Stats().alerts_emitted,
            static_cast<int64_t>(downstream.NumAlerts()));
}

TEST_F(DriftTest, EvictedTripsAreNeverHarvested) {
  CollectingSink downstream;
  FleetConfig fleet;
  fleet.trip_timeout_s = 100.0;
  DriftAdapter adapter(net_, TrainedClone(), fleet, HarvestOnly(),
                       &downstream);
  const auto& t = (*dataset_)[0].traj;
  ASSERT_TRUE(adapter.monitor()->StartTrip(1, t.sd(), 0.0).ok());
  ASSERT_TRUE(adapter.monitor()->Feed(1, t.edges[0], 0.0).ok());
  ASSERT_EQ(adapter.monitor()->EvictStale(1e9), 1u);
  adapter.Poll();
  // Partial labels are not training data: eviction notifies downstream but
  // contributes nothing to the buffer or the detector.
  EXPECT_EQ(adapter.Status().trips_harvested, 0u);
  EXPECT_EQ(adapter.Status().buffer_trips, 0u);
  EXPECT_EQ(downstream.NumEvicted(), 1u);
  EXPECT_EQ(downstream.NumFinished(), 0u);
}

TEST_F(DriftTest, HarvestBufferIsBoundedOldestFirst) {
  DriftConfig dc = HarvestOnly();
  dc.max_buffer_trips = 4;
  DriftAdapter adapter(net_, TrainedClone(), {}, dc, nullptr);
  int64_t vid = 1;
  size_t fed = 0;
  for (const auto& lt : dataset_->trajs()) {
    if (lt.traj.edges.size() < 2) continue;
    RunTrip(&adapter, vid++, lt.traj);
    adapter.Poll();
    if (++fed == 10) break;
  }
  DriftStatus s = adapter.Status();
  EXPECT_EQ(s.trips_harvested, 10u);
  EXPECT_EQ(s.buffer_trips, 4u);
  EXPECT_EQ(s.buffer_evictions, 6u);
}

TEST_F(DriftTest, GateRejectsWorseCandidateAndBacksOff) {
  CollectingSink downstream;
  DriftConfig dc = HairTrigger();
  // The candidate is an untrained model: the gate must keep the incumbent.
  dc.candidate_factory = [](const core::Rl4Oasd&, const traj::Dataset&) {
    return FreshModel(4242);
  };
  DriftAdapter adapter(net_, TrainedClone(), {}, dc, &downstream);
  const uint64_t live_fp = io::ModelFingerprint(*adapter.monitor()->model());
  FeedUntil(&adapter, 120, [](const DriftStatus& s) {
    return s.rejections + s.promotions > 0;
  });

  DriftStatus s = adapter.Status();
  EXPECT_GE(s.drift_events, 1u);
  EXPECT_EQ(s.cycles_started, 1u);
  EXPECT_EQ(s.rejections, 1u);
  EXPECT_EQ(s.promotions, 0u);
  EXPECT_LT(s.last_candidate_score, s.last_live_score);
  // No swap: generation and serving fingerprint are untouched, and further
  // triggers are suppressed by the backoff.
  EXPECT_EQ(s.model_generation, 1u);
  EXPECT_EQ(io::ModelFingerprint(*adapter.monitor()->model()), live_fp);
  EXPECT_GT(s.backoff_points_remaining, 0u);
  EXPECT_FALSE(s.drift_pending);
}

TEST_F(DriftTest, GatePromotesBetterCandidateAndSwaps) {
  CollectingSink downstream;
  DriftConfig dc = HairTrigger();
  // The incumbent is untrained; the candidate factory hands back a trained
  // model — the gate must promote it into live service.
  dc.candidate_factory = [](const core::Rl4Oasd&, const traj::Dataset&) {
    return TrainedClone();
  };
  DriftAdapter adapter(net_, FreshModel(777), {}, dc, &downstream);
  FeedUntil(&adapter, 120, [](const DriftStatus& s) {
    return s.rejections + s.promotions > 0;
  });

  DriftStatus s = adapter.Status();
  EXPECT_EQ(s.cycles_started, 1u);
  EXPECT_EQ(s.promotions, 1u);
  EXPECT_EQ(s.rejections, 0u);
  EXPECT_GE(s.last_candidate_score, s.last_live_score);
  EXPECT_GT(s.last_shadow_divergent_trips, 0u);
  // The swap is visible end to end: generation advanced and the serving
  // model is byte-identical to the promoted candidate.
  EXPECT_EQ(s.model_generation, 2u);
  EXPECT_EQ(io::ModelFingerprint(*adapter.monitor()->model()),
            io::ModelFingerprint(*model_));
  // Ingest kept flowing through the whole cycle: conservation holds.
  const FleetStats stats = adapter.monitor()->Stats();
  EXPECT_EQ(stats.trips_started,
            stats.trips_finished + stats.trips_evicted +
                static_cast<int64_t>(adapter.monitor()->ActiveTrips()));
}

TEST_F(DriftTest, ByteIdenticalCandidateShortCircuitsToRejection) {
  DriftConfig dc = HairTrigger();
  dc.candidate_factory = [](const core::Rl4Oasd& live, const traj::Dataset&) {
    auto cloned = io::CloneModel(net_, live);
    EXPECT_TRUE(cloned.ok());
    return std::shared_ptr<core::Rl4Oasd>(std::move(cloned).value());
  };
  DriftAdapter adapter(net_, TrainedClone(), {}, dc, nullptr);
  FeedUntil(&adapter, 120, [](const DriftStatus& s) {
    return s.rejections + s.promotions > 0;
  });

  DriftStatus s = adapter.Status();
  EXPECT_EQ(s.cycles_started, 1u);
  EXPECT_EQ(s.rejections, 1u);
  EXPECT_EQ(s.promotions, 0u);
  EXPECT_EQ(s.model_generation, 1u);
}

TEST_F(DriftTest, BackgroundLoopSurvivesConcurrentIngestAndEviction) {
  // The TSAN stress: a background worker draining, fine-tuning, shadow
  // gating, and hot-swapping while several threads push batched ingest and
  // an evictor yanks trips. No sleeps: the worker wakes on the harvest
  // condition variable and the destructor joins after a final drain.
  CollectingSink downstream;
  FleetConfig fleet;
  fleet.trip_timeout_s = 50.0;
  fleet.num_shards = 4;
  fleet.micro_batch = 8;
  DriftConfig dc;
  dc.window_points = 64;
  dc.reference_windows = 1;
  dc.cusum_k = -1.0;  // hair trigger: every tested window fires
  dc.cusum_h = 0.0;
  dc.min_buffer_trips = 8;
  dc.shadow_trips = 8;
  dc.fine_tune_max_samples = 4;
  dc.reject_backoff_points = 1000;  // allow repeated cycles under load
  dc.post_swap_cooldown_points = 0;
  dc.background = true;
  DriftAdapter adapter(net_, TrainedClone(), fleet, dc, &downstream);
  EXPECT_FALSE(adapter.Poll());  // the worker owns the loop

  constexpr int kThreads = 4;
  constexpr int kTripsPerThread = 8;
  std::atomic<int> started{0};
  std::atomic<bool> stop_evictor{false};
  std::thread evictor([&] {
    while (!stop_evictor.load()) {
      adapter.monitor()->EvictStale(1e12);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th] {
      std::vector<FleetPoint> batch;
      for (int k = 0; k < kTripsPerThread; ++k) {
        const auto& t =
            (*dataset_)[(static_cast<size_t>(th) * 17 +
                         static_cast<size_t>(k) * 5) %
                        dataset_->size()]
                .traj;
        if (t.edges.size() < 2) continue;
        const int64_t vid = th * 1000 + k;
        if (!adapter.monitor()->StartTrip(vid, t.sd(), t.start_time).ok()) {
          continue;
        }
        started.fetch_add(1);
        batch.clear();
        for (traj::EdgeId e : t.edges) {
          batch.push_back({vid, e, t.start_time});
          if (batch.size() == 16) {
            (void)adapter.monitor()->FeedBatch(batch);
            batch.clear();
          }
        }
        if (!batch.empty()) (void)adapter.monitor()->FeedBatch(batch);
        (void)adapter.monitor()->EndTrip(vid);  // NotFound if evicted
      }
    });
  }
  for (auto& th : threads) th.join();
  stop_evictor.store(true);
  evictor.join();
  adapter.monitor()->EvictStale(1e12);

  // Conservation and exactly-once delivery held across however many
  // fine-tune/swap cycles the worker managed to run.
  EXPECT_EQ(adapter.monitor()->ActiveTrips(), 0u);
  const FleetStats stats = adapter.monitor()->Stats();
  EXPECT_EQ(stats.trips_started, started.load());
  EXPECT_EQ(stats.trips_started, stats.trips_finished + stats.trips_evicted);
  EXPECT_EQ(stats.alerts_emitted,
            static_cast<int64_t>(downstream.NumAlerts()));
  EXPECT_EQ(stats.trips_finished,
            static_cast<int64_t>(downstream.NumFinished()));
  EXPECT_EQ(stats.trips_evicted,
            static_cast<int64_t>(downstream.NumEvicted()));
  const DriftStatus s = adapter.Status();
  EXPECT_LE(s.trips_harvested, static_cast<uint64_t>(stats.trips_finished));
  // The worker may be mid-cycle when status is sampled; it is a single
  // consumer, so at most one started cycle can be unresolved.
  const uint64_t resolved = s.promotions + s.rejections + s.cycle_errors;
  EXPECT_GE(s.cycles_started, resolved);
  EXPECT_LE(s.cycles_started - resolved, 1u);
}

}  // namespace
}  // namespace rl4oasd::serve
