// Tests for the asynchronous ingest pipeline (serve/ingest_queue.h) and the
// async alert-delivery queue (serve/delivery_queue.h).
//
// The headline contract: Submit-driven ingest is an *optimization*, not a
// semantic change. After Quiesce(), a Submit-fed monitor must have produced
// the identical per-vehicle alert / trip-end / finalization sequences as the
// synchronous Feed reference path — across shard counts, greedy and
// stochastic detection, and with alert delivery moved onto the async queue.
// Backpressure is exact: kShed counts every dropped point, kBlock never
// drops one. The CI ThreadSanitizer job runs this suite.
#include <atomic>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "serve/fleet.h"
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

/// Records the full per-vehicle callback sequence as readable strings, so
/// async-vs-sync equivalence is one map comparison with a useful gtest diff.
class SequenceSink : public AlertSink {
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
  void OnTripFinalized(int64_t vehicle_id, traj::SdPair /*sd*/,
                       double /*start_time*/,
                       const std::vector<traj::EdgeId>& edges,
                       const std::vector<uint8_t>& final_labels) override {
    Record(vehicle_id, "finalized:" + std::to_string(edges.size()) + ":" +
                           LabelString(final_labels));
  }

  std::map<int64_t, std::vector<std::string>> Take() {
    common::MutexLock lock(&mu_);
    return std::move(events_);
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

/// A sink whose OnTripEnd parks until the test opens the gate — pins the
/// lane worker inside a trip-end delivery so backpressure tests can fill a
/// staging lane deterministically.
class GateSink : public AlertSink {
 public:
  void OnAlert(const Alert&) override {}
  void OnTripEnd(int64_t, const std::vector<uint8_t>&) override {
    common::MutexLock lock(&mu_);
    entered_ = true;
    entered_cv_.NotifyAll();
    while (!open_) gate_cv_.Wait(&mu_);
  }

  /// Blocks until a worker is parked inside OnTripEnd.
  void AwaitEntered() {
    common::MutexLock lock(&mu_);
    while (!entered_) entered_cv_.Wait(&mu_);
  }
  void Open() {
    common::MutexLock lock(&mu_);
    open_ = true;
    gate_cv_.NotifyAll();
  }

 private:
  mutable common::Mutex mu_;
  common::CondVar entered_cv_;
  common::CondVar gate_cv_;
  bool entered_ RL4OASD_GUARDED_BY(mu_) = false;
  bool open_ RL4OASD_GUARDED_BY(mu_) = false;
};

class FleetIngestTest : public ::testing::Test {
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

  /// A cheap untrained model over the same network (ingest semantics do not
  /// depend on training); `stochastic` turns on sampled detection.
  static std::shared_ptr<core::Rl4Oasd> FreshModel(uint64_t seed,
                                                   bool stochastic) {
    core::Rl4OasdConfig cfg = TinyConfig();
    cfg.seed = seed;
    cfg.rsr.seed = seed + 1;
    cfg.asd.seed = seed + 2;
    cfg.detector.seed = seed + 3;
    cfg.detector.stochastic = stochastic;
    return std::make_shared<core::Rl4Oasd>(net_, cfg);
  }

  static std::vector<const traj::MapMatchedTrajectory*> PickTrips(
      size_t count) {
    std::vector<const traj::MapMatchedTrajectory*> picks;
    for (const auto& lt : dataset_->trajs()) {
      if (lt.traj.edges.size() >= 2) picks.push_back(&lt.traj);
      if (picks.size() == count) break;
    }
    return picks;
  }

  /// Round-robin interleaving: one point per trip per round (vid = index
  /// into `picks`), the fleet-shaped stream the monitor serves in practice.
  static std::vector<FleetPoint> InterleavedStream(
      const std::vector<const traj::MapMatchedTrajectory*>& picks) {
    std::vector<FleetPoint> points;
    size_t longest = 0;
    for (const auto* t : picks) longest = std::max(longest, t->edges.size());
    for (size_t i = 0; i < longest; ++i) {
      for (size_t v = 0; v < picks.size(); ++v) {
        if (i < picks[v]->edges.size()) {
          points.push_back({static_cast<int64_t>(v), picks[v]->edges[i],
                            picks[v]->start_time +
                                2.0 * static_cast<double>(i)});
        }
      }
    }
    return points;
  }

  /// The synchronous reference: per-point Feed + EndTrip, sink callbacks
  /// inline. Returns the per-vehicle event sequences.
  static std::map<int64_t, std::vector<std::string>> RunSyncReference(
      const std::shared_ptr<const core::Rl4Oasd>& model,
      const std::vector<const traj::MapMatchedTrajectory*>& picks,
      std::span<const FleetPoint> points) {
    SequenceSink sink;
    FleetMonitor monitor(model, {}, &sink);
    StartAll(&monitor, picks);
    for (const FleetPoint& p : points) {
      EXPECT_TRUE(monitor.Feed(p.vehicle_id, p.edge, p.timestamp).ok());
    }
    for (size_t v = 0; v < picks.size(); ++v) {
      EXPECT_TRUE(monitor.EndTrip(static_cast<int64_t>(v)).ok());
    }
    return sink.Take();
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

  static roadnet::RoadNetwork* net_;
  static traj::Dataset* dataset_;
  static core::Rl4Oasd* model_;
};

roadnet::RoadNetwork* FleetIngestTest::net_ = nullptr;
traj::Dataset* FleetIngestTest::dataset_ = nullptr;
core::Rl4Oasd* FleetIngestTest::model_ = nullptr;

TEST_F(FleetIngestTest, SubmitMatchesFeedReferenceAcrossShards) {
  // The tentpole equivalence: Submit-driven self-batching ingest plus async
  // alert delivery must reproduce the synchronous reference exactly, for
  // every vehicle, across shard counts (1 lane, several lanes, one lane per
  // vehicle-ish). Quiesce() is the comparison point.
  const auto picks = PickTrips(12);
  ASSERT_GE(picks.size(), 8u);
  const auto points = InterleavedStream(picks);
  std::shared_ptr<const core::Rl4Oasd> model(model_, [](const void*) {});
  const auto expected = RunSyncReference(model, picks, points);

  for (const size_t shards : {size_t{1}, size_t{4}, size_t{16}}) {
    SequenceSink sink;
    FleetConfig cfg;
    cfg.num_shards = shards;
    cfg.ingest_workers = shards;  // clamped to num_shards internally
    cfg.micro_batch = 8;
    cfg.async_alerts = true;
    FleetMonitor monitor(model, cfg, &sink);
    StartAll(&monitor, picks);
    for (const FleetPoint& p : points) {
      ASSERT_TRUE(monitor.Submit(p).ok());
    }
    for (size_t v = 0; v < picks.size(); ++v) {
      ASSERT_TRUE(monitor.SubmitEndTrip(static_cast<int64_t>(v)).ok());
    }
    monitor.Quiesce();

    EXPECT_EQ(sink.Take(), expected) << "shards " << shards;
    const FleetStats stats = monitor.Stats();
    EXPECT_EQ(stats.points_submitted, static_cast<int64_t>(points.size()));
    EXPECT_EQ(stats.points_processed, static_cast<int64_t>(points.size()));
    EXPECT_EQ(stats.points_shed, 0);
    EXPECT_EQ(stats.trips_finished, static_cast<int64_t>(picks.size()));
    EXPECT_EQ(stats.alerts_delivered, stats.alerts_emitted);
    EXPECT_EQ(monitor.ActiveTrips(), 0u);
  }
}

TEST_F(FleetIngestTest, SubmitBatchAndFlushAgeMatchReference) {
  // SubmitBatch staging plus a nonzero points-denominated flush age (waves
  // held back until the oldest staged point has seen N later submissions)
  // must not change per-vehicle results either.
  const auto picks = PickTrips(10);
  ASSERT_GE(picks.size(), 8u);
  const auto points = InterleavedStream(picks);
  std::shared_ptr<const core::Rl4Oasd> model(model_, [](const void*) {});
  const auto expected = RunSyncReference(model, picks, points);

  SequenceSink sink;
  FleetConfig cfg;
  cfg.num_shards = 4;
  cfg.ingest_workers = 2;  // two lanes, each serving two shards
  cfg.micro_batch = 16;
  cfg.ingest_flush_age_points = 32;
  cfg.async_alerts = true;
  FleetMonitor monitor(model, cfg, &sink);
  StartAll(&monitor, picks);
  // Ragged chunks exercise the batch splitter.
  size_t offset = 0;
  size_t accepted = 0;
  for (size_t chunk = 13; offset < points.size(); chunk = chunk * 2 + 3) {
    const size_t n = std::min(chunk, points.size() - offset);
    accepted += monitor.SubmitBatch(
        std::span<const FleetPoint>(points.data() + offset, n));
    offset += n;
  }
  EXPECT_EQ(accepted, points.size());  // kBlock: nothing shed
  for (size_t v = 0; v < picks.size(); ++v) {
    ASSERT_TRUE(monitor.SubmitEndTrip(static_cast<int64_t>(v)).ok());
  }
  monitor.Quiesce();
  EXPECT_EQ(sink.Take(), expected);
  EXPECT_EQ(monitor.Stats().points_processed,
            static_cast<int64_t>(points.size()));
}

TEST_F(FleetIngestTest, StochasticDetectionEquivalence) {
  // Sampled (stochastic) detection is the hard case for batching: each
  // trip's RNG must advance exactly as in the scalar path regardless of how
  // the waves fuse. The per-vehicle streams must still match point-for-point.
  const auto picks = PickTrips(8);
  ASSERT_GE(picks.size(), 6u);
  const auto points = InterleavedStream(picks);
  const auto model = FreshModel(77, /*stochastic=*/true);
  const auto expected = RunSyncReference(model, picks, points);

  for (const size_t shards : {size_t{1}, size_t{4}}) {
    SequenceSink sink;
    FleetConfig cfg;
    cfg.num_shards = shards;
    cfg.ingest_workers = shards;
    cfg.micro_batch = 4;
    cfg.async_alerts = true;
    FleetMonitor monitor(model, cfg, &sink);
    StartAll(&monitor, picks);
    for (const FleetPoint& p : points) {
      ASSERT_TRUE(monitor.Submit(p).ok());
    }
    for (size_t v = 0; v < picks.size(); ++v) {
      ASSERT_TRUE(monitor.SubmitEndTrip(static_cast<int64_t>(v)).ok());
    }
    monitor.Quiesce();
    EXPECT_EQ(sink.Take(), expected) << "shards " << shards;
  }
}

TEST_F(FleetIngestTest, AsyncAlertsAloneMatchSyncDelivery) {
  // async_alerts without ingest workers: the same Feed-driven run, with
  // every sink callback making a round trip through the delivery queue. The
  // per-vehicle sequences (ordering included) must be unchanged, and the
  // delivered counter must catch up to the emitted counter at Quiesce.
  const auto picks = PickTrips(8);
  ASSERT_GE(picks.size(), 6u);
  const auto points = InterleavedStream(picks);
  std::shared_ptr<const core::Rl4Oasd> model(model_, [](const void*) {});
  const auto expected = RunSyncReference(model, picks, points);

  SequenceSink sink;
  FleetConfig cfg;
  cfg.async_alerts = true;
  cfg.alert_queue_capacity = 8;  // small: exercises enqueue backpressure
  FleetMonitor monitor(model, cfg, &sink);
  StartAll(&monitor, picks);
  for (const FleetPoint& p : points) {
    ASSERT_TRUE(monitor.Feed(p.vehicle_id, p.edge, p.timestamp).ok());
  }
  for (size_t v = 0; v < picks.size(); ++v) {
    ASSERT_TRUE(monitor.EndTrip(static_cast<int64_t>(v)).ok());
  }
  monitor.Quiesce();
  EXPECT_EQ(sink.Take(), expected);
  const FleetStats stats = monitor.Stats();
  EXPECT_EQ(stats.alerts_delivered, stats.alerts_emitted);
}

TEST_F(FleetIngestTest, DestructorDrainsWithoutQuiesce) {
  // Dropping the monitor with staged points and a queued delivery backlog
  // must lose nothing: the ingest workers drain their lanes before joining,
  // then the delivery drainer flushes. The sink ends up with the full
  // reference sequences even though Quiesce was never called.
  const auto picks = PickTrips(8);
  ASSERT_GE(picks.size(), 6u);
  const auto points = InterleavedStream(picks);
  std::shared_ptr<const core::Rl4Oasd> model(model_, [](const void*) {});
  const auto expected = RunSyncReference(model, picks, points);

  SequenceSink sink;
  {
    FleetConfig cfg;
    cfg.num_shards = 4;
    cfg.ingest_workers = 4;
    cfg.async_alerts = true;
    FleetMonitor monitor(model, cfg, &sink);
    StartAll(&monitor, picks);
    for (const FleetPoint& p : points) {
      ASSERT_TRUE(monitor.Submit(p).ok());
    }
    for (size_t v = 0; v < picks.size(); ++v) {
      ASSERT_TRUE(monitor.SubmitEndTrip(static_cast<int64_t>(v)).ok());
    }
    // No Quiesce: the destructor owns the drain.
  }
  EXPECT_EQ(sink.Take(), expected);
}

TEST_F(FleetIngestTest, ShedPolicyCountsEveryDrop) {
  // Park the lone lane worker inside a gated OnTripEnd, so the lane cannot
  // drain; then the shed accounting is exact: the first `capacity` submits
  // are accepted, every one after that returns ResourceExhausted, and the
  // counter equals the rejection count to the point.
  constexpr size_t kCapacity = 4;
  constexpr size_t kOverflow = 7;
  GateSink gate;
  FleetConfig cfg;
  cfg.ingest_workers = 1;
  cfg.ingest_queue_capacity = kCapacity;
  cfg.overload_policy = OverloadPolicy::kShed;
  FleetMonitor monitor(model_, cfg, &gate);
  const auto& a = (*dataset_)[0].traj;
  const auto& b = (*dataset_)[1].traj;
  ASSERT_TRUE(monitor.StartTrip(1, a.sd(), a.start_time).ok());
  ASSERT_TRUE(monitor.StartTrip(2, b.sd(), b.start_time).ok());

  // Trip 1 runs to completion; its OnTripEnd parks the worker.
  ASSERT_TRUE(monitor.Submit({1, a.edges[0], a.start_time}).ok());
  ASSERT_TRUE(monitor.SubmitEndTrip(1).ok());
  gate.AwaitEntered();

  // The worker is parked and its lane is empty: exactly kCapacity more
  // points fit, the rest shed.
  size_t accepted = 0;
  size_t shed = 0;
  for (size_t i = 0; i < kCapacity + kOverflow; ++i) {
    const Status st =
        monitor.Submit({2, b.edges[i % b.edges.size()],
                        b.start_time + 2.0 * static_cast<double>(i)});
    if (st.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  EXPECT_EQ(accepted, kCapacity);
  EXPECT_EQ(shed, kOverflow);

  gate.Open();
  monitor.Quiesce();
  const FleetStats stats = monitor.Stats();
  EXPECT_EQ(stats.points_shed, static_cast<int64_t>(kOverflow));
  EXPECT_EQ(stats.points_submitted, static_cast<int64_t>(1 + kCapacity));
  EXPECT_EQ(stats.points_processed, stats.points_submitted);
  EXPECT_TRUE(monitor.SubmitEndTrip(2).ok());  // end markers are never shed
  monitor.Quiesce();
  EXPECT_EQ(monitor.Stats().trips_finished, 2);
}

TEST_F(FleetIngestTest, BlockPolicyNeverDrops) {
  // kBlock with a two-slot lane and several producer threads: submits stall
  // instead of shedding, and after Quiesce every offered point was both
  // accepted and processed. Runs under the CI ThreadSanitizer job.
  constexpr int kProducers = 4;
  constexpr int kPointsPerProducer = 50;
  SequenceSink sink;
  FleetConfig cfg;
  cfg.ingest_workers = 2;
  cfg.num_shards = 4;
  cfg.ingest_queue_capacity = 2;
  cfg.overload_policy = OverloadPolicy::kBlock;
  cfg.async_alerts = true;
  cfg.alert_queue_capacity = 4;
  FleetMonitor monitor(model_, cfg, &sink);
  const auto& t = (*dataset_)[0].traj;
  for (int v = 0; v < kProducers; ++v) {
    ASSERT_TRUE(monitor.StartTrip(v, t.sd(), t.start_time).ok());
  }
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int v = 0; v < kProducers; ++v) {
    producers.emplace_back([&, v] {
      for (int i = 0; i < kPointsPerProducer; ++i) {
        ASSERT_TRUE(
            monitor
                .Submit({v, t.edges[static_cast<size_t>(i) % t.edges.size()],
                         t.start_time + 2.0 * static_cast<double>(i)})
                .ok());
      }
      ASSERT_TRUE(monitor.SubmitEndTrip(v).ok());
    });
  }
  for (auto& th : producers) th.join();
  monitor.Quiesce();

  const FleetStats stats = monitor.Stats();
  EXPECT_EQ(stats.points_shed, 0);
  EXPECT_EQ(stats.points_submitted,
            static_cast<int64_t>(kProducers) * kPointsPerProducer);
  EXPECT_EQ(stats.points_processed, stats.points_submitted);
  EXPECT_EQ(stats.trips_finished, kProducers);
  EXPECT_EQ(stats.alerts_delivered, stats.alerts_emitted);
  EXPECT_EQ(monitor.ActiveTrips(), 0u);
}

TEST_F(FleetIngestTest, ConcurrentSubmitWithEvictionConserves) {
  // Submit-driven ingest with an aggressive evictor yanking trips between
  // waves (the async counterpart of the synchronous conservation stress).
  // Identities checked after Quiesce: trip conservation, exactly-once sink
  // delivery, delivered == emitted. Runs under the CI TSAN job.
  SequenceSink sink;
  FleetConfig cfg;
  cfg.trip_timeout_s = 50.0;
  cfg.num_shards = 4;
  cfg.ingest_workers = 4;
  cfg.micro_batch = 8;
  cfg.async_alerts = true;
  FleetMonitor monitor(model_, cfg, &sink);

  constexpr int kThreads = 4;
  constexpr int kTripsPerThread = 6;
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
      for (int k = 0; k < kTripsPerThread; ++k) {
        const auto& lt =
            (*dataset_)[(static_cast<size_t>(th) * 11 +
                         static_cast<size_t>(k) * 3) %
                        dataset_->size()];
        const auto& t = lt.traj;
        if (t.edges.size() < 2) continue;
        const int64_t vid = th * 1000 + k;
        if (!monitor.StartTrip(vid, t.sd(), t.start_time).ok()) continue;
        started.fetch_add(1);
        for (traj::EdgeId e : t.edges) {
          ASSERT_TRUE(monitor.Submit({vid, e, t.start_time}).ok());
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
  EXPECT_EQ(stats.alerts_delivered, stats.alerts_emitted);
  EXPECT_EQ(stats.points_shed, 0);
  // Every lifecycle event reached the sink exactly once.
  const auto events = sink.Take();
  int64_t ends = 0;
  int64_t evictions = 0;
  for (const auto& [vid, seq] : events) {
    for (const std::string& e : seq) {
      if (e.rfind("end:", 0) == 0) ++ends;
      if (e.rfind("evicted:", 0) == 0) ++evictions;
    }
  }
  EXPECT_EQ(ends, stats.trips_finished);
  EXPECT_EQ(evictions, stats.trips_evicted);
}

TEST_F(FleetIngestTest, DisabledPipelineIsExplicit) {
  // With ingest_workers == 0, Submit* fail loudly instead of silently
  // dropping work, and Quiesce is a no-op (both subsystems off).
  FleetMonitor monitor(model_, {}, nullptr);
  const auto& t = (*dataset_)[0].traj;
  ASSERT_TRUE(monitor.StartTrip(1, t.sd(), t.start_time).ok());
  EXPECT_EQ(monitor.Submit({1, t.edges[0], t.start_time}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(monitor.SubmitEndTrip(1).code(), StatusCode::kFailedPrecondition);
  const FleetPoint p{1, t.edges[0], t.start_time};
  EXPECT_EQ(monitor.SubmitBatch(std::span<const FleetPoint>(&p, 1)), 0u);
  monitor.Quiesce();  // no-op, must not hang
  const FleetStats stats = monitor.Stats();
  EXPECT_EQ(stats.points_submitted, 0);
  EXPECT_EQ(stats.points_shed, 0);
  // Without async delivery, delivered mirrors emitted.
  EXPECT_EQ(stats.alerts_delivered, stats.alerts_emitted);
  EXPECT_TRUE(monitor.EndTrip(1).ok());
}

TEST_F(FleetIngestTest, SubmitEndTripBeforeAnyPointFinishesEmpty) {
  // An end marker with nothing staged ahead of it is a legal degenerate
  // trip: the lane worker calls EndTrip on a zero-point session.
  const auto& t = (*dataset_)[0].traj;
  SequenceSink sink;
  FleetConfig cfg;
  cfg.ingest_workers = 1;
  FleetMonitor monitor(model_, cfg, &sink);
  ASSERT_TRUE(monitor.StartTrip(1, t.sd(), t.start_time).ok());
  ASSERT_TRUE(monitor.SubmitEndTrip(1).ok());
  monitor.Quiesce();
  const FleetStats stats = monitor.Stats();
  EXPECT_EQ(stats.trips_finished, 1);
  EXPECT_EQ(stats.points_processed, 0);
  const auto events = sink.Take();
  ASSERT_EQ(events.count(1), 1u);
  // Zero points -> empty final labels on both end callbacks.
  EXPECT_EQ(events.at(1)[0], "end:");
}

TEST_F(FleetIngestTest, DoubleEndTripIsNotFound) {
  const auto& t = (*dataset_)[0].traj;
  FleetMonitor monitor(model_, {}, nullptr);
  ASSERT_TRUE(monitor.StartTrip(1, t.sd(), t.start_time).ok());
  ASSERT_TRUE(monitor.Feed(1, t.edges[0], t.start_time).ok());
  ASSERT_TRUE(monitor.EndTrip(1).ok());
  EXPECT_EQ(monitor.EndTrip(1).status().code(), StatusCode::kNotFound);
  // The double call neither double-counts nor resurrects the trip.
  EXPECT_EQ(monitor.Stats().trips_finished, 1);
  EXPECT_EQ(monitor.ActiveTrips(), 0u);
}

TEST_F(FleetIngestTest, FeedAfterFinishIsNotFound) {
  const auto& t = (*dataset_)[0].traj;
  FleetMonitor monitor(model_, {}, nullptr);
  ASSERT_TRUE(monitor.StartTrip(1, t.sd(), t.start_time).ok());
  ASSERT_TRUE(monitor.Feed(1, t.edges[0], t.start_time).ok());
  ASSERT_TRUE(monitor.EndTrip(1).ok());
  EXPECT_EQ(monitor.Feed(1, t.edges[1], t.start_time + 2.0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(monitor.Stats().points_processed, 1);
}

TEST_F(FleetIngestTest, EmptyFeedBatchIsANoOp) {
  FleetMonitor monitor(model_, {}, nullptr);
  EXPECT_EQ(monitor.FeedBatch({}), 0u);
  const FleetStats stats = monitor.Stats();
  EXPECT_EQ(stats.points_processed, 0);
  EXPECT_EQ(stats.trips_started, 0);
}

TEST_F(FleetIngestTest, ZeroToleranceGuardStillFinishesTheTrip) {
  // A maximally strict guard (every class kReject, any gap over 1s is a
  // dropout) starves the detector but never wedges the trip lifecycle:
  // rejection is per-point, EndTrip still works.
  const auto& t = (*dataset_)[0].traj;
  ASSERT_GE(t.edges.size(), 3u);
  FleetConfig cfg;
  cfg.guard.duplicate_policy = GuardPolicy::kReject;
  cfg.guard.out_of_order_policy = GuardPolicy::kReject;
  cfg.guard.skew_policy = GuardPolicy::kReject;
  cfg.guard.dropout_policy = GuardPolicy::kReject;
  cfg.guard.teleport_policy = GuardPolicy::kReject;
  cfg.guard.dropout_gap_s = 1.0;
  FleetMonitor monitor(model_, cfg, nullptr);
  ASSERT_TRUE(monitor.StartTrip(1, t.sd(), t.start_time).ok());
  // First point lands on the monotone clock (gap 0): clean.
  ASSERT_TRUE(monitor.Feed(1, t.edges[0], t.start_time).ok());
  // Rejected points do not advance the clock, so every later point at the
  // nominal 2s cadence stays a >1s dropout forever.
  EXPECT_EQ(
      monitor.Feed(1, t.edges[1], t.start_time + 2.0).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      monitor.Feed(1, t.edges[2], t.start_time + 4.0).status().code(),
      StatusCode::kInvalidArgument);
  const auto labels = monitor.EndTrip(1);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(labels->size(), 1u);  // only the clean point reached the session
  const FleetStats stats = monitor.Stats();
  EXPECT_EQ(stats.points_processed, 1);
  EXPECT_EQ(stats.points_rejected, 2);
  EXPECT_EQ(stats.guard_dropout_gaps, 2);
  EXPECT_EQ(stats.trips_finished, 1);
}

}  // namespace
}  // namespace rl4oasd::serve
