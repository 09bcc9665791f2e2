// Tests for durable fleet snapshots and zero-downtime model hot-swap.
//
// The headline contract (see serve::FleetMonitor::Snapshot): snapshot a
// fleet at any feed boundary, restore into a fresh monitor over the same
// model bundle, and the remaining per-vehicle alert / trip-end / eviction
// stream is bit-identical to the uninterrupted run — across scalar and
// micro-batched ingest, shard counts, greedy and stochastic detection.
// SwapModel must migrate in-flight trips deterministically (re-primed
// hidden states, carried-over run/RNG bookkeeping) with no alert lost or
// duplicated, retire the old model via shared_ptr handoff, and stay clean
// under ThreadSanitizer against concurrent FeedBatch and eviction (the CI
// TSAN job runs this suite).
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary.h"
#include "common/mutex.h"
#include "fleet_stats_fields.h"
#include "io/fleet_snapshot.h"
#include "io/model_io.h"
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

/// One small trained model shared by the suite (training takes a couple of
/// seconds; the tests only need a consistent detector).
class FleetSnapshotTest : public ::testing::Test {
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

  /// A cheap *untrained* model over the same network: different weights,
  /// same architecture. Snapshot/swap semantics do not depend on training.
  static std::shared_ptr<core::Rl4Oasd> FreshModel(uint64_t seed,
                                                  bool stochastic = false) {
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

  static roadnet::RoadNetwork* net_;
  static traj::Dataset* dataset_;
  static core::Rl4Oasd* model_;
};

roadnet::RoadNetwork* FleetSnapshotTest::net_ = nullptr;
traj::Dataset* FleetSnapshotTest::dataset_ = nullptr;
core::Rl4Oasd* FleetSnapshotTest::model_ = nullptr;

// ---------------------------------------------------------------------------
// Per-vehicle event log: the full externally visible callback stream.

struct TripEvents {
  std::vector<std::pair<traj::Subtrajectory, size_t>> alerts;  // (range, pos)
  std::vector<std::vector<uint8_t>> ends;
  std::vector<std::vector<uint8_t>> evictions;

  bool operator==(const TripEvents&) const = default;
};

class EventSink : public AlertSink {
 public:
  void OnAlert(const Alert& alert) override {
    common::MutexLock lock(&mu_);
    events_[alert.vehicle_id].alerts.emplace_back(alert.range,
                                                  alert.position);
  }
  void OnTripEnd(int64_t vehicle_id,
                 const std::vector<uint8_t>& final_labels) override {
    common::MutexLock lock(&mu_);
    events_[vehicle_id].ends.push_back(final_labels);
  }
  void OnTripEvicted(int64_t vehicle_id, double /*trip_start_time*/,
                     const std::vector<uint8_t>& labels_so_far) override {
    common::MutexLock lock(&mu_);
    events_[vehicle_id].evictions.push_back(labels_so_far);
  }

  std::map<int64_t, TripEvents> Take() {
    common::MutexLock lock(&mu_);
    return std::move(events_);
  }

 private:
  common::Mutex mu_;
  std::map<int64_t, TripEvents> events_;
};

/// Appends `tail`'s per-vehicle events after `head`'s (the resumed process
/// continues the crashed process's stream).
std::map<int64_t, TripEvents> Concat(std::map<int64_t, TripEvents> head,
                                     std::map<int64_t, TripEvents> tail) {
  for (auto& [vid, ev] : tail) {
    TripEvents& dst = head[vid];
    dst.alerts.insert(dst.alerts.end(), ev.alerts.begin(), ev.alerts.end());
    dst.ends.insert(dst.ends.end(), ev.ends.begin(), ev.ends.end());
    dst.evictions.insert(dst.evictions.end(), ev.evictions.begin(),
                         ev.evictions.end());
  }
  return head;
}

enum class Ingest { kScalar, kBatch };

struct FleetSetup {
  Ingest ingest = Ingest::kScalar;
  size_t micro_batch = 128;
  size_t num_shards = 16;
  size_t chunk = 37;  // FeedBatch call granularity
};

void FeedRange(FleetMonitor* monitor, std::span<const FleetPoint> points,
               size_t lo, size_t hi, const FleetSetup& setup) {
  if (setup.ingest == Ingest::kScalar) {
    for (size_t i = lo; i < hi; ++i) {
      (void)monitor->Feed(points[i].vehicle_id, points[i].edge,
                          points[i].timestamp);
    }
    return;
  }
  for (size_t i = lo; i < hi; i += setup.chunk) {
    const size_t n = std::min(setup.chunk, hi - i);
    (void)monitor->FeedBatch(points.subspan(i, n));
  }
}

/// Ends the even vehicles, evicts the rest: the full callback zoo.
void FinishFleet(FleetMonitor* monitor, size_t num_vehicles) {
  for (size_t v = 0; v < num_vehicles; v += 2) {
    (void)monitor->EndTrip(static_cast<int64_t>(v));
  }
  (void)monitor->EvictStale(1e15);
}

// ---------------------------------------------------------------------------
// The headline property: restore-equivalence.

void RunRestoreEquivalence(const core::Rl4Oasd* model,
                           const std::vector<const traj::MapMatchedTrajectory*>&
                               picks,
                           const std::vector<FleetPoint>& points,
                           const FleetSetup& setup, size_t snapshot_at) {
  FleetConfig cfg;
  cfg.micro_batch = setup.micro_batch;
  cfg.num_shards = setup.num_shards;

  auto start_all = [&](FleetMonitor* monitor) {
    for (size_t v = 0; v < picks.size(); ++v) {
      ASSERT_TRUE(monitor
                      ->StartTrip(static_cast<int64_t>(v), picks[v]->sd(),
                                  picks[v]->start_time)
                      .ok());
    }
  };

  // Reference: the uninterrupted run.
  EventSink ref_sink;
  FleetMonitor reference(model, cfg, &ref_sink);
  start_all(&reference);
  FeedRange(&reference, points, 0, points.size(), setup);
  FinishFleet(&reference, picks.size());
  const auto ref_events = ref_sink.Take();
  const FleetStats ref_stats = reference.Stats();

  // Crashed process: feed the prefix, snapshot, stop.
  EventSink crash_sink;
  FleetMonitor crashed(model, cfg, &crash_sink);
  start_all(&crashed);
  FeedRange(&crashed, points, 0, snapshot_at, setup);
  BinaryWriter w;
  ASSERT_TRUE(crashed.Snapshot(&w, "property-test").ok());

  // Fresh process: restore and finish the stream.
  EventSink resumed_sink;
  FleetMonitor resumed(model, cfg, &resumed_sink);
  BinaryReader r(w.buffer());
  FleetMonitor::RestoreInfo info;
  ASSERT_TRUE(resumed.Restore(&r, &info).ok());
  EXPECT_EQ(info.user_meta, "property-test");
  EXPECT_EQ(info.trips.size(), resumed.ActiveTrips());
  FeedRange(&resumed, points, snapshot_at, points.size(), setup);
  FinishFleet(&resumed, picks.size());

  const auto split_events = Concat(crash_sink.Take(), resumed_sink.Take());
  EXPECT_EQ(split_events, ref_events)
      << "snapshot at point " << snapshot_at << " of " << points.size();
  testing::ExpectSnapshottedStatsEqual(resumed.Stats(), ref_stats);
}

TEST_F(FleetSnapshotTest, RestoreEquivalenceAcrossIngestModes) {
  const auto picks = PickTrips(12);
  ASSERT_GE(picks.size(), 8u);
  const auto points = InterleavedStream(picks);
  ASSERT_GT(points.size(), 40u);

  const FleetSetup setups[] = {
      {Ingest::kScalar, 128, 16, 37},
      {Ingest::kBatch, 1, 1, 41},
      {Ingest::kBatch, 128, 4, 173},
  };
  Rng rng(2024);
  for (const FleetSetup& setup : setups) {
    for (int trial = 0; trial < 3; ++trial) {
      // A random mid-stream cut, including awkward spots near the ends.
      const size_t k = 1 + rng.UniformInt(points.size() - 1);
      RunRestoreEquivalence(model_, picks, points, setup, k);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST_F(FleetSnapshotTest, RestoreEquivalenceStochasticDetection) {
  // Stochastic detection consumes one RNG draw per policy decision; the
  // snapshot carries every session's stream position, so the resumed run
  // must sample the exact same actions. An untrained model is fine — the
  // property does not depend on detection quality.
  const auto model = FreshModel(909, /*stochastic=*/true);
  const auto picks = PickTrips(8);
  ASSERT_GE(picks.size(), 4u);
  const auto points = InterleavedStream(picks);

  Rng rng(77);
  const FleetSetup setups[] = {
      {Ingest::kScalar, 128, 16, 37},
      {Ingest::kBatch, 128, 4, 53},
  };
  for (const FleetSetup& setup : setups) {
    for (int trial = 0; trial < 2; ++trial) {
      const size_t k = 1 + rng.UniformInt(points.size() - 1);
      RunRestoreEquivalence(model.get(), picks, points, setup, k);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST_F(FleetSnapshotTest, SnapshotFileRoundTripThroughDisk) {
  // The in-memory property above skips the CRC file layer; pin the full
  // write-to-disk / OpenFile path once.
  const auto picks = PickTrips(6);
  const auto points = InterleavedStream(picks);
  const size_t k = points.size() / 2;

  EventSink sink;
  FleetMonitor monitor(model_, {}, &sink);
  for (size_t v = 0; v < picks.size(); ++v) {
    ASSERT_TRUE(monitor
                    .StartTrip(static_cast<int64_t>(v), picks[v]->sd(),
                               picks[v]->start_time)
                    .ok());
  }
  FeedRange(&monitor, points, 0, k, {Ingest::kBatch, 128, 16, 64});
  BinaryWriter w;
  ASSERT_TRUE(monitor.Snapshot(&w, "disk-round-trip").ok());
  const std::string path =
      ::testing::TempDir() + "/rl4oasd_fleet_snapshot_test.snap";
  ASSERT_TRUE(w.WriteToFile(path).ok());

  // The model-free inspector agrees with the monitor.
  auto desc = io::DescribeFleetSnapshot(path);
  ASSERT_TRUE(desc.ok()) << desc.status().ToString();
  EXPECT_EQ(desc->version, io::kFleetSnapshotVersion);
  EXPECT_EQ(desc->model_fingerprint, io::ModelFingerprint(*model_));
  EXPECT_EQ(desc->user_meta, "disk-round-trip");
  EXPECT_EQ(desc->trips.size(), monitor.ActiveTrips());
  EXPECT_EQ(desc->counter(io::FleetCounter::kPointsProcessed),
            monitor.Stats().points_processed);

  auto reader = BinaryReader::OpenFile(path);
  ASSERT_TRUE(reader.ok());
  EventSink resumed_sink;
  FleetMonitor resumed(model_, {}, &resumed_sink);
  ASSERT_TRUE(resumed.Restore(&*reader).ok());
  EXPECT_EQ(resumed.ActiveTrips(), monitor.ActiveTrips());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Session-level export/import (the core primitive under the fleet format).

TEST_F(FleetSnapshotTest, SessionExportImportResumesBitIdentically) {
  for (const bool stochastic : {false, true}) {
    const auto fresh = stochastic ? FreshModel(31, true) : nullptr;
    const core::Rl4Oasd* model = stochastic ? fresh.get() : model_;
    int checked = 0;
    for (const auto& lt : dataset_->trajs()) {
      if (lt.traj.edges.size() < 6 || ++checked > 8) break;
      const auto& t = lt.traj;
      auto session = model->StartSession(t.sd(), t.start_time);
      const size_t cut = t.edges.size() / 2;
      for (size_t i = 0; i < cut; ++i) session.Feed(t.edges[i]);
      (void)session.TakeNewlyClosedRuns();  // drain, as the monitor would

      BinaryWriter w;
      session.ExportState(&w);
      auto restored = model->StartSession({}, 0.0);
      BinaryReader r(w.buffer());
      ASSERT_TRUE(restored.ImportState(&r).ok());
      ASSERT_TRUE(r.AtEnd());
      EXPECT_EQ(restored.sd(), t.sd());
      EXPECT_EQ(restored.start_time(), t.start_time);
      EXPECT_EQ(restored.labels(), session.labels());

      // Export immediately again: the record must be byte-identical (the
      // format is canonical, not merely equivalent).
      BinaryWriter w2;
      restored.ExportState(&w2);
      EXPECT_EQ(w.buffer(), w2.buffer());

      // Continue both in lockstep: labels and run streams must agree
      // bit-for-bit, including the stochastic RNG draws.
      for (size_t i = cut; i < t.edges.size(); ++i) {
        EXPECT_EQ(restored.Feed(t.edges[i]), session.Feed(t.edges[i]))
            << "stochastic=" << stochastic << " step " << i;
      }
      EXPECT_EQ(restored.TakeNewlyClosedRuns(),
                session.TakeNewlyClosedRuns());
      EXPECT_EQ(restored.Finish(), session.Finish());
      EXPECT_EQ(restored.closed_runs(), session.closed_runs());
    }
    ASSERT_GT(checked, 0);
  }
}

TEST_F(FleetSnapshotTest, SessionImportRejectsLies) {
  // Hand-forged session records with internally inconsistent or
  // out-of-bounds fields must fail with a clean Status — never index the
  // road network or label history out of range.
  const size_t state_size = model_->rsrnet().stream_state_size();
  struct Lie {
    const char* name;
    traj::EdgeId edge1;       // second edge of the history
    uint8_t label1;           // second label
    int32_t tracker_pos;      // must equal the label count
    int32_t run_end;          // closed run [0, run_end)
    size_t state;             // hidden/cell vector length
  };
  const Lie lies[] = {
      {"edge id outside the network", 1 << 30, 1, 2, 2, state_size},
      {"label outside {0,1}", 1, 9, 2, 2, state_size},
      {"tracker position mismatch", 1, 1, 5, 2, state_size},
      {"run beyond the label stream", 1, 1, 2, 7, state_size},
      {"wrong recurrent state size", 1, 1, 2, 2, state_size + 3},
  };
  for (const Lie& lie : lies) {
    BinaryWriter w;
    w.WriteI32(0);  // sd.source
    w.WriteI32(5);  // sd.dest
    w.WriteF64(100.0);
    w.WriteU8(0);   // finished
    w.WriteU32(2);  // labels
    w.WriteU8(0);
    w.WriteU8(lie.label1);
    std::vector<int32_t> edges = {0, lie.edge1};
    w.WriteI32Vector(edges);
    w.WriteI32(lie.tracker_pos);  // tracker: pos
    w.WriteU8(0);                 // no pending run
    w.WriteI32(0);
    w.WriteI32(0);
    w.WriteU32(1);  // one closed run
    w.WriteI32(0);
    w.WriteI32(lie.run_end);
    w.WriteU32(0);  // no newly-closed runs
    w.WriteF32Vector(std::vector<float>(lie.state, 0.0f));
    w.WriteF32Vector(std::vector<float>(lie.state, 0.0f));
    for (int i = 0; i < 4; ++i) w.WriteU64(123);
    w.WriteU8(0);
    w.WriteF64(0.0);

    auto session = model_->StartSession({}, 0.0);
    BinaryReader r(w.buffer());
    EXPECT_FALSE(session.ImportState(&r).ok()) << lie.name;
    // The failed import must leave the session untouched and feedable.
    EXPECT_TRUE(session.labels().empty()) << lie.name;
  }
}

TEST_F(FleetSnapshotTest, NeverFedTripSnapshotRestores) {
  // Regression: a never-fed session's stream must already carry a full
  // hidden-size state so its exported record round-trips — a stream sized
  // lazily on its first point made a snapshot the monitor itself just
  // wrote unrestorable.
  const auto model = std::make_shared<core::Rl4Oasd>(net_, TinyConfig());
  const auto picks = PickTrips(3);

  EventSink sink;
  FleetMonitor monitor(model.get(), {}, &sink);
  // Vehicle 0 never fed; vehicle 1 fed a few points.
  ASSERT_TRUE(monitor.StartTrip(0, picks[0]->sd(), picks[0]->start_time).ok());
  ASSERT_TRUE(monitor.StartTrip(1, picks[1]->sd(), picks[1]->start_time).ok());
  for (size_t i = 0; i < 3 && i < picks[1]->edges.size(); ++i) {
    ASSERT_TRUE(monitor.Feed(1, picks[1]->edges[i], 2.0 * i).ok());
  }
  BinaryWriter w;
  ASSERT_TRUE(monitor.Snapshot(&w).ok());

  EventSink resumed_sink;
  FleetMonitor resumed(model.get(), {}, &resumed_sink);
  BinaryReader r(w.buffer());
  const Status st = resumed.Restore(&r);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(resumed.ActiveTrips(), 2u);
  // Both fleets finish the trips identically.
  for (FleetMonitor* m : {&monitor, &resumed}) {
    for (int64_t v : {0, 1}) {
      const auto& t = *picks[static_cast<size_t>(v)];
      for (size_t i = (v == 1 ? 3 : 0); i < t.edges.size(); ++i) {
        ASSERT_TRUE(m->Feed(v, t.edges[i], 2.0 * i).ok());
      }
    }
  }
  for (int64_t v : {0, 1}) {
    auto a = monitor.EndTrip(v);
    auto b = resumed.EndTrip(v);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << "vehicle " << v;
  }
}

// ---------------------------------------------------------------------------
// Restore failure modes.

TEST_F(FleetSnapshotTest, RestoreRejectsDifferentModelFingerprint) {
  const auto picks = PickTrips(3);
  FleetMonitor monitor(model_, {}, nullptr);
  for (size_t v = 0; v < picks.size(); ++v) {
    ASSERT_TRUE(monitor
                    .StartTrip(static_cast<int64_t>(v), picks[v]->sd(),
                               picks[v]->start_time)
                    .ok());
    ASSERT_TRUE(
        monitor.Feed(static_cast<int64_t>(v), picks[v]->edges[0], 0.0).ok());
  }
  BinaryWriter w;
  ASSERT_TRUE(monitor.Snapshot(&w).ok());

  const auto other = FreshModel(404);
  FleetMonitor wrong_model(other.get(), {}, nullptr);
  BinaryReader r(w.buffer());
  const Status st = wrong_model.Restore(&r);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.ToString().find("fingerprint"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(wrong_model.ActiveTrips(), 0u);
}

TEST_F(FleetSnapshotTest, RestoreRequiresEmptyMonitor) {
  const auto picks = PickTrips(2);
  FleetMonitor monitor(model_, {}, nullptr);
  ASSERT_TRUE(monitor.StartTrip(1, picks[0]->sd(), 0.0).ok());
  BinaryWriter w;
  ASSERT_TRUE(monitor.Snapshot(&w).ok());

  FleetMonitor busy(model_, {}, nullptr);
  ASSERT_TRUE(busy.StartTrip(9, picks[1]->sd(), 0.0).ok());
  BinaryReader r(w.buffer());
  const Status st = busy.Restore(&r);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(busy.ActiveTrips(), 1u);
}

// ---------------------------------------------------------------------------
// Hot model swap.

TEST_F(FleetSnapshotTest, SwapModelMatchesReprimeReference) {
  // Monitor semantics must equal the core primitive: feed a prefix on model
  // A, swap to model B, feed the rest — labels and alerts come out as if
  // the session had been re-primed by ReprimeSession at the boundary.
  const auto fresh = FreshModel(777);
  const auto picks = PickTrips(6);

  EventSink sink;
  FleetMonitor monitor(model_, {}, &sink);
  std::vector<size_t> cuts(picks.size());
  for (size_t v = 0; v < picks.size(); ++v) {
    ASSERT_TRUE(monitor
                    .StartTrip(static_cast<int64_t>(v), picks[v]->sd(),
                               picks[v]->start_time)
                    .ok());
    cuts[v] = 1 + v % (picks[v]->edges.size() - 1);
  }
  for (size_t v = 0; v < picks.size(); ++v) {
    for (size_t i = 0; i < cuts[v]; ++i) {
      ASSERT_TRUE(
          monitor.Feed(static_cast<int64_t>(v), picks[v]->edges[i], 2.0 * i)
              .ok());
    }
  }
  const auto retired = monitor.SwapModel(fresh);
  EXPECT_EQ(retired.get(), model_);
  EXPECT_EQ(monitor.ModelGeneration(), 2u);
  EXPECT_EQ(monitor.model().get(), fresh.get());
  for (size_t v = 0; v < picks.size(); ++v) {
    for (size_t i = cuts[v]; i < picks[v]->edges.size(); ++i) {
      ASSERT_TRUE(
          monitor.Feed(static_cast<int64_t>(v), picks[v]->edges[i], 2.0 * i)
              .ok());
    }
  }
  std::map<int64_t, std::vector<uint8_t>> monitor_end_labels;
  for (size_t v = 0; v < picks.size(); ++v) {
    auto labels = monitor.EndTrip(static_cast<int64_t>(v));
    ASSERT_TRUE(labels.ok());
    monitor_end_labels[static_cast<int64_t>(v)] = *labels;
  }
  const auto monitor_events = sink.Take();

  for (size_t v = 0; v < picks.size(); ++v) {
    const auto& t = *picks[v];
    auto ref = model_->StartSession(t.sd(), t.start_time);
    for (size_t i = 0; i < cuts[v]; ++i) ref.Feed(t.edges[i]);
    auto swapped = fresh->detector().ReprimeSession(ref);
    for (size_t i = cuts[v]; i < t.edges.size(); ++i) swapped.Feed(t.edges[i]);
    const auto ref_labels = swapped.Finish();
    EXPECT_EQ(monitor_end_labels[static_cast<int64_t>(v)], ref_labels)
        << "vehicle " << v;
    // Alerts must equal the final runs exactly once each — nothing lost or
    // duplicated across the swap.
    const auto runs = traj::ExtractAnomalousRuns(ref_labels);
    const auto it = monitor_events.find(static_cast<int64_t>(v));
    const size_t alerts =
        it == monitor_events.end() ? 0 : it->second.alerts.size();
    ASSERT_EQ(alerts, runs.size()) << "vehicle " << v;
    for (size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(it->second.alerts[i].first, runs[i]) << "vehicle " << v;
    }
  }
}

TEST_F(FleetSnapshotTest, SwapModelRetiresOldModelViaSharedPtrHandoff) {
  auto first = FreshModel(11);
  auto second = FreshModel(22);
  const auto picks = PickTrips(4);

  auto monitor = std::make_unique<FleetMonitor>(first, FleetConfig{}, nullptr);
  for (size_t v = 0; v < picks.size(); ++v) {
    ASSERT_TRUE(monitor
                    ->StartTrip(static_cast<int64_t>(v), picks[v]->sd(),
                                picks[v]->start_time)
                    .ok());
  }
  auto retired = monitor->SwapModel(second);
  EXPECT_EQ(retired.get(), first.get());
  // Trips are still pinned to the retired model until their next point.
  EXPECT_GT(first.use_count(), 2);
  for (size_t v = 0; v < picks.size(); ++v) {
    ASSERT_TRUE(
        monitor->Feed(static_cast<int64_t>(v), picks[v]->edges[0], 1.0).ok());
  }
  // Every trip migrated: only this test's `first` and `retired` remain.
  EXPECT_EQ(first.use_count(), 2);
  retired.reset();
  EXPECT_EQ(first.use_count(), 1);
}

TEST_F(FleetSnapshotTest, SwapModelUnderConcurrentIngestConservesEverything) {
  // SwapModel racing FeedBatch callers racing an aggressive evictor (the CI
  // TSAN job runs this): stats must conserve, every callback must reach the
  // sink exactly once, and no torn model read may crash a wave.
  std::vector<std::shared_ptr<core::Rl4Oasd>> models;
  for (uint64_t s = 0; s < 3; ++s) models.push_back(FreshModel(100 + s));

  CollectingSink sink;
  FleetConfig cfg;
  cfg.trip_timeout_s = 50.0;
  cfg.num_shards = 4;
  cfg.micro_batch = 8;
  FleetMonitor monitor(models[0], cfg, &sink);

  constexpr int kThreads = 6;
  constexpr int kTripsPerThread = 8;
  std::atomic<int> started{0};
  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    uint64_t gen = 0;
    while (!stop.load()) {
      (void)monitor.SwapModel(models[++gen % models.size()]);
      std::this_thread::yield();
    }
  });
  std::thread evictor([&] {
    while (!stop.load()) {
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
            (*dataset_)[(static_cast<size_t>(th) * 19 +
                         static_cast<size_t>(k) * 3) %
                        dataset_->size()];
        const auto& t = lt.traj;
        if (t.edges.size() < 2) continue;
        const int64_t vid = th * 1000 + k;
        if (!monitor.StartTrip(vid, t.sd(), t.start_time).ok()) continue;
        started.fetch_add(1);
        batch.clear();
        for (traj::EdgeId e : t.edges) {
          batch.push_back({vid, e, t.start_time});
          if (batch.size() == 12) {
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
  stop.store(true);
  swapper.join();
  evictor.join();
  monitor.EvictStale(1e12);

  EXPECT_EQ(monitor.ActiveTrips(), 0u);
  const FleetStats stats = monitor.Stats();
  EXPECT_EQ(stats.trips_started, started.load());
  EXPECT_EQ(stats.trips_started, stats.trips_finished + stats.trips_evicted);
  EXPECT_EQ(stats.alerts_emitted, static_cast<int64_t>(sink.NumAlerts()));
  EXPECT_EQ(stats.trips_finished, static_cast<int64_t>(sink.NumFinished()));
  EXPECT_EQ(stats.trips_evicted, static_cast<int64_t>(sink.NumEvicted()));
  // All trips drained: besides the local vector, only the monitor's current
  // handle pins one model — every retired model was handed back.
  const auto current = monitor.model();
  for (auto& m : models) {
    EXPECT_EQ(m.use_count(), m == current ? 3 : 1) << "model leaked";
  }
}

TEST_F(FleetSnapshotTest, SnapshotUnderLiveIngestStaysRestorable) {
  // Snapshots taken while FeedBatch callers and the evictor are running
  // must parse and restore cleanly (also a TSAN subject). Per-trip records
  // serialize at feed boundaries, so every snapshot is restorable even
  // though the global cut is not a quiescent point.
  CollectingSink sink;
  FleetConfig cfg;
  cfg.num_shards = 4;
  cfg.micro_batch = 8;
  FleetMonitor monitor(model_, cfg, &sink);

  constexpr int kThreads = 4;
  std::atomic<int> workers_done{0};
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th] {
      for (int k = 0; k < 6; ++k) {
        const auto& t =
            (*dataset_)[(static_cast<size_t>(th) * 23 +
                         static_cast<size_t>(k) * 7) %
                        dataset_->size()]
                .traj;
        if (t.edges.size() < 2) continue;
        const int64_t vid = th * 1000 + k;
        if (!monitor.StartTrip(vid, t.sd(), t.start_time).ok()) continue;
        std::vector<FleetPoint> batch;
        for (traj::EdgeId e : t.edges) batch.push_back({vid, e, t.start_time});
        (void)monitor.FeedBatch(batch);
        (void)monitor.EndTrip(vid);
      }
      workers_done.fetch_add(1);
    });
  }
  int restorable = 0;
  do {
    // No SwapModel in flight, so every live snapshot must restore cleanly.
    BinaryWriter w;
    ASSERT_TRUE(monitor.Snapshot(&w).ok());
    FleetMonitor resumed(model_, cfg, nullptr);
    BinaryReader r(w.buffer());
    FleetMonitor::RestoreInfo info;
    ASSERT_TRUE(resumed.Restore(&r, &info).ok());
    EXPECT_EQ(resumed.ActiveTrips(), info.trips.size());
    // Conservation must hold after every restore, even though the source
    // snapshot's counters and trip walk happened at different instants
    // under live ingest (Restore re-derives the started count).
    const FleetStats rs = resumed.Stats();
    EXPECT_EQ(rs.trips_started,
              rs.trips_finished + rs.trips_evicted +
                  static_cast<int64_t>(resumed.ActiveTrips()));
    ++restorable;
    std::this_thread::yield();
  } while (workers_done.load() < kThreads);
  for (auto& th : threads) th.join();
  EXPECT_GT(restorable, 0);
}

}  // namespace
}  // namespace rl4oasd::serve
