// Golden end-to-end regression test: a fixed-seed gen → train(tiny) →
// detect run whose anomalous-run output is checked into tests/data/, so
// refactors of the model path (like the batched-inference GEMM path) are
// diffable — any change to what the trained detector reports shows up as a
// golden diff instead of silently shifting quality metrics.
//
// golden_detect_runs.txt pins the *discrete* output (per-trajectory
// anomalous runs): argmax decisions of a trained model survive any refactor
// that keeps the batched kernels bit-identical to the streaming step.
// golden_model_fingerprints.txt pins the trained weights themselves — the
// io::ModelFingerprint after Fit and after one FineTune — so a training
// kernel that drifts the last bit of one float fails here too, even when no
// decision flips. golden_matched_edges.txt pins the map matcher: the
// fixture's trips sampled as noisy, gappy GPS and matched back to edges.
// golden_fleet_snapshot.txt pins the serving state: a fleet snapshot taken
// halfway through a chaos-perturbed replay, as its payload hash and every
// service counter by metrics name.
//
// Regenerate after an intentional behaviour change (see tests/README.md):
//   RL4OASD_UPDATE_GOLDEN=1 ./build/tests/golden_regression_test
// and commit the tests/data/ diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/rl4oasd.h"
#include "fleet_stats_fields.h"
#include "golden_file.h"
#include "io/model_io.h"
#include "mapmatch/hmm_matcher.h"
#include "serve/chaos.h"
#include "serve/fleet.h"
#include "test_util.h"
#include "traj/gps_sampler.h"
#include "traj/types.h"

namespace rl4oasd {
namespace {

using ::rl4oasd::testing::ExpectMatchesGoldenFile;
using ::rl4oasd::testing::ExpectSnapshottedStatsEqual;
using ::rl4oasd::testing::kSnapshottedStats;

constexpr const char* kGoldenPath =
    RL4OASD_TEST_DATA_DIR "/golden_detect_runs.txt";
constexpr const char* kFingerprintPath =
    RL4OASD_TEST_DATA_DIR "/golden_model_fingerprints.txt";
constexpr const char* kMatchedEdgesPath =
    RL4OASD_TEST_DATA_DIR "/golden_matched_edges.txt";
constexpr const char* kFleetSnapshotPath =
    RL4OASD_TEST_DATA_DIR "/golden_fleet_snapshot.txt";

/// The fixed-seed tiny pipeline whose output the golden files pin. Any
/// change here invalidates the golden files — bump deliberately, regenerate,
/// and commit them together.
core::Rl4OasdConfig GoldenConfig() {
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

/// One line per detected trajectory: "<id> <run> <run> ..." with runs as
/// "[begin,end)" and "-" when the trajectory is clean.
std::string RenderRuns(int64_t id,
                       const std::vector<traj::Subtrajectory>& runs) {
  std::ostringstream os;
  os << id;
  if (runs.empty()) {
    os << " -";
  } else {
    for (const auto& r : runs) os << " [" << r.begin << "," << r.end << ")";
  }
  return os.str();
}

/// FNV-1a 64 over a byte string.
uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// DumpMetrics' lines in byte order, so the rendering does not depend on
/// the order the monitor prints them in.
std::string SortedLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& line : lines) out += line + "\n";
  return out;
}

/// The golden pipeline's network, data and model, trained once per suite.
class GoldenRegressionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new roadnet::RoadNetwork(testing::SmallGrid());
    dataset_ = new traj::Dataset(testing::SmallDataset(*net_, 6, 0.12));
    model_ = new core::Rl4Oasd(net_, GoldenConfig());
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

  static roadnet::RoadNetwork* net_;
  static traj::Dataset* dataset_;
  static core::Rl4Oasd* model_;
};

roadnet::RoadNetwork* GoldenRegressionTest::net_ = nullptr;
traj::Dataset* GoldenRegressionTest::dataset_ = nullptr;
core::Rl4Oasd* GoldenRegressionTest::model_ = nullptr;

TEST_F(GoldenRegressionTest, DetectOutputMatchesGoldenFile) {
  const core::Rl4Oasd& model = *model_;

  // Detect the whole dataset via the scalar streaming path, and in
  // parallel replay every trip through the micro-batched fleet ingest: the
  // golden file pins the scalar output, the monitor comparison pins
  // batched == scalar end to end.
  serve::FleetMonitor monitor(&model, {}, nullptr);
  std::vector<std::string> lines;
  size_t batched_mismatches = 0;
  std::vector<serve::FleetPoint> points;
  std::vector<const traj::LabeledTrajectory*> wave;
  const auto& trajs = dataset_->trajs();
  for (size_t begin = 0; begin < trajs.size(); begin += 32) {
    const size_t end = std::min(trajs.size(), begin + 32);
    wave.clear();
    for (size_t i = begin; i < end; ++i) {
      if (trajs[i].traj.edges.size() < 2) continue;
      wave.push_back(&trajs[i]);
      ASSERT_TRUE(monitor
                      .StartTrip(trajs[i].traj.id, trajs[i].traj.sd(),
                                 trajs[i].traj.start_time)
                      .ok());
    }
    size_t longest = 0;
    for (const auto* lt : wave) {
      longest = std::max(longest, lt->traj.edges.size());
    }
    for (size_t p = 0; p < longest; ++p) {
      points.clear();
      for (const auto* lt : wave) {
        if (p < lt->traj.edges.size()) {
          points.push_back({lt->traj.id, lt->traj.edges[p],
                            lt->traj.start_time + 2.0 * p});
        }
      }
      (void)monitor.FeedBatch(points);
    }
    for (const auto* lt : wave) {
      const auto scalar_labels = model.Detect(lt->traj);
      lines.push_back(RenderRuns(lt->traj.id,
                                 traj::ExtractAnomalousRuns(scalar_labels)));
      auto streamed = monitor.EndTrip(lt->traj.id);
      ASSERT_TRUE(streamed.ok());
      if (*streamed != scalar_labels) ++batched_mismatches;
    }
  }
  EXPECT_EQ(batched_mismatches, 0u)
      << "micro-batched fleet ingest diverged from scalar detection";

  std::ostringstream rendered;
  for (const auto& line : lines) rendered << line << "\n";
  ExpectMatchesGoldenFile(kGoldenPath, rendered.str());
}

TEST_F(GoldenRegressionTest, TrainedModelFingerprintsMatchGoldenFile) {
  // The fingerprint covers every weight bit, so this fails on any change
  // to a training kernel's arithmetic. FineTune runs on a clone: the
  // suite's model stays as Fit left it.
  auto tuned = io::CloneModel(net_, *model_);
  ASSERT_TRUE(tuned.ok()) << tuned.status().ToString();
  const auto fresh = testing::SmallDataset(*net_, 3, 0.1, 123);
  (*tuned)->FineTune(fresh, 60);

  std::ostringstream rendered;
  rendered << std::hex << std::setfill('0');
  rendered << "fit " << std::setw(16) << io::ModelFingerprint(*model_)
           << "\n";
  rendered << "finetune " << std::setw(16) << io::ModelFingerprint(**tuned)
           << "\n";
  ExpectMatchesGoldenFile(kFingerprintPath, rendered.str());
}

TEST_F(GoldenRegressionTest, MatchedEdgesMatchGoldenFile) {
  // 15 m noise and 15% dropout put dropped fixes, shortest-path bridges and
  // the live-Dijkstra fallback (detour bounds wider than the transition
  // table) on the pinned path, not only the table lookups of dense fixes.
  // Segment restarts never occur on this fixture; the gap-policy tests in
  // mapmatch_test pin them.
  traj::GpsSamplerConfig gps;
  gps.noise_sigma_m = 15.0;
  gps.dropout_prob = 0.15;
  traj::GpsSampler sampler(net_, gps, 2024);
  const mapmatch::HmmMapMatcher matcher(net_);
  mapmatch::HmmMapMatcher::Scratch scratch;

  // One line per trip: "<id> <start_time> <edge> <edge> ...", or
  // "<id> error <status code>" when nothing matched.
  std::ostringstream rendered;
  char start[32];
  for (const auto& lt : dataset_->trajs()) {
    const auto raw = sampler.Sample(lt.traj);
    if (raw.points.empty()) continue;
    const auto matched = matcher.Match(raw, &scratch);
    rendered << raw.id;
    if (!matched.ok()) {
      rendered << " error " << static_cast<int>(matched.status().code())
               << "\n";
      continue;
    }
    std::snprintf(start, sizeof(start), "%.17g", matched->start_time);
    rendered << " " << start;
    for (traj::EdgeId e : matched->edges) rendered << " " << e;
    rendered << "\n";
  }
  ExpectMatchesGoldenFile(kMatchedEdgesPath, rendered.str());
}

TEST_F(GoldenRegressionTest, FleetSnapshotMatchesGoldenFile) {
  // The fixture's trips arrive one per wave and run through a synchronous
  // monitor in FeedBatch waves, each trip ending when its stream runs out.
  // A seeded injector perturbs every trip's stream, and the guard is armed
  // the way oasd_simulate --chaos arms it: repair every class and
  // quarantine past a strike budget. The budgets are scaled to trips of ~10
  // points: a one-point drop is a dropout gap, 3 strikes quarantine, 3 clean
  // points recover and 8 quarantined points evict. Every 8th trip rides a
  // faulty device (a second, noisier injector); every 29th trip also sends
  // one edge id outside the network; and the active-trip cap sits below the
  // peak concurrency, so admissions evict the stalest trip. At the snapshot
  // no snapshotted counter is zero and no two are equal, so a counter
  // written, read, restored or reported under another counter's name
  // changes the golden: it holds the snapshot's hash, the metrics lines
  // and the typed FleetStats view field by field.
  serve::FleetConfig cfg;
  cfg.max_active_trips = 11;
  serve::IngestGuardConfig& g = cfg.guard;
  g.duplicate_policy = serve::GuardPolicy::kRepair;
  g.out_of_order_policy = serve::GuardPolicy::kRepair;
  g.skew_policy = serve::GuardPolicy::kRepair;
  g.dropout_policy = serve::GuardPolicy::kRepair;
  g.teleport_policy = serve::GuardPolicy::kRepair;
  g.malformed_budget = 3;
  g.dropout_gap_s = 3.0;
  g.quarantine_recovery_points = 3;
  g.quarantine_evict_points = 8;
  serve::FleetMonitor monitor(model_, cfg, nullptr);

  serve::ChaosSpec mild;
  mild.drop_prob = 0.03;
  mild.dup_prob = 0.05;
  mild.reorder_prob = 0.04;
  mild.skew_prob = 0.02;
  mild.teleport_prob = 0.01;
  mild.seed = 9;
  serve::ChaosSpec faulty;
  faulty.drop_prob = 0.05;
  faulty.dup_prob = 0.10;
  faulty.reorder_prob = 0.10;
  faulty.skew_prob = 0.10;
  faulty.teleport_prob = 0.20;
  faulty.seed = 10;
  serve::ChaosInjector fleet_chaos(mild, net_);
  serve::ChaosInjector device_chaos(faulty, net_);

  struct Stream {
    const traj::MapMatchedTrajectory* traj;
    std::vector<serve::FleetPoint> points;
  };
  std::vector<Stream> streams;
  for (const auto& lt : dataset_->trajs()) {
    if (lt.traj.edges.size() < 2) continue;
    std::vector<serve::FleetPoint> clean;
    for (size_t p = 0; p < lt.traj.edges.size(); ++p) {
      clean.push_back({lt.traj.id, lt.traj.edges[p],
                       lt.traj.start_time + 2.0 * static_cast<double>(p)});
    }
    const size_t k = streams.size();
    auto perturbed = (k % 8 == 7 ? device_chaos : fleet_chaos).Perturb(clean);
    if (k % 29 == 3) {
      perturbed[perturbed.size() / 2].edge =
          static_cast<traj::EdgeId>(net_->NumEdges());
    }
    streams.push_back({&lt.traj, std::move(perturbed)});
  }

  // Wave w admits trip w and feeds the next point of every admitted trip.
  size_t num_waves = 0;
  for (size_t k = 0; k < streams.size(); ++k) {
    num_waves = std::max(num_waves, k + streams[k].points.size());
  }
  std::vector<serve::FleetPoint> wave;
  for (size_t w = 0; w < num_waves / 2; ++w) {
    if (w < streams.size()) {
      const traj::MapMatchedTrajectory& t = *streams[w].traj;
      ASSERT_TRUE(monitor.StartTrip(t.id, t.sd(), t.start_time).ok());
    }
    wave.clear();
    for (size_t k = 0; k <= std::min(w, streams.size() - 1); ++k) {
      if (w - k < streams[k].points.size()) {
        wave.push_back(streams[k].points[w - k]);
      }
    }
    (void)monitor.FeedBatch(wave);
    for (size_t k = 0; k <= std::min(w, streams.size() - 1); ++k) {
      // Trips evicted along the way answer NotFound here.
      if (w - k + 1 == streams[k].points.size()) {
        (void)monitor.EndTrip(streams[k].traj->id);
      }
    }
  }
  BinaryWriter snapshot;
  ASSERT_TRUE(monitor.Snapshot(&snapshot, "golden").ok());
  const std::string metrics = monitor.DumpMetrics();
  const serve::FleetStats stats = monitor.Stats();

  // A fresh monitor restored from the snapshot reports the same counters
  // and writes the same bytes back.
  serve::FleetMonitor restored(model_, cfg, nullptr);
  BinaryReader reader(snapshot.buffer());
  ASSERT_TRUE(restored.Restore(&reader).ok());
  EXPECT_EQ(restored.DumpMetrics(), metrics);
  ExpectSnapshottedStatsEqual(restored.Stats(), stats);
  BinaryWriter again;
  ASSERT_TRUE(restored.Snapshot(&again, "golden").ok());
  EXPECT_EQ(again.buffer(), snapshot.buffer());

  std::ostringstream rendered;
  rendered << "snapshot_fnv1a64 " << std::hex << std::setfill('0')
           << std::setw(16) << Fnv1a64(snapshot.buffer()) << std::dec
           << "\n";
  rendered << "snapshot_bytes " << snapshot.buffer().size() << "\n";
  rendered << SortedLines(metrics);
  for (const auto& f : kSnapshottedStats) {
    rendered << "stats." << f.name << " " << stats.*f.field << "\n";
  }
  ExpectMatchesGoldenFile(kFleetSnapshotPath, rendered.str());
}

}  // namespace
}  // namespace rl4oasd
