// Golden end-to-end regression test: a fixed-seed gen → train(tiny) →
// detect run whose anomalous-run output is checked into tests/data/, so
// refactors of the model path (like the batched-inference GEMM path) are
// diffable — any change to what the trained detector reports shows up as a
// golden diff instead of silently shifting quality metrics.
//
// The golden file pins the *discrete* output (per-trajectory anomalous
// runs), not floats: argmax decisions of a trained model survive any
// refactor that keeps the batched kernels bit-identical to the streaming
// step, while raw probabilities would churn on any reordering.
//
// Regenerate after an intentional behaviour change (see tests/README.md):
//   RL4OASD_UPDATE_GOLDEN=1 ./build/tests/golden_regression_test
// and commit the tests/data/golden_detect_runs.txt diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/rl4oasd.h"
#include "serve/fleet.h"
#include "test_util.h"
#include "traj/types.h"

namespace rl4oasd {
namespace {

constexpr const char* kGoldenPath =
    RL4OASD_TEST_DATA_DIR "/golden_detect_runs.txt";

/// The fixed-seed tiny pipeline whose output the golden file pins. Any
/// change here invalidates the golden file — bump deliberately, regenerate,
/// and commit both together.
core::Rl4OasdConfig GoldenConfig() {
  core::Rl4OasdConfig cfg;
  cfg.preprocess.alpha = 0.1;
  cfg.preprocess.delta = 0.12;
  cfg.detector.delay_d = 2;
  cfg.rsr.embed_dim = 16;
  cfg.rsr.nrf_dim = 8;
  cfg.rsr.hidden_dim = 16;
  cfg.asd.label_dim = 8;
  cfg.embedding.dim = 16;
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

TEST(GoldenRegressionTest, DetectOutputMatchesGoldenFile) {
  const auto net = testing::SmallGrid();
  const auto dataset = testing::SmallDataset(net, 6, 0.12);
  core::Rl4Oasd model(&net, GoldenConfig());
  model.Fit(dataset);

  // Detect the whole dataset via the scalar streaming path, and in
  // parallel replay every trip through the micro-batched fleet ingest: the
  // golden file pins the scalar output, the monitor comparison pins
  // batched == scalar end to end.
  serve::FleetMonitor monitor(&model, {}, nullptr);
  std::vector<std::string> lines;
  size_t batched_mismatches = 0;
  std::vector<serve::FleetPoint> points;
  std::vector<const traj::LabeledTrajectory*> wave;
  const auto& trajs = dataset.trajs();
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

  if (std::getenv("RL4OASD_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << rendered.str();
    GTEST_SKIP() << "golden file regenerated at " << kGoldenPath
                 << " — review and commit the diff";
  }

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.good())
      << "missing golden file " << kGoldenPath
      << " — run RL4OASD_UPDATE_GOLDEN=1 ./build/tests/golden_regression_test";
  std::stringstream golden;
  golden << in.rdbuf();

  // Line-by-line comparison so a failure names the first diverging
  // trajectory instead of dumping both files.
  std::istringstream got(rendered.str());
  std::istringstream want(golden.str());
  std::string got_line;
  std::string want_line;
  size_t line_no = 0;
  while (std::getline(want, want_line)) {
    ++line_no;
    ASSERT_TRUE(std::getline(got, got_line))
        << "output ends early at golden line " << line_no << ": "
        << want_line;
    EXPECT_EQ(got_line, want_line) << "first divergence at line " << line_no;
    if (got_line != want_line) break;  // one precise diff beats hundreds
  }
  if (got_line == want_line) {
    EXPECT_FALSE(std::getline(got, got_line))
        << "output has extra lines past the golden file: " << got_line;
  }
}

}  // namespace
}  // namespace rl4oasd
