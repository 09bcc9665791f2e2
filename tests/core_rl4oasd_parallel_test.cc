// Equivalence tests for the data-parallel pretrain path
// (Rl4OasdConfig::trainer_threads).
//
// Contract hierarchy:
//   * trainer_threads == 1 is THE sequential path (same code), so the
//     golden regression pins it; nothing to test here.
//   * A single worker sink (AccumulateGradients + ApplyWorkerGradients) is
//     bit-identical to TrainStep — no staleness with one in flight.
//   * PretrainAsd sharding is bit-identical by construction (RSRNet is
//     frozen while episodes build), folded into the whole-Fit tolerance
//     test below.
//   * PretrainRsr with N > 1 workers applies each wave's gradients against
//     weights up to N-1 steps stale: a deterministic but numerically
//     different optimization path. The tests pin (a) determinism of the
//     threaded schedule and (b) closeness to the sequential result on a
//     small workload (weights within a loose tolerance, detections almost
//     all agreeing).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/preprocess.h"
#include "core/rl4oasd.h"
#include "core/rsrnet.h"
#include "test_util.h"

namespace rl4oasd::core {
namespace {

Rl4OasdConfig TinyConfig() {
  Rl4OasdConfig cfg;
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
  cfg.joint_samples = 80;
  cfg.epochs_per_traj = 1;
  return cfg;
}

TEST(ParallelPretrainTest, SingleWorkerSinkBitIdenticalToTrainStep) {
  const auto net = testing::SmallGrid();
  const auto data = testing::SmallDataset(net, 4, 0.1);
  Preprocessor pre(PreprocessConfig{});
  pre.Fit(data);

  RsrNetConfig cfg;
  cfg.num_edges = net.NumEdges();
  cfg.embed_dim = 16;
  cfg.nrf_dim = 8;
  cfg.hidden_dim = 16;
  RsrNet a(cfg);
  RsrNet b(cfg);  // same seed -> identical weights

  nn::GradientSink sink(*b.registry());
  b.registry()->ZeroGrad();
  size_t trained = 0;
  for (const auto& lt : data.trajs()) {
    const auto& t = lt.traj;
    if (t.edges.size() < 3) continue;
    const auto nrf = pre.NormalRouteFeatures(t);
    const auto labels = pre.NoisyLabels(t);
    const double loss_a = a.TrainStep(t.edges, nrf, labels);
    const double loss_b = b.AccumulateGradients(t.edges, nrf, labels, &sink);
    b.ApplyWorkerGradients(&sink);
    ASSERT_EQ(loss_a, loss_b);
    if (++trained >= 40) break;
  }
  ASSERT_GT(trained, 10u);
  const auto& pa = a.registry()->params();
  const auto& pb = b.registry()->params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t k = 0; k < pa.size(); ++k) {
    ASSERT_EQ(pa[k]->value.size(), pb[k]->value.size());
    EXPECT_EQ(std::memcmp(pa[k]->value.data(), pb[k]->value.data(),
                          pa[k]->value.size() * sizeof(float)),
              0)
        << "weights diverged in " << pa[k]->name;
  }
}

TEST(ParallelPretrainTest, ThreadedFitIsDeterministic) {
  // The deterministic application order must make the threaded path
  // reproducible run-to-run, regardless of worker timing.
  const auto net = testing::SmallGrid();
  const auto data = testing::SmallDataset(net, 5, 0.1);
  auto cfg = TinyConfig();
  cfg.trainer_threads = 4;

  Rl4Oasd m1(&net, cfg);
  m1.Fit(data);
  Rl4Oasd m2(&net, cfg);
  m2.Fit(data);

  size_t checked = 0;
  for (const auto& lt : data.trajs()) {
    if (lt.traj.edges.size() < 3) continue;
    ASSERT_EQ(m1.Detect(lt.traj), m2.Detect(lt.traj))
        << "trajectory " << lt.traj.id;
    ++checked;
  }
  ASSERT_GT(checked, 50u);
}

TEST(ParallelPretrainTest, ThreadedFitCloseToSequentialFit) {
  // Classifier-only ablation isolates the phases trainer_threads actually
  // shards (embeddings + RSR warm start; no joint RL noise): the threaded
  // run must land near the sequential one — stale gradients shift
  // individual weights slightly, not the learned behaviour.
  const auto net = testing::SmallGrid();
  const auto data = testing::SmallDataset(net, 5, 0.1);
  auto cfg = TinyConfig();
  cfg.use_asdnet = false;

  Rl4Oasd seq(&net, cfg);
  seq.Fit(data);
  cfg.trainer_threads = 3;
  Rl4Oasd par(&net, cfg);
  par.Fit(data);

  // Weight closeness (loose: stale-gradient Adam takes a different path).
  const auto& params_seq = seq.mutable_rsrnet()->registry()->params();
  const auto& params_par = par.mutable_rsrnet()->registry()->params();
  ASSERT_EQ(params_seq.size(), params_par.size());
  double max_abs = 0.0;
  double sum_abs = 0.0;
  size_t count = 0;
  for (size_t k = 0; k < params_seq.size(); ++k) {
    const auto& a = params_seq[k]->value;
    const auto& b = params_par[k]->value;
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      const double d = std::abs(double(a.data()[i]) - b.data()[i]);
      max_abs = std::max(max_abs, d);
      sum_abs += d;
      ++count;
    }
  }
  EXPECT_LT(sum_abs / static_cast<double>(count), 0.02)
      << "mean weight drift too large (max " << max_abs << ")";

  // Behavioural closeness: detections agree on almost all segments.
  size_t segments = 0;
  size_t disagree = 0;
  for (const auto& lt : data.trajs()) {
    if (lt.traj.edges.size() < 3) continue;
    const auto a = seq.Detect(lt.traj);
    const auto b = par.Detect(lt.traj);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ++segments;
      disagree += a[i] != b[i];
    }
  }
  ASSERT_GT(segments, 1000u);
  EXPECT_LT(static_cast<double>(disagree) / segments, 0.02)
      << disagree << " of " << segments << " segment labels diverged";
}

TEST(ParallelPretrainTest, ThreadedFullPipelineTrainsSanely) {
  // Full pipeline (ASDNet + joint phase) with sharded pretrain: the joint
  // phase is sequential, so this is an integration sanity check that the
  // handoff between the phases stays sound.
  const auto net = testing::SmallGrid();
  const auto data = testing::SmallDataset(net, 4, 0.12);
  auto cfg = TinyConfig();
  cfg.trainer_threads = 2;
  Rl4Oasd model(&net, cfg);
  model.Fit(data);
  EXPECT_GT(model.joint_stats().episodes, 0);
  size_t flagged = 0;
  for (const auto& lt : data.trajs()) {
    if (lt.traj.edges.size() < 3) continue;
    for (uint8_t l : model.Detect(lt.traj)) flagged += l;
  }
  // The detector must neither flag everything nor collapse to silence.
  EXPECT_GT(flagged, 0u);
}

}  // namespace
}  // namespace rl4oasd::core
