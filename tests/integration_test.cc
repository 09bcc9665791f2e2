// End-to-end integration tests: the full RL4OASD pipeline (preprocess ->
// embeddings -> pretrain -> joint train -> online detect) on a synthetic
// city, including detection quality, ablation sanity, online fine-tuning,
// and the raw-GPS -> map-matching -> detection path.
#include <gtest/gtest.h>

#include "baselines/transition_frequency.h"
#include "core/rl4oasd.h"
#include "eval/metrics.h"
#include "mapmatch/hmm_matcher.h"
#include "test_util.h"
#include "traj/gps_sampler.h"

namespace rl4oasd {
namespace {

using ::rl4oasd::testing::SmallDataset;
using ::rl4oasd::testing::SmallGrid;

core::Rl4OasdConfig FastConfig() {
  core::Rl4OasdConfig cfg;
  // Workload-tuned thresholds (the synthetic workload has 3
  // normal routes per pair with popularity ~0.55/0.27/0.18, so the paper's
  // alpha=0.5/delta=0.4 would flag the 2nd/3rd normal routes).
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

class Rl4OasdPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new roadnet::RoadNetwork(SmallGrid());
    auto full = SmallDataset(*net_, 8, 0.2, 2024);
    Rng rng(33);
    auto [train, test] = full.Split(full.size() * 7 / 10, &rng);
    train_ = new traj::Dataset(std::move(train));
    test_ = new traj::Dataset(std::move(test));
    model_ = new core::Rl4Oasd(net_, FastConfig());
    model_->Fit(*train_);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete test_;
    delete train_;
    delete net_;
    model_ = nullptr;
    test_ = nullptr;
    train_ = nullptr;
    net_ = nullptr;
  }

  static roadnet::RoadNetwork* net_;
  static traj::Dataset* train_;
  static traj::Dataset* test_;
  static core::Rl4Oasd* model_;
};

roadnet::RoadNetwork* Rl4OasdPipelineTest::net_ = nullptr;
traj::Dataset* Rl4OasdPipelineTest::train_ = nullptr;
traj::Dataset* Rl4OasdPipelineTest::test_ = nullptr;
core::Rl4Oasd* Rl4OasdPipelineTest::model_ = nullptr;

TEST_F(Rl4OasdPipelineTest, DetectsWithGoodF1) {
  eval::F1Evaluator ev;
  for (const auto& lt : test_->trajs()) {
    ev.Add(lt.labels, model_->Detect(lt.traj));
  }
  const auto s = ev.Compute();
  // The synthetic task is easy; the trained model should do well.
  EXPECT_GT(s.f1, 0.6) << "precision=" << s.precision
                       << " recall=" << s.recall;
}

TEST_F(Rl4OasdPipelineTest, BeatsTransitionFrequencyBaseline) {
  baselines::TransitionFrequencyDetector baseline;
  baseline.Fit(*train_);
  baseline.Tune(*test_);
  eval::F1Evaluator model_ev, base_ev;
  for (const auto& lt : test_->trajs()) {
    model_ev.Add(lt.labels, model_->Detect(lt.traj));
    base_ev.Add(lt.labels, baseline.Detect(lt.traj));
  }
  // Table IV: full RL4OASD (0.854) vs transition frequency only (0.643).
  EXPECT_GE(model_ev.Compute().f1 + 0.02, base_ev.Compute().f1);
}

TEST_F(Rl4OasdPipelineTest, DetectionIsDeterministic) {
  const auto& t = (*test_)[0].traj;
  EXPECT_EQ(model_->Detect(t), model_->Detect(t));
}

TEST_F(Rl4OasdPipelineTest, NormalTrajectoriesMostlyClean) {
  int clean = 0, total = 0;
  for (const auto& lt : test_->trajs()) {
    if (lt.HasAnomaly()) continue;
    ++total;
    const auto pred = model_->Detect(lt.traj);
    bool any = false;
    for (uint8_t l : pred) any |= l;
    clean += !any;
  }
  ASSERT_GT(total, 0);
  EXPECT_GT(static_cast<double>(clean) / total, 0.6);
}

TEST_F(Rl4OasdPipelineTest, FineTuneIngestsNewData) {
  // Fine-tuning on extra data from the same distribution must not crash and
  // should keep detection quality in the same ballpark.
  core::Rl4Oasd model(net_, FastConfig());
  model.Fit(*train_);
  model.FineTune(*test_, 50);
  eval::F1Evaluator ev;
  for (const auto& lt : test_->trajs()) {
    ev.Add(lt.labels, model.Detect(lt.traj));
  }
  EXPECT_GT(ev.Compute().f1, 0.5);
}

TEST_F(Rl4OasdPipelineTest, RawGpsToDetectionPath) {
  // Full system path: map-matched truth -> noisy GPS -> HMM map matching ->
  // online detection.
  traj::GpsSampler sampler(net_, {});
  mapmatch::HmmMapMatcher matcher(net_);
  int checked = 0;
  for (size_t k = 0; k < test_->size() && checked < 5; ++k) {
    const auto& lt = (*test_)[k];
    const auto raw = sampler.Sample(lt.traj);
    if (raw.points.size() < 5) continue;
    auto matched = matcher.Match(raw);
    if (!matched.ok()) continue;
    const auto labels = model_->Detect(*matched);
    EXPECT_EQ(labels.size(), matched->edges.size());
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(AblationSmokeTest, EveryAblationVariantRuns) {
  const auto net = SmallGrid();
  const auto ds = SmallDataset(net, 4, 0.2, 777);
  auto base = FastConfig();
  base.pretrain_samples = 20;
  base.joint_samples = 40;
  base.epochs_per_traj = 1;

  std::vector<std::pair<std::string, core::Rl4OasdConfig>> variants;
  {
    auto c = base;
    c.use_noisy_labels = false;
    variants.push_back({"w/o noisy labels", c});
  }
  {
    auto c = base;
    c.use_pretrained_embeddings = false;
    variants.push_back({"w/o road segment embeddings", c});
  }
  {
    auto c = base;
    c.detector.use_rnel = false;
    variants.push_back({"w/o RNEL", c});
  }
  {
    auto c = base;
    c.detector.use_dl = false;
    variants.push_back({"w/o DL", c});
  }
  {
    auto c = base;
    c.use_local_reward = false;
    variants.push_back({"w/o local reward", c});
  }
  {
    auto c = base;
    c.use_global_reward = false;
    variants.push_back({"w/o global reward", c});
  }
  {
    auto c = base;
    c.use_asdnet = false;
    variants.push_back({"w/o ASDNet", c});
  }
  {
    auto c = base;
    c.transition_frequency_only = true;
    variants.push_back({"only transition frequency", c});
  }
  for (auto& [name, cfg] : variants) {
    core::Rl4Oasd model(&net, cfg);
    model.Fit(ds);
    const auto labels = model.Detect(ds[0].traj);
    EXPECT_EQ(labels.size(), ds[0].traj.edges.size()) << name;
  }
}

TEST(ConceptDriftSmokeTest, FineTunedModelAdaptsToDrift) {
  const auto net = SmallGrid();
  // Dataset with popularity rotation over 2 day-parts.
  traj::GeneratorConfig gcfg;
  gcfg.num_sd_pairs = 5;
  gcfg.min_trajs_per_pair = 60;
  gcfg.max_trajs_per_pair = 90;
  gcfg.anomaly_ratio = 0.15;
  gcfg.min_pair_dist_m = 800;
  gcfg.max_pair_dist_m = 2500;
  gcfg.drift_parts = 2;
  gcfg.seed = 555;
  traj::TrajectoryGenerator gen(&net, gcfg);
  const auto full = gen.Generate();

  // Split by day part.
  traj::Dataset part1, part2;
  for (const auto& lt : full.trajs()) {
    (lt.traj.start_time < 43200.0 ? part1 : part2).Add(lt);
  }
  ASSERT_GT(part1.size(), 0u);
  ASSERT_GT(part2.size(), 0u);

  auto cfg = FastConfig();
  cfg.pretrain_samples = 40;
  cfg.joint_samples = 120;
  cfg.epochs_per_traj = 1;
  // P1: trained on part 1 only.
  core::Rl4Oasd p1(&net, cfg);
  p1.Fit(part1);
  // FT: same, then fine-tuned on part 2.
  core::Rl4Oasd ft(&net, cfg);
  ft.Fit(part1);
  ft.FineTune(part2, 150);

  eval::F1Evaluator ev_p1, ev_ft;
  for (const auto& lt : part2.trajs()) {
    ev_p1.Add(lt.labels, p1.Detect(lt.traj));
    ev_ft.Add(lt.labels, ft.Detect(lt.traj));
  }
  // Fine-tuning on the drifted part must not hurt (paper Figure 6c shows it
  // helps substantially).
  EXPECT_GE(ev_ft.Compute().f1 + 0.05, ev_p1.Compute().f1);
}

}  // namespace
}  // namespace rl4oasd
