// Contracts of the online-learning path (paper Section V-G, "RL4OASD-FT")
// that the drift-adaptation service builds on:
//   * io::CloneModel yields an independent, fingerprint-identical copy;
//   * Rl4Oasd::FineTune is deterministic under a fixed seed (two clones
//     fine-tuned on the same data end up byte-identical);
//   * max_samples truncates the training pass but never the statistics
//     ingest (max_samples = 0 equals a pure Preprocessor::Update pass);
//   * every ingested trajectory bumps Preprocessor::stats_generation(),
//     which is exactly what invalidates FeatureCache's memoized features.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/feature_cache.h"
#include "core/preprocess.h"
#include "core/rl4oasd.h"
#include "io/model_io.h"
#include "test_util.h"
#include "traj/dataset.h"

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
  cfg.joint_samples = 120;
  cfg.epochs_per_traj = 1;
  return cfg;
}

/// One small trained model shared by the suite; FineTune inputs come from a
/// second generated dataset (different seed, so mostly unseen SD pairs —
/// the concept-drift shape).
class FineTuneTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new roadnet::RoadNetwork(testing::SmallGrid());
    historical_ = new traj::Dataset(testing::SmallDataset(*net_, 4, 0.12));
    fresh_ = new traj::Dataset(testing::SmallDataset(*net_, 3, 0.1, 123));
    model_ = new Rl4Oasd(net_, TinyConfig());
    model_->Fit(*historical_);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete fresh_;
    delete historical_;
    delete net_;
    model_ = nullptr;
    fresh_ = nullptr;
    historical_ = nullptr;
    net_ = nullptr;
  }

  static std::unique_ptr<Rl4Oasd> Clone() {
    auto cloned = io::CloneModel(net_, *model_);
    EXPECT_TRUE(cloned.ok()) << cloned.status().ToString();
    return std::move(cloned).value();
  }

  static roadnet::RoadNetwork* net_;
  static traj::Dataset* historical_;
  static traj::Dataset* fresh_;
  static Rl4Oasd* model_;
};

roadnet::RoadNetwork* FineTuneTest::net_ = nullptr;
traj::Dataset* FineTuneTest::historical_ = nullptr;
traj::Dataset* FineTuneTest::fresh_ = nullptr;
Rl4Oasd* FineTuneTest::model_ = nullptr;

TEST_F(FineTuneTest, CloneIsFingerprintIdenticalAndIndependent) {
  const uint64_t original = io::ModelFingerprint(*model_);
  auto clone = Clone();
  EXPECT_EQ(io::ModelFingerprint(*clone), original);

  // Mutating the clone must leave the original untouched — that is the
  // whole point of cloning before a background fine-tune.
  clone->FineTune(*fresh_, 10);
  EXPECT_NE(io::ModelFingerprint(*clone), original);
  EXPECT_EQ(io::ModelFingerprint(*model_), original);
}

TEST_F(FineTuneTest, FineTuneIsDeterministicUnderFixedSeed) {
  auto a = Clone();
  auto b = Clone();
  a->FineTune(*fresh_, 40);
  b->FineTune(*fresh_, 40);
  EXPECT_EQ(io::ModelFingerprint(*a), io::ModelFingerprint(*b));
  // And it did something: the fine-tuned weights differ from the original.
  EXPECT_NE(io::ModelFingerprint(*a), io::ModelFingerprint(*model_));
}

TEST_F(FineTuneTest, MaxSamplesTruncatesTrainingButNotStatisticsIngest) {
  // max_samples = 0: the statistics ingest every trajectory, the networks
  // see none of them — byte-for-byte the same outcome as a bare
  // Preprocessor::Update pass over the clone.
  auto truncated = Clone();
  truncated->FineTune(*fresh_, 0);

  auto stats_only = Clone();
  for (const auto& lt : fresh_->trajs()) {
    stats_only->mutable_preprocessor()->Update(lt.traj);
  }
  EXPECT_EQ(io::ModelFingerprint(*truncated),
            io::ModelFingerprint(*stats_only));

  // A nonzero budget additionally moves the network weights.
  auto trained = Clone();
  trained->FineTune(*fresh_, 20);
  EXPECT_NE(io::ModelFingerprint(*trained), io::ModelFingerprint(*truncated));
}

TEST_F(FineTuneTest, FineTuneBumpsStatsGenerationPerIngestedTrajectory) {
  auto clone = Clone();
  const uint64_t before = clone->preprocessor().stats_generation();
  clone->FineTune(*fresh_, 0);
  // Every trajectory of >= 2 edges funnels through Update, which bumps the
  // generation once per call (FeatureCache's invalidation signal).
  size_t ingestible = 0;
  for (const auto& lt : fresh_->trajs()) {
    if (lt.traj.edges.size() >= 2) ++ingestible;
  }
  EXPECT_EQ(clone->preprocessor().stats_generation(), before + ingestible);
}

TEST(FeatureCacheDriftTest, StatsGenerationBumpInvalidatesCachedFeatures) {
  // Figure 1 worked example: the detour route T3 appears once in history,
  // so its detour transitions are noisy-labeled anomalous. Flooding the
  // statistics with T3 trips (the concept-drift scenario: the detour
  // becomes the popular route) must flip the cached labels.
  auto ex = testing::MakeFigure1Example();
  Preprocessor pp({.alpha = 0.2, .delta = 0.3});
  pp.Fit(ex.dataset);

  FeatureCache cache(&pp);
  const traj::MapMatchedTrajectory t3{/*id=*/1000, ex.t3, 9 * 3600.0};
  const std::vector<uint8_t> before = cache.NoisyLabels(t3);
  ASSERT_EQ(before, pp.NoisyLabels(t3));
  EXPECT_TRUE(t3.size() > 3 && before[3] == 1)
      << "detour transitions should start out anomalous";
  // A warm cache returns the memoized vector while the generation holds.
  EXPECT_EQ(cache.NoisyLabels(t3), before);

  const uint64_t gen_before = pp.stats_generation();
  for (int i = 0; i < 30; ++i) {
    pp.Update(traj::MapMatchedTrajectory{2000 + i, ex.t3, 9 * 3600.0});
  }
  EXPECT_GT(pp.stats_generation(), gen_before);

  // The generation bump invalidates the entry: the cache recomputes against
  // the drifted statistics instead of replaying the stale memo.
  const std::vector<uint8_t> after = cache.NoisyLabels(t3);
  EXPECT_EQ(after, pp.NoisyLabels(t3));
  EXPECT_NE(after, before);
  EXPECT_EQ(after, std::vector<uint8_t>(t3.size(), 0))
      << "the now-popular detour should be labeled fully normal";
}

}  // namespace
}  // namespace rl4oasd::core
