// Contracts of the online-learning path (paper Section V-G, "RL4OASD-FT")
// that the drift-adaptation service builds on:
//   * io::CloneModel yields an independent, fingerprint-identical copy;
//   * Rl4Oasd::FineTune is deterministic under a fixed seed (two clones
//     fine-tuned on the same data end up byte-identical);
//   * max_samples truncates the training pass but never the statistics
//     ingest (max_samples = 0 equals a pure Preprocessor::Update pass).
#include <memory>
#include <vector>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace rl4oasd::core
