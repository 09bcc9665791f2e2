// Skip-gram (Toast substitute) tests: trained embeddings must place
// co-traveled segments closer than random pairs.
#include <gtest/gtest.h>

#include "embed/skipgram.h"
#include "roadnet/grid_city.h"
#include "traj/generator.h"
#include "nn/tensor.h"
#include "test_util.h"

namespace rl4oasd::embed {
namespace {

using ::rl4oasd::testing::SmallDataset;
using ::rl4oasd::testing::SmallGrid;

TEST(SkipGramTest, OutputShape) {
  const auto net = SmallGrid();
  const auto ds = SmallDataset(net, 2);
  SkipGramConfig cfg;
  cfg.epochs = 1;
  cfg.random_walks_per_edge = 1;
  cfg.walk_length = 8;
  SkipGramTrainer trainer(&net, /*dim=*/16, cfg);
  const auto table = trainer.Train(ds);
  EXPECT_EQ(table.rows(), net.NumEdges());
  EXPECT_EQ(table.cols(), 16u);
  // No NaNs.
  for (size_t i = 0; i < table.size(); ++i) {
    EXPECT_FALSE(std::isnan(table.data()[i]));
  }
}

TEST(SkipGramTest, CoTraveledEdgesRankAboveRandom) {
  // A larger city than SmallGrid: in a 10x10 grid everything is within a
  // few hops of everything, so even random edge pairs co-occur in walks.
  // Skip-gram spaces are anisotropic (all cosines are high), so the test
  // checks the *ranking* property: an edge is more similar to a segment it
  // is co-traveled with than to a random segment, most of the time.
  roadnet::GridCityConfig gcfg;
  gcfg.rows = 24;
  gcfg.cols = 24;
  gcfg.removal_prob = 0.0;
  const auto net = roadnet::BuildGridCity(gcfg);
  traj::GeneratorConfig tcfg;
  tcfg.num_sd_pairs = 5;
  tcfg.min_pair_dist_m = 1500;
  tcfg.max_pair_dist_m = 4000;
  tcfg.seed = 5;
  traj::TrajectoryGenerator gen(&net, tcfg);
  const auto ds = gen.Generate();
  SkipGramConfig cfg;
  cfg.epochs = 2;
  cfg.walk_length = 12;
  SkipGramTrainer trainer(&net, /*dim=*/32, cfg);
  const auto table = trainer.Train(ds);

  Rng rng(77);
  int wins = 0, trials = 0;
  for (size_t k = 0; k < std::min<size_t>(ds.size(), 60); ++k) {
    const auto& edges = ds[k].traj.edges;
    for (size_t i = 1; i < edges.size(); i += 3) {
      const float adjacent = nn::CosineSimilarity(
          table.Row(edges[i - 1]), table.Row(edges[i]), table.cols());
      const auto random_edge = rng.UniformInt(net.NumEdges());
      const float random = nn::CosineSimilarity(
          table.Row(edges[i - 1]), table.Row(random_edge), table.cols());
      wins += adjacent > random;
      ++trials;
    }
  }
  ASSERT_GT(trials, 100);
  EXPECT_GT(static_cast<double>(wins) / trials, 0.7)
      << wins << "/" << trials;
}

TEST(SkipGramTest, Deterministic) {
  const auto net = SmallGrid();
  const auto ds = SmallDataset(net, 2);
  SkipGramConfig cfg;
  cfg.epochs = 1;
  cfg.random_walks_per_edge = 1;
  cfg.walk_length = 6;
  SkipGramTrainer t1(&net, /*dim=*/8, cfg);
  SkipGramTrainer t2(&net, /*dim=*/8, cfg);
  const auto a = t1.Train(ds);
  const auto b = t2.Train(ds);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
}

/// FNV-1a 64 over a matrix's float bytes: a bit-exact pin of a training
/// result that stays one line long.
uint64_t HashBytes(const nn::Matrix& m) {
  uint64_t h = 14695981039346656037ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
  for (size_t i = 0; i < m.size() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(SkipGramTest, RepeatedNegativesTrainBitIdenticallyToTheReference) {
  // The paper's Figure 1 network has 13 segments, so five negatives drawn
  // from it repeat a target in most pairs: the trainer's sequential path
  // (a repeated target's dot product must see the previous update to its
  // row) runs here, where production-size networks exercise the
  // interleaved one. The hash was captured from the one-target-at-a-time
  // reference loop; any change to the update arithmetic or to the RNG
  // draws moves it.
  const auto ex = testing::MakeFigure1Example();
  SkipGramConfig cfg;
  cfg.epochs = 3;
  cfg.walk_length = 6;
  SkipGramTrainer trainer(&ex.net, /*dim=*/8, cfg);
  const auto table = trainer.Train(ex.dataset);
  ASSERT_EQ(table.rows(), ex.net.NumEdges());
  EXPECT_EQ(HashBytes(table), 0xded6928cdf5d50a8ULL);
}

}  // namespace
}  // namespace rl4oasd::embed
