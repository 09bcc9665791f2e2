// Skip-gram (Toast substitute) tests: trained embeddings must place
// co-traveled segments closer than random pairs.
#include <gtest/gtest.h>

#include <cstring>

#if defined(__linux__)
#include <sched.h>
#endif

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
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
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

/// A production-shaped corpus: the default ~4,900-segment grid city, as
/// the benches' cities use, with trajectories over 8 SD pairs and one short
/// walk per edge. Against thousands of segments the negatives of a pair are
/// almost always distinct, so these pins run the trainer's interleaved
/// path where the Figure 1 pin runs its sequential one.
struct ProductionCorpus {
  roadnet::RoadNetwork net;
  traj::Dataset dataset;
};

const ProductionCorpus& SharedProductionCorpus() {
  static const ProductionCorpus* corpus = [] {
    auto* c = new ProductionCorpus;
    c->net = roadnet::BuildGridCity(roadnet::GridCityConfig{});
    traj::GeneratorConfig tcfg;
    tcfg.num_sd_pairs = 8;
    tcfg.min_trajs_per_pair = 10;
    tcfg.max_trajs_per_pair = 20;
    tcfg.seed = 23;
    traj::TrajectoryGenerator gen(&c->net, tcfg);
    c->dataset = gen.Generate();
    return c;
  }();
  return *corpus;
}

uint64_t TrainProductionShaped(int negatives, int window) {
  const auto& corpus = SharedProductionCorpus();
  SkipGramConfig cfg;
  cfg.epochs = 1;
  cfg.random_walks_per_edge = 1;
  cfg.walk_length = 6;
  cfg.negatives = negatives;
  cfg.window = window;
  SkipGramTrainer trainer(&corpus.net, /*dim=*/32, cfg);
  const auto table = trainer.Train(corpus.dataset);
  EXPECT_EQ(table.rows(), corpus.net.NumEdges());
  return HashBytes(table);
}

struct TrainerPin {
  int negatives;
  int window;
  uint64_t hash;
};

// Captured from the single-threaded trainer that drew each pair's negatives
// inline; any change to the update arithmetic or to the RNG stream moves
// them.
constexpr TrainerPin kProductionPins[] = {
    {0, 1, 0x2b3d2e67993f06acULL},  {0, 4, 0xf2a56cf3b91632d4ULL},
    {1, 1, 0xb2356c9d0c08b077ULL},  {1, 4, 0x673d29258d23269cULL},
    {5, 1, 0x194716a630330010ULL},  {5, 4, 0xbd46cdae570a8f87ULL},
    {12, 1, 0x51608d0412bb917eULL}, {12, 4, 0x5f429545585bc153ULL},
};

TEST(SkipGramTest, ProductionShapedTrainingIsBitPinned) {
  for (const TrainerPin& pin : kProductionPins) {
    EXPECT_EQ(TrainProductionShaped(pin.negatives, pin.window), pin.hash)
        << "negatives " << pin.negatives << " window " << pin.window;
  }
}

TEST(SkipGramTest, OneCpuAffinityTrainsTheSameBits) {
  // Everything Train starts inherits the calling thread's affinity mask, so
  // this runs the whole trainer on one CPU: it must neither spin forever
  // nor change a bit.
#if defined(__linux__)
  cpu_set_t saved;
  CPU_ZERO(&saved);
  if (sched_getaffinity(0, sizeof(saved), &saved) != 0) {
    GTEST_SKIP() << "sched_getaffinity is unavailable here";
  }
  int first = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE && first < 0; ++cpu) {
    if (CPU_ISSET(cpu, &saved)) first = cpu;
  }
  ASSERT_GE(first, 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    GTEST_SKIP() << "sched_setaffinity is unavailable here";
  }
  const TrainerPin& pin = kProductionPins[5];  // negatives 5, window 4
  const uint64_t got = TrainProductionShaped(pin.negatives, pin.window);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(got, pin.hash);
#else
  GTEST_SKIP() << "thread affinity is Linux-only here";
#endif
}

}  // namespace
}  // namespace rl4oasd::embed
