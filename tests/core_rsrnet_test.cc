// RSRNet tests: shapes, training reduces loss, bit-exact streaming/sequence
// equivalence after every kind of weight write, and embedding loading.
#include "core/rsrnet.h"

#include <gtest/gtest.h>

#include "core/rl4oasd.h"
#include "io/model_io.h"
#include "test_util.h"

namespace rl4oasd::core {
namespace {

RsrNetConfig TinyConfig(size_t num_edges) {
  RsrNetConfig cfg;
  cfg.num_edges = num_edges;
  cfg.embed_dim = 8;
  cfg.nrf_dim = 8;
  cfg.hidden_dim = 8;
  return cfg;
}

TEST(RsrNetTest, ForwardShapes) {
  RsrNet net(TinyConfig(20));
  const std::vector<traj::EdgeId> edges = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> nrf = {0, 0, 1, 1, 0};
  const auto fwd = net.Forward(edges, nrf);
  ASSERT_EQ(fwd.z.size(), 5u);
  ASSERT_EQ(fwd.probs.size(), 5u);
  for (const auto& z : fwd.z) EXPECT_EQ(z.size(), net.z_dim());
  for (const auto& p : fwd.probs) {
    EXPECT_NEAR(p[0] + p[1], 1.0f, 1e-5f);
    EXPECT_GE(p[0], 0.0f);
    EXPECT_GE(p[1], 0.0f);
  }
}

TEST(RsrNetTest, NrfBitChangesRepresentation) {
  RsrNet net(TinyConfig(20));
  const std::vector<traj::EdgeId> edges = {1, 2, 3};
  const auto a = net.Forward(edges, {0, 0, 0});
  const auto b = net.Forward(edges, {0, 1, 0});
  // The NRF half of z at position 1 must differ.
  bool differs = false;
  for (size_t i = 0; i < net.z_dim(); ++i) {
    if (a.z[1][i] != b.z[1][i]) differs = true;
  }
  EXPECT_TRUE(differs);
  // And the LSTM half (first hidden_dim dims) is identical since NRF does
  // not go through the LSTM.
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(a.z[1][i], b.z[1][i]);
  }
}

// A fixed supervised task: label 1 exactly on a contiguous span.
const std::vector<traj::EdgeId> kTrainEdges = {1, 2, 3, 4, 5, 6, 7, 8};
const std::vector<uint8_t> kTrainNrf = {0, 0, 1, 1, 1, 0, 0, 0};
const std::vector<uint8_t> kTrainLabels = {0, 0, 1, 1, 1, 0, 0, 0};

TEST(RsrNetTest, TrainingReducesLoss) {
  RsrNet net(TinyConfig(30));
  const double before = net.Loss(kTrainEdges, kTrainNrf, kTrainLabels);
  for (int i = 0; i < 60; ++i) {
    net.TrainStep(kTrainEdges, kTrainNrf, kTrainLabels);
  }
  const double after = net.Loss(kTrainEdges, kTrainNrf, kTrainLabels);
  EXPECT_LT(after, before * 0.5);
  EXPECT_LT(after, 0.3);
}

TEST(RsrNetTest, TrainStepReturnsLoss) {
  RsrNet net(TinyConfig(10));
  const std::vector<traj::EdgeId> edges = {0, 1, 2};
  const std::vector<uint8_t> nrf = {0, 1, 0};
  const std::vector<uint8_t> labels = {0, 1, 0};
  const double loss = net.TrainStep(edges, nrf, labels);
  EXPECT_GT(loss, 0.0);
  EXPECT_NEAR(loss, -std::log(0.5) /*untrained ~ uniform*/, 0.7);
}

// The streaming step and the sequence forward run every gate as the same
// ascending-k product chain, so their outputs are bit-identical; any
// difference means the streaming step read a stale packed weight copy.
void ExpectStreamingMatchesForward(const RsrNet& net) {
  const std::vector<traj::EdgeId> edges = {3, 7, 9, 11, 2};
  const std::vector<uint8_t> nrf = {0, 1, 1, 0, 0};
  const auto fwd = net.Forward(edges, nrf);
  RsrStream stream;
  for (size_t i = 0; i < edges.size(); ++i) {
    std::array<float, 2> probs;
    const auto z = net.StepForward(edges[i], nrf[i], &stream, &probs);
    ASSERT_EQ(z.size(), fwd.z[i].size());
    for (size_t d = 0; d < z.size(); ++d) {
      EXPECT_EQ(z[d], fwd.z[i][d]) << "step " << i << " dim " << d;
    }
    EXPECT_EQ(probs[0], fwd.probs[i][0]) << "step " << i;
    EXPECT_EQ(probs[1], fwd.probs[i][1]) << "step " << i;
  }
}

TEST(RsrNetTest, StreamingMatchesSequenceForward) {
  RsrNet net(TinyConfig(25));
  ExpectStreamingMatchesForward(net);
}

TEST(RsrNetTest, StreamingMatchesSequenceForwardAfterTrainStep) {
  RsrNet net(TinyConfig(25));
  for (int i = 0; i < 5; ++i) {
    net.TrainStep(kTrainEdges, kTrainNrf, kTrainLabels);
  }
  ExpectStreamingMatchesForward(net);
}

TEST(RsrNetTest, StreamingMatchesSequenceForwardAfterWorkerGradients) {
  RsrNet net(TinyConfig(25));
  nn::GradientSink sink(*net.registry());
  net.registry()->ZeroGrad();
  for (int i = 0; i < 3; ++i) {
    net.AccumulateGradients(kTrainEdges, kTrainNrf, kTrainLabels, &sink);
    net.ApplyWorkerGradients(&sink);
  }
  ExpectStreamingMatchesForward(net);
}

TEST(RsrNetTest, StreamingMatchesSequenceForwardAfterClone) {
  const roadnet::RoadNetwork net = testing::SmallGrid();
  Rl4OasdConfig cfg;
  cfg.rsr = TinyConfig(0);  // num_edges comes from the network
  Rl4Oasd model(&net, cfg);
  for (int i = 0; i < 5; ++i) {
    model.mutable_rsrnet()->TrainStep(kTrainEdges, kTrainNrf, kTrainLabels);
  }
  auto clone = io::CloneModel(&net, model);
  ASSERT_TRUE(clone.ok()) << clone.status().ToString();
  const RsrNet& cloned = (*clone)->rsrnet();
  // The clone's sequence forward reproduces the trained original; its
  // streaming step must too, though a missed repack would leave the clone
  // constructor's fresh initialization in the packed copy.
  const auto want = model.rsrnet().Forward(kTrainEdges, kTrainNrf);
  const auto got = cloned.Forward(kTrainEdges, kTrainNrf);
  for (size_t i = 0; i < want.probs.size(); ++i) {
    EXPECT_EQ(got.probs[i][1], want.probs[i][1]) << "step " << i;
  }
  ExpectStreamingMatchesForward(cloned);
}

TEST(RsrNetTest, LoadTcfEmbeddings) {
  RsrNet net(TinyConfig(12));
  nn::Matrix table(12, 8);
  for (size_t i = 0; i < table.size(); ++i) {
    table.data()[i] = static_cast<float>(i) * 0.01f;
  }
  net.LoadTcfEmbeddings(table);
  // The first LSTM input is the embedding of the edge; verify indirectly by
  // determinism: two nets loaded with the same table produce identical z.
  RsrNet net2(TinyConfig(12));
  net2.LoadTcfEmbeddings(table);
  const std::vector<traj::EdgeId> edges = {1, 5, 9};
  const std::vector<uint8_t> nrf = {0, 0, 0};
  const auto a = net.Forward(edges, nrf);
  const auto b = net2.Forward(edges, nrf);
  for (size_t d = 0; d < a.z[2].size(); ++d) {
    EXPECT_FLOAT_EQ(a.z[2][d], b.z[2][d]);
  }
}

TEST(RsrNetTest, LossOnEmptyIsZero) {
  RsrNet net(TinyConfig(5));
  EXPECT_DOUBLE_EQ(net.Loss({}, {}, {}), 0.0);
  EXPECT_DOUBLE_EQ(net.TrainStep({}, {}, {}), 0.0);
}

TEST(RsrNetTest, DeterministicAcrossInstances) {
  RsrNet a(TinyConfig(15));
  RsrNet b(TinyConfig(15));
  const std::vector<traj::EdgeId> edges = {1, 2, 3, 4};
  const std::vector<uint8_t> nrf = {0, 1, 0, 1};
  const auto fa = a.Forward(edges, nrf);
  const auto fb = b.Forward(edges, nrf);
  for (size_t i = 0; i < fa.probs.size(); ++i) {
    EXPECT_FLOAT_EQ(fa.probs[i][0], fb.probs[i][0]);
  }
}

}  // namespace
}  // namespace rl4oasd::core
