// Batch-vs-streaming equivalence property tests for the batched inference
// path: the GEMM kernel, the batched LSTM step and its state gather/scatter,
// batched Linear forward, batched embedding gather, and RSRNet's batched
// streaming step — each compared element-wise against the scalar path it
// fuses.
//
// Equivalence contract: EXACT equality, no tolerance. The recurrent step
// has one body (Lstm::StepRows) over sample-major state rows, and the
// single-stream step is its B = 1 call, so a wave of any width runs the
// same per-row product chains as stepping each stream alone. nn::Gemm adds
// each output element's products in ascending-k order, exactly like the
// scalar dot loops, and the build pins -ffp-contract=off, so no compiler
// fuses one loop's multiply-adds differently from another's. The recurrent
// and RSRNet checks sweep kWidths: every width 1–17 (each narrow register
// tile and their sums, the live workload's typical wave width 12 among
// them), the tile edges 63/64/65, and B = 128/129.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/rsrnet.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/tensor.h"

namespace rl4oasd::nn {
namespace {

constexpr int kWidths[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11,
                           12, 13, 14, 15, 16, 17, 63, 64, 65, 128, 129};

Vec RandomVec(size_t n, Rng* rng, double scale = 1.0) {
  Vec v(n);
  for (float& x : v) x = static_cast<float>(rng->Uniform(-scale, scale));
  return v;
}

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m(r, c) = static_cast<float>(rng->Uniform(-1.0, 1.0));
    }
  }
  return m;
}

TEST(GemmTest, MatchesNaiveTripleLoop) {
  Rng rng(101);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t m = 1 + rng.UniformInt(70);
    const size_t k = 1 + rng.UniformInt(130);
    const size_t n = 1 + rng.UniformInt(50);  // crosses the register tiles
    const Matrix a = RandomMatrix(m, k, &rng);
    const Matrix b = RandomMatrix(k, n, &rng);
    Matrix c;
    MatMul(a, b, &c);
    ASSERT_EQ(c.rows(), m);
    ASSERT_EQ(c.cols(), n);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        float ref = 0.0f;
        for (size_t kk = 0; kk < k; ++kk) ref += a(i, kk) * b(kk, j);
        EXPECT_EQ(c(i, j), ref) << "C(" << i << "," << j << ")";
      }
    }
    // Accumulate mode adds the complete ascending-k product chain onto the
    // existing C in one step (the reference mirrors that association —
    // "2 * C" or summing into C element-wise would round differently).
    Matrix c2 = c;
    Gemm(a.data(), m, k, k, b.data(), n, n, c2.data(), n,
         /*accumulate=*/true);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        float chain = 0.0f;
        for (size_t kk = 0; kk < k; ++kk) chain += a(i, kk) * b(kk, j);
        EXPECT_EQ(c2(i, j), c(i, j) + chain) << "accumulated C";
      }
    }
  }
}

TEST(GemmTest, SingleColumnMatchesMatVec) {
  // With n == 1 the GEMM degenerates to the scalar matvec — and must agree
  // with it, since that is exactly the B=1 batched-inference case.
  Rng rng(77);
  const Matrix a = RandomMatrix(33, 129, &rng);
  const Vec x = RandomVec(129, &rng);
  Matrix xm(129, 1);
  for (size_t i = 0; i < x.size(); ++i) xm(i, 0) = x[i];
  Matrix c;
  MatMul(a, xm, &c);
  Vec y(33);
  MatVec(a, x.data(), y.data());
  for (size_t i = 0; i < y.size(); ++i) {
    EXPECT_EQ(c(i, 0), y[i]) << "row " << i;
  }
}

TEST(TensorBatchTest, SoftmaxColumnsMatchesPerColumnSoftmax) {
  Rng rng(5);
  Matrix logits = RandomMatrix(4, 9, &rng);
  Matrix batched = logits;
  SoftmaxColumnsInPlace(&batched);
  for (size_t j = 0; j < logits.cols(); ++j) {
    float col[4];
    for (size_t r = 0; r < 4; ++r) col[r] = logits(r, j);
    SoftmaxInPlace(col, 4);
    for (size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(batched(r, j), col[r]) << "column " << j;
    }
  }
}

TEST(EmbeddingBatchTest, LookupBatchMatchesLookup) {
  Rng rng(9);
  Embedding embed("t.embed", 23, 7, &rng);
  for (const size_t batch : {size_t{1}, size_t{2}, size_t{13}}) {
    std::vector<size_t> ids(batch);
    for (size_t b = 0; b < batch; ++b) ids[b] = rng.UniformInt(23);
    Matrix out;
    embed.LookupBatch(ids, &out);
    ASSERT_EQ(out.rows(), batch);
    ASSERT_EQ(out.cols(), 7u);
    for (size_t b = 0; b < batch; ++b) {
      const float* row = embed.Lookup(ids[b]);
      for (size_t r = 0; r < 7; ++r) {
        EXPECT_EQ(out(b, r), row[r]) << "id " << ids[b] << " dim " << r;
      }
    }
  }
}

TEST(LinearBatchTest, ForwardBatchMatchesForward) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t in = 1 + rng.UniformInt(60);
    const size_t out_dim = 1 + rng.UniformInt(20);
    const size_t batch = 1 + rng.UniformInt(40);
    Linear layer("t.lin", in, out_dim, &rng);
    const Matrix x = RandomMatrix(in, batch, &rng);
    Matrix out;
    layer.ForwardBatch(x, &out);
    Vec xcol(in);
    Vec ycol(out_dim);
    for (size_t b = 0; b < batch; ++b) {
      for (size_t r = 0; r < in; ++r) xcol[r] = x(r, b);
      layer.Forward(xcol.data(), ycol.data());
      for (size_t r = 0; r < out_dim; ++r) {
        EXPECT_EQ(out(r, b), ycol[r]) << "sample " << b;
      }
    }
  }
}

TEST(LstmBatchTest, StepForwardBatchMatchesStreaming) {
  // Drives 4 batched steps and B independent scalar streams over the same
  // random inputs (starting from the same random nonzero carried states) at
  // every width in kWidths, and compares the full state after every step.
  Rng rng(21);
  for (const size_t batch : kWidths) {
    const size_t input_dim = 1 + rng.UniformInt(40);
    const size_t hidden = 1 + rng.UniformInt(40);
    Lstm cell("t.cell", input_dim, hidden, &rng);
    // Random nonzero carried states (a mid-trip batch never starts at 0).
    std::vector<LstmState> scalar(batch, LstmState(hidden));
    LstmBatchState batched(hidden, batch);
    for (size_t b = 0; b < batch; ++b) {
      scalar[b].h = RandomVec(hidden, &rng);
      scalar[b].c = RandomVec(hidden, &rng);
      std::copy(scalar[b].h.begin(), scalar[b].h.end(), batched.h.Row(b));
      std::copy(scalar[b].c.begin(), scalar[b].c.end(), batched.c.Row(b));
    }
    for (int step = 0; step < 4; ++step) {
      const Matrix x = RandomMatrix(batch, input_dim, &rng);
      cell.StepForwardBatch(x, &batched);
      for (size_t b = 0; b < batch; ++b) {
        cell.StepForward(x.Row(b), &scalar[b]);
        for (size_t r = 0; r < hidden; ++r) {
          EXPECT_EQ(batched.h(b, r), scalar[b].h[r])
              << "h B=" << batch << " sample " << b << " step " << step;
          EXPECT_EQ(batched.c(b, r), scalar[b].c[r])
              << "c B=" << batch << " sample " << b << " step " << step;
        }
      }
    }
  }
}

TEST(LstmBatchStateTest, GatherScatterRoundTrips) {
  Rng rng(31);
  const size_t H = 11;
  const size_t B = 5;
  std::vector<LstmState> states(B, LstmState(H));
  for (auto& s : states) {
    s.h = RandomVec(H, &rng);
    s.c = RandomVec(H, &rng);
  }
  std::vector<const LstmState*> in;
  std::vector<LstmState*> out;
  for (auto& s : states) {
    in.push_back(&s);
    out.push_back(&s);
  }
  LstmBatchState batch;
  batch.Gather(in, H);
  ASSERT_EQ(batch.batch(), B);
  for (size_t b = 0; b < B; ++b) {  // sample-major: row b is stream b
    EXPECT_EQ(Vec(batch.h.Row(b), batch.h.Row(b) + H), states[b].h);
    EXPECT_EQ(Vec(batch.c.Row(b), batch.c.Row(b) + H), states[b].c);
  }
  const std::vector<LstmState> before = states;
  for (auto& s : states) s.Reset();
  batch.Scatter(out);
  for (size_t b = 0; b < B; ++b) {
    EXPECT_EQ(states[b].h, before[b].h);
    EXPECT_EQ(states[b].c, before[b].c);
  }
}

TEST(RsrNetBatchTest, StepForwardBatchMatchesScalar) {
  // Persistent per-trip streams advanced through waves of every width in
  // kWidths, each over a random subset of the streams — the ragged final
  // batch of a draining ingest wave is just a smaller B, and a stream's
  // first wave sizes its fresh state like the scalar step does.
  core::RsrNetConfig cfg;
  cfg.num_edges = 50;
  cfg.embed_dim = 12;
  cfg.nrf_dim = 6;
  cfg.hidden_dim = 10;
  core::RsrNet net(cfg);

  Rng rng(55);
  constexpr size_t kStreams = 129;
  std::vector<core::RsrStream> batched_streams(kStreams);
  std::vector<core::RsrStream> scalar_streams(kStreams);
  for (int pass = 0; pass < 2; ++pass) {
    for (const size_t B : kWidths) {
      const std::vector<size_t> wave =
          rng.SampleWithoutReplacement(kStreams, B);
      std::vector<traj::EdgeId> edges(B);
      std::vector<uint8_t> nrf(B);
      std::vector<core::RsrStream*> streams(B);
      for (size_t b = 0; b < B; ++b) {
        edges[b] = static_cast<traj::EdgeId>(rng.UniformInt(cfg.num_edges));
        nrf[b] = rng.Bernoulli(0.5) ? 1 : 0;
        streams[b] = &batched_streams[wave[b]];
      }
      Matrix z;
      Matrix probs;
      net.StepForwardBatch(edges, nrf, streams, &z, &probs);
      ASSERT_EQ(z.rows(), net.z_dim());
      ASSERT_EQ(z.cols(), B);
      for (size_t b = 0; b < B; ++b) {
        std::array<float, 2> scalar_probs{};
        const Vec scalar_z = net.StepForward(
            edges[b], nrf[b], &scalar_streams[wave[b]], &scalar_probs);
        const std::string where = "B=" + std::to_string(B) + " stream " +
                                  std::to_string(wave[b]) + " pass " +
                                  std::to_string(pass);
        for (size_t r = 0; r < scalar_z.size(); ++r) {
          EXPECT_EQ(z(r, b), scalar_z[r]) << "z " << where;
        }
        EXPECT_EQ(probs(0, b), scalar_probs[0]) << "p0 " << where;
        EXPECT_EQ(probs(1, b), scalar_probs[1]) << "p1 " << where;
        EXPECT_EQ(batched_streams[wave[b]].state.h,
                  scalar_streams[wave[b]].state.h)
            << "carried h " << where;
        EXPECT_EQ(batched_streams[wave[b]].state.c,
                  scalar_streams[wave[b]].state.c)
            << "carried c " << where;
      }
    }
  }
}

}  // namespace
}  // namespace rl4oasd::nn
