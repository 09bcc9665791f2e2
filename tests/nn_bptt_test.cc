// Sequence-level (GEMM-backed) BPTT, pinned bit for bit.
//
// LSTM gradients are checked against tests/data/golden_lstm_gradients.txt,
// which the seed-era per-step backward wrote before it was deleted: from
// zeroed gradient buffers, BackwardSeq must reproduce those gradients
// exactly — not within a tolerance — because the golden end-to-end
// regression pins trained-model outputs. The GEMM packing earns this by
// accumulating in the per-step order: weight-gradient matrices pack
// timesteps as reversed-time columns (ascending-k in nn::Gemm ==
// descending-t in a per-step loop), input gradients as forward-order rows,
// and biases accumulate element-wise in loop order. nn_test's
// finite-difference check covers the gradients' values.
//
// Linear's BackwardSeq is compared with its per-row Backward, which the
// ASDNet policy and the SeqVAE heads train through.
//
// The worker-local GradientSink path is also exact here (sink buffers
// start zeroed and fold back with one add per element); the documented
// <= 1e-6 relative tolerance applies only to the data-parallel *training*
// equivalence (stale gradients across a minibatch), which is covered by
// core_rl4oasd_parallel_test.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "golden_file.h"
#include "nn/linear.h"
#include "nn/lstm.h"

namespace rl4oasd::nn {
namespace {

std::vector<Vec> RandomInputs(size_t t, size_t dim, Rng* rng) {
  std::vector<Vec> xs(t, Vec(dim));
  for (auto& x : xs) {
    for (auto& v : x) v = static_cast<float>(rng->Uniform(-1.0, 1.0));
  }
  return xs;
}

std::vector<const float*> Pointers(const std::vector<Vec>& xs) {
  std::vector<const float*> ps;
  ps.reserve(xs.size());
  for (const auto& x : xs) ps.push_back(x.data());
  return ps;
}

/// Snapshot of every gradient in a registry.
std::vector<Matrix> GradSnapshot(const ParameterRegistry& reg) {
  std::vector<Matrix> out;
  for (const Parameter* p : reg.params()) out.push_back(p->grad);
  return out;
}

::testing::AssertionResult BitIdentical(const Matrix& a, const Matrix& b,
                                        const char* what) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << what << ": shape mismatch";
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
    for (size_t i = 0; i < a.size(); ++i) {
      if (a.data()[i] != b.data()[i]) {
        return ::testing::AssertionFailure()
               << what << ": first mismatch at flat index " << i << ": "
               << a.data()[i] << " vs " << b.data()[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

struct Shape {
  size_t input;
  size_t hidden;
  size_t steps;
};

const Shape kShapes[] = {
    {1, 1, 1},    // degenerate: single unit, single step (no wh gradient)
    {3, 5, 2},    // tiny odd sizes (exercises GEMM tail tiles)
    {8, 8, 7},
    {17, 13, 29},  // odd sizes across several register-tile widths
    {32, 32, 40},  // the tuned RSRNet shape
};

constexpr const char* kLstmGradientsPath =
    RL4OASD_TEST_DATA_DIR "/golden_lstm_gradients.txt";

/// FNV-1a 64 over the bit patterns of `n` floats.
uint64_t HashFloats(const float* v, size_t n) {
  uint64_t h = 14695981039346656037ULL;
  for (size_t i = 0; i < n; ++i) {
    uint32_t bits;
    std::memcpy(&bits, &v[i], sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// One golden line: "<shape> <tensor> <rows>x<cols> <hash>".
std::string GradientLine(const Shape& s, const std::string& what,
                         size_t rows, size_t cols, const float* v) {
  char line[160];
  std::snprintf(line, sizeof(line), "i%zu_h%zu_t%zu %s %zux%zu %016" PRIx64,
                s.input, s.hidden, s.steps, what.c_str(), rows, cols,
                HashFloats(v, rows * cols));
  return line;
}

// The parameter and input gradients of every shape, from zeroed buffers,
// pinned bit for bit in tests/data/golden_lstm_gradients.txt.
TEST(NnBpttTest, LstmGradientsMatchGoldenFile) {
  std::string rendered;
  for (const Shape& s : kShapes) {
    Rng rng(101 + s.input + s.hidden + s.steps);
    Lstm lstm("t", s.input, s.hidden, &rng);
    ParameterRegistry reg;
    lstm.RegisterParams(&reg);
    const auto xs = RandomInputs(s.steps, s.input, &rng);
    const auto caches = lstm.Forward(Pointers(xs));
    Matrix d_h(s.steps, s.hidden);
    for (size_t i = 0; i < d_h.size(); ++i) {
      d_h.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }

    reg.ZeroGrad();
    Matrix d_x;
    lstm.BackwardSeq(caches, d_h, &d_x);

    for (const Parameter* p : reg.params()) {
      rendered += GradientLine(s, p->name, p->grad.rows(), p->grad.cols(),
                               p->grad.data()) +
                  "\n";
    }
    rendered +=
        GradientLine(s, "d_x", d_x.rows(), d_x.cols(), d_x.data()) + "\n";
  }
  testing::ExpectMatchesGoldenFile(kLstmGradientsPath, rendered);
}

TEST(NnBpttTest, LinearBackwardSeqBitIdenticalToPerStep) {
  for (const auto& [in, out, steps] :
       {std::tuple<size_t, size_t, size_t>{5, 2, 1},
        {40, 2, 33},
        {13, 7, 21}}) {
    Rng rng(443 + in + out + steps);
    Linear lin("t", in, out, &rng);
    ParameterRegistry reg;
    lin.RegisterParams(&reg);
    Matrix x_seq(steps, in);
    Matrix d_out_seq(steps, out);
    for (size_t i = 0; i < x_seq.size(); ++i) {
      x_seq.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    for (size_t i = 0; i < d_out_seq.size(); ++i) {
      d_out_seq.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }

    reg.ZeroGrad();
    Matrix d_x_ref(steps, in, 0.0f);
    for (size_t t = 0; t < steps; ++t) {
      lin.Backward(x_seq.Row(t), d_out_seq.Row(t), d_x_ref.Row(t));
    }
    const auto ref = GradSnapshot(reg);

    reg.ZeroGrad();
    Matrix d_x_seq;
    lin.BackwardSeq(x_seq, d_out_seq, &d_x_seq);
    const auto seq = GradSnapshot(reg);

    for (size_t k = 0; k < ref.size(); ++k) {
      EXPECT_TRUE(BitIdentical(ref[k], seq[k], reg.params()[k]->name.c_str()));
    }
    EXPECT_TRUE(BitIdentical(d_x_ref, d_x_seq, "d_x"));
  }
}

TEST(NnBpttTest, GradientSinkRoutesBitIdenticalGradients) {
  // BackwardSeq(sink) + AddToParams must equal BackwardSeq(direct): sink
  // buffers start zeroed, and folding adds each element once into a zeroed
  // registry gradient.
  Rng rng(557);
  Lstm net("t", 6, 10, &rng);
  ParameterRegistry reg;
  net.RegisterParams(&reg);
  const size_t steps = 23;
  const auto xs = RandomInputs(steps, 6, &rng);
  const auto cache = net.Forward(Pointers(xs));
  Matrix d_h(steps, 10);
  for (size_t i = 0; i < d_h.size(); ++i) {
    d_h.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }

  reg.ZeroGrad();
  Matrix d_x_direct;
  net.BackwardSeq(cache, d_h, &d_x_direct);
  const auto direct = GradSnapshot(reg);

  reg.ZeroGrad();
  GradientSink sink(reg);
  Matrix d_x_sink;
  net.BackwardSeq(cache, d_h, &d_x_sink, &sink);
  // Nothing may have touched the registry gradients yet.
  for (const Parameter* p : reg.params()) {
    for (size_t i = 0; i < p->grad.size(); ++i) {
      ASSERT_EQ(p->grad.data()[i], 0.0f) << p->name << " written directly";
    }
  }
  sink.AddToParams();
  const auto routed = GradSnapshot(reg);

  for (size_t k = 0; k < direct.size(); ++k) {
    EXPECT_TRUE(
        BitIdentical(direct[k], routed[k], reg.params()[k]->name.c_str()));
  }
  EXPECT_TRUE(BitIdentical(d_x_direct, d_x_sink, "d_x"));

  // Reset restores the all-zero invariant for reuse.
  sink.Reset();
  net.BackwardSeq(cache, d_h, &d_x_sink, &sink);
  reg.ZeroGrad();
  sink.AddToParams();
  const auto reused = GradSnapshot(reg);
  for (size_t k = 0; k < direct.size(); ++k) {
    EXPECT_TRUE(
        BitIdentical(direct[k], reused[k], reg.params()[k]->name.c_str()));
  }
}

}  // namespace
}  // namespace rl4oasd::nn
