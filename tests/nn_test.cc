// Neural-network substrate tests, including finite-difference gradient
// checks for the Linear and LSTM layers (the correctness anchor for all
// training in the repo) and convergence tests for Adam.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "nn/adam.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/sgns.h"
#include "nn/tensor.h"

namespace rl4oasd::nn {
namespace {

TEST(TensorTest, MatVec) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(0, 2) = 3;
  m(1, 0) = 4;
  m(1, 1) = 5;
  m(1, 2) = 6;
  const float x[3] = {1, 0, -1};
  float y[2];
  MatVec(m, x, y);
  EXPECT_FLOAT_EQ(y[0], -2.0f);
  EXPECT_FLOAT_EQ(y[1], -2.0f);
}

TEST(TensorTest, MatTransVecAccum) {
  Matrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 3;
  m(1, 1) = 4;
  const float g[2] = {1, 1};
  float y[2] = {0, 0};
  MatTransVecAccum(m, g, y);
  EXPECT_FLOAT_EQ(y[0], 4.0f);
  EXPECT_FLOAT_EQ(y[1], 6.0f);
}

TEST(TensorTest, OuterAccum) {
  Matrix m(2, 2);
  const float g[2] = {1, 2};
  const float x[2] = {3, 4};
  OuterAccum(&m, g, x);
  EXPECT_FLOAT_EQ(m(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(m(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(m(1, 0), 6.0f);
  EXPECT_FLOAT_EQ(m(1, 1), 8.0f);
}

TEST(TensorTest, SoftmaxNormalizes) {
  float logits[3] = {1.0f, 2.0f, 3.0f};
  SoftmaxInPlace(logits, 3);
  EXPECT_NEAR(logits[0] + logits[1] + logits[2], 1.0f, 1e-6f);
  EXPECT_GT(logits[2], logits[1]);
  EXPECT_GT(logits[1], logits[0]);
}

TEST(TensorTest, SoftmaxStableWithLargeLogits) {
  float logits[2] = {1000.0f, 1001.0f};
  SoftmaxInPlace(logits, 2);
  EXPECT_FALSE(std::isnan(logits[0]));
  EXPECT_NEAR(logits[0] + logits[1], 1.0f, 1e-6f);
}

TEST(TensorTest, CosineSimilarity) {
  const float a[2] = {1, 0};
  const float b[2] = {0, 1};
  const float c[2] = {2, 0};
  const float z[2] = {0, 0};
  EXPECT_NEAR(CosineSimilarity(a, b, 2), 0.0f, 1e-6f);
  EXPECT_NEAR(CosineSimilarity(a, c, 2), 1.0f, 1e-6f);
  EXPECT_FLOAT_EQ(CosineSimilarity(a, z, 2), 0.0f);
}

TEST(TensorTest, CrossEntropyOfPerfectPrediction) {
  const float probs[2] = {0.0f, 1.0f};
  EXPECT_NEAR(CrossEntropy(probs, 2, 1), 0.0f, 1e-5f);
  EXPECT_GT(CrossEntropy(probs, 2, 0), 10.0f);  // clamped, not inf
}

// Matrix storage starts on a 64-byte cache line however the matrix came to
// be, so the GEMM's loads see one alignment phase in every run.
TEST(TensorTest, StorageIsCacheLineAligned) {
  const auto aligned = [](const Matrix& m) {
    return reinterpret_cast<std::uintptr_t>(m.data()) % 64 == 0;
  };
  // Small vectors interleaved with the matrices vary the heap's state, so a
  // 16-byte-aligned allocation would land at different 64-byte phases.
  std::vector<std::vector<float>> heap_noise;
  for (size_t n = 1; n <= 9; ++n) {
    heap_noise.emplace_back(n);
    Matrix m(n, 3 * n + 1, 1.0f);
    EXPECT_TRUE(aligned(m)) << "constructed " << n;
    m.Resize(n + 2, 5);
    EXPECT_TRUE(aligned(m)) << "Resize " << n;
    m.EnsureShape(4 * n, 7);
    EXPECT_TRUE(aligned(m)) << "EnsureShape " << n;
    Matrix copy(m);
    EXPECT_TRUE(aligned(copy)) << "copy-constructed " << n;
    Matrix copy_assigned;
    copy_assigned = m;
    EXPECT_TRUE(aligned(copy_assigned)) << "copy-assigned " << n;
    Matrix moved(std::move(copy));
    EXPECT_TRUE(aligned(moved)) << "move-constructed " << n;
    Matrix move_assigned;
    move_assigned = std::move(moved);
    EXPECT_TRUE(aligned(move_assigned)) << "move-assigned " << n;
  }
}

// ---- Instruction-set variants of Gemm and the LSTM step ---------------------

TEST(IsaTest, ReportsTheDispatchedVariant) {
  const internal::Isa isa = internal::HostIsa();
  // Shows in a CI log which variant the goldens ran through.
  std::printf("[ INFO     ] Gemm and Lstm::StepRows dispatch the %s variant\n",
              internal::IsaName(isa));
  RecordProperty("dispatched_isa", internal::IsaName(isa));
  EXPECT_TRUE(internal::IsaAvailable(internal::Isa::kBaseline));
  EXPECT_TRUE(internal::IsaAvailable(isa));
}

/// Each wide variant against the baseline. A variant this build did not
/// compile, or this host cannot run, is skipped by name.
class IsaVariantTest : public ::testing::TestWithParam<internal::Isa> {
 protected:
  void SetUp() override {
    if (!internal::IsaAvailable(GetParam())) {
      GTEST_SKIP() << "the " << internal::IsaName(GetParam())
                   << " variant is not available here (this host runs "
                   << internal::IsaName(internal::HostIsa()) << ")";
    }
  }
};

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// `v` with every NaN replaced by one quiet NaN. When both operands of an
/// add or multiply are NaN, x86 returns the first one, and which operand a
/// compiler puts first is a register-allocation choice (IEEE 754 leaves the
/// result's payload and sign open), so only NaN-ness is comparable there.
std::vector<float> CanonicalNaN(std::vector<float> v) {
  for (float& x : v) {
    if (std::isnan(x)) x = std::numeric_limits<float>::quiet_NaN();
  }
  return v;
}

std::vector<float> RandomFloats(size_t n, Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng->Uniform(-1.0, 1.0));
  return v;
}

TEST_P(IsaVariantTest, GemmMatchesTheBaselineBitForBit) {
  Rng rng(41);
  for (const size_t m : {1, 3, 12, 128}) {
    for (const size_t k : {1, 7, 32, 96}) {
      for (const size_t n : {1, 2, 3, 4, 5, 7, 8, 16, 63, 64, 127, 128, 200}) {
        for (const bool strided : {false, true}) {
          const size_t lda = k + (strided ? 3 : 0);
          const size_t ldb = n + (strided ? 5 : 0);
          const size_t ldc = n + (strided ? 2 : 0);
          const auto a = RandomFloats(m * lda, &rng);
          const auto b = RandomFloats(k * ldb, &rng);
          const auto c0 = RandomFloats(m * ldc, &rng);
          for (const bool accumulate : {false, true}) {
            auto want = c0;
            auto got = c0;
            internal::GemmOn(internal::Isa::kBaseline, a.data(), m, k, lda,
                             b.data(), n, ldb, want.data(), ldc, accumulate);
            internal::GemmOn(GetParam(), a.data(), m, k, lda, b.data(), n, ldb,
                             got.data(), ldc, accumulate);
            ASSERT_TRUE(SameBits(got, want))
                << "m " << m << " k " << k << " n " << n << " strided "
                << strided << " accumulate " << accumulate;
          }
        }
      }
    }
  }
}

TEST_P(IsaVariantTest, LstmStepMatchesTheBaselineBitForBit) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float big = 1e30f;
  const float tiny = 1e-40f;  // denormal
  const float special[] = {0.f, -0.f, inf, -inf, nan, big, -big, tiny, -tiny};
  const size_t num_special = std::size(special);
  Rng rng(43);
  for (const size_t I : {8, 32}) {
    for (const size_t H : {8, 32}) {
      for (const size_t B : {1, 3, 12, 128}) {
        Lstm lstm("v", I, H, &rng);
        // Every third stream carries special values: in its input, and in
        // its hidden and cell state, at a position that moves per stream.
        // The other streams stay finite and must match in every bit.
        auto x = RandomFloats(B * I, &rng);
        auto h = RandomFloats(B * H, &rng);
        auto c = RandomFloats(B * H, &rng);
        for (size_t s = 0; s < B; s += 3) {
          for (size_t j = 0; j < I; j += 3) {
            x[s * I + j] = special[(s + j) % num_special];
          }
          c[s * H + s % H] = special[s % num_special];
          if (s % 2 == 0) {
            h[s * H + (s + 1) % H] = special[(s + 5) % num_special];
          }
        }
        auto want_h = h, want_c = c, got_h = h, got_c = c;
        for (int step = 0; step < 3; ++step) {
          lstm.StepRowsOn(internal::Isa::kBaseline, B, x.data(), want_h.data(),
                          want_c.data());
          lstm.StepRowsOn(GetParam(), B, x.data(), got_h.data(), got_c.data());
          ASSERT_TRUE(SameBits(CanonicalNaN(got_h), CanonicalNaN(want_h)) &&
                      SameBits(CanonicalNaN(got_c), CanonicalNaN(want_c)))
              << "I " << I << " H " << H << " B " << B << " step " << step;
        }
      }
    }
  }
}

TEST_P(IsaVariantTest, SgnsPairUpdateMatchesTheBaselineBitForBit) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float tiny = 1e-40f;  // denormal
  const float special[] = {0.f, -0.f, inf, -inf, nan, tiny, -tiny};
  const size_t num_special = std::size(special);
  Rng rng(47);
  for (const size_t dim : {1, 7, 8, 16, 32, 33}) {
    for (size_t count = 1; count <= 13; ++count) {
      for (const bool distinct : {true, false}) {
        for (const bool with_special : {false, true}) {
          // One center row and count target rows; the sequential path also
          // gets a repeated row, as a repeated negative gives it.
          auto center = RandomFloats(dim, &rng);
          auto table = RandomFloats(count * dim, &rng);
          if (with_special) {
            center[count % dim] = special[count % num_special];
            for (size_t t = 0; t < count; t += 2) {
              table[t * dim + (t + count) % dim] =
                  special[(t + count + 3) % num_special];
            }
          }
          // Small values keep the finite cases away from saturation, so the
          // sigmoid's every bit is exercised.
          for (float& x : table) x *= 0.25f;
          auto want_center = center, got_center = center;
          auto want_table = table, got_table = table;
          std::vector<float*> want_rows(count), got_rows(count);
          const bool repeat = !distinct && count >= 3;
          for (size_t t = 0; t < count; ++t) {
            const size_t row = repeat && t == count - 1 ? 1 : t;
            want_rows[t] = want_table.data() + row * dim;
            got_rows[t] = got_table.data() + row * dim;
          }
          std::vector<float> scratch(SgnsScratchFloats(dim, count));
          internal::SgnsPairUpdateOn(internal::Isa::kBaseline,
                                     want_center.data(), want_rows.data(),
                                     count, distinct, 0.025f, dim,
                                     scratch.data());
          internal::SgnsPairUpdateOn(GetParam(), got_center.data(),
                                     got_rows.data(), count, distinct, 0.025f,
                                     dim, scratch.data());
          ASSERT_TRUE(
              SameBits(CanonicalNaN(got_center), CanonicalNaN(want_center)) &&
              SameBits(CanonicalNaN(got_table), CanonicalNaN(want_table)))
              << "dim " << dim << " count " << count << " distinct "
              << distinct << " special " << with_special;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, IsaVariantTest,
    ::testing::Values(internal::Isa::kAvx2, internal::Isa::kAvx512f),
    [](const ::testing::TestParamInfo<internal::Isa>& info) {
      return std::string(internal::IsaName(info.param));
    });

TEST(ParamTest, XavierInitWithinLimit) {
  Rng rng(3);
  Parameter p("w", 10, 20);
  p.XavierInit(&rng);
  const float limit = std::sqrt(6.0f / 30.0f);
  for (size_t i = 0; i < p.value.size(); ++i) {
    EXPECT_LE(std::abs(p.value.data()[i]), limit);
  }
}

TEST(ParamTest, ClipGradNorm) {
  Parameter p("w", 1, 4);
  for (size_t i = 0; i < 4; ++i) p.grad.data()[i] = 10.0f;
  ParameterRegistry reg;
  reg.Register(&p);
  const float pre = reg.ClipGradNorm(1.0f);
  EXPECT_NEAR(pre, 20.0f, 1e-4f);
  float norm = 0.0f;
  for (size_t i = 0; i < 4; ++i) norm += p.grad.data()[i] * p.grad.data()[i];
  EXPECT_NEAR(std::sqrt(norm), 1.0f, 1e-5f);
}

// ---- Finite-difference gradient check helpers.

constexpr float kFdEps = 1e-2f;
constexpr float kFdTol = 2e-2f;  // relative tolerance for float32 FD

// Loss used in the checks: L = sum_i target_i * out_i (linear in outputs, so
// d_out = target).
TEST(LinearGradientCheck, WeightsAndInput) {
  Rng rng(5);
  Linear lin("l", 4, 3, &rng);
  float x[4], d_out[3];
  for (auto& v : x) v = static_cast<float>(rng.Uniform(-1, 1));
  for (auto& v : d_out) v = static_cast<float>(rng.Uniform(-1, 1));

  auto loss = [&]() {
    float out[3];
    lin.Forward(x, out);
    return Dot(out, d_out, 3);
  };

  // Analytic gradients.
  lin.weight()->ZeroGrad();
  lin.bias()->ZeroGrad();
  float d_x[4] = {0, 0, 0, 0};
  lin.Backward(x, d_out, d_x);

  // FD on a few weight entries.
  for (size_t k : {size_t{0}, size_t{5}, size_t{11}}) {
    float* w = lin.weight()->value.data();
    const float orig = w[k];
    w[k] = orig + kFdEps;
    const float up = loss();
    w[k] = orig - kFdEps;
    const float down = loss();
    w[k] = orig;
    const float fd = (up - down) / (2 * kFdEps);
    EXPECT_NEAR(lin.weight()->grad.data()[k], fd,
                kFdTol * std::max(1.0f, std::abs(fd)));
  }
  // FD on input.
  for (int k = 0; k < 4; ++k) {
    const float orig = x[k];
    x[k] = orig + kFdEps;
    const float up = loss();
    x[k] = orig - kFdEps;
    const float down = loss();
    x[k] = orig;
    const float fd = (up - down) / (2 * kFdEps);
    EXPECT_NEAR(d_x[k], fd, kFdTol * std::max(1.0f, std::abs(fd)));
  }
}

TEST(LstmGradientCheck, ParametersAndInputs) {
  Rng rng(9);
  const size_t I = 3, H = 4, T = 5;
  Lstm lstm("g", I, H, &rng);

  std::vector<Vec> xs(T, Vec(I));
  for (auto& x : xs) {
    for (auto& v : x) v = static_cast<float>(rng.Uniform(-1, 1));
  }
  Matrix d_h(T, H);
  for (size_t i = 0; i < d_h.size(); ++i) {
    d_h.data()[i] = static_cast<float>(rng.Uniform(-1, 1));
  }

  auto loss = [&]() {
    std::vector<const float*> inputs;
    for (auto& x : xs) inputs.push_back(x.data());
    auto caches = lstm.Forward(inputs);
    float total = 0.0f;
    for (size_t t = 0; t < T; ++t) {
      total += Dot(caches[t].h.data(), d_h.Row(t), H);
    }
    return total;
  };

  ParameterRegistry reg;
  lstm.RegisterParams(&reg);
  reg.ZeroGrad();
  std::vector<const float*> inputs;
  for (auto& x : xs) inputs.push_back(x.data());
  auto caches = lstm.Forward(inputs);
  Matrix d_x;
  lstm.BackwardSeq(caches, d_h, &d_x);

  // Spot-check several parameter coordinates across all three tensors.
  for (Parameter* p : reg.params()) {
    for (size_t k = 0; k < p->value.size(); k += p->value.size() / 5 + 1) {
      float* w = p->value.data();
      const float orig = w[k];
      w[k] = orig + kFdEps;
      const float up = loss();
      w[k] = orig - kFdEps;
      const float down = loss();
      w[k] = orig;
      const float fd = (up - down) / (2 * kFdEps);
      EXPECT_NEAR(p->grad.data()[k], fd,
                  kFdTol * std::max(1.0f, std::abs(fd)))
          << p->name << "[" << k << "]";
    }
  }
  // And the input gradient at t = 1.
  for (size_t k = 0; k < I; ++k) {
    const float orig = xs[1][k];
    xs[1][k] = orig + kFdEps;
    const float up = loss();
    xs[1][k] = orig - kFdEps;
    const float down = loss();
    xs[1][k] = orig;
    const float fd = (up - down) / (2 * kFdEps);
    EXPECT_NEAR(d_x(1, k), fd, kFdTol * std::max(1.0f, std::abs(fd)));
  }
}

TEST(LstmTest, StreamingMatchesSequenceForward) {
  Rng rng(21);
  const size_t I = 4, H = 6, T = 7;
  Lstm lstm("s", I, H, &rng);
  std::vector<Vec> xs(T, Vec(I));
  for (auto& x : xs) {
    for (auto& v : x) v = static_cast<float>(rng.Uniform(-1, 1));
  }
  std::vector<const float*> inputs;
  for (auto& x : xs) inputs.push_back(x.data());
  auto caches = lstm.Forward(inputs);

  LstmState state(H);
  for (size_t t = 0; t < T; ++t) {
    lstm.StepForward(xs[t].data(), &state);
    for (size_t i = 0; i < H; ++i) {
      EXPECT_EQ(state.h[i], caches[t].h[i]) << "t=" << t;  // bit-identical
    }
  }
}

TEST(LstmTest, ForgetBiasInitializedToOne) {
  Rng rng(1);
  Lstm lstm("b", 2, 3, &rng);
  // Indirect check: zero input and zero hidden should still partially retain
  // cell state thanks to the positive forget bias. Feed a nonzero then zero.
  LstmState state(3);
  const float x1[2] = {1.0f, -1.0f};
  const float x0[2] = {0.0f, 0.0f};
  lstm.StepForward(x1, &state);
  Vec c_after_first = state.c;
  lstm.StepForward(x0, &state);
  // With forget bias 1, sigmoid(1) ~ 0.73 of the cell is retained.
  for (size_t i = 0; i < 3; ++i) {
    if (std::abs(c_after_first[i]) > 1e-3f) {
      EXPECT_GT(std::abs(state.c[i]), 0.3f * std::abs(c_after_first[i]));
    }
  }
}

TEST(EmbeddingTest, LookupAndGrad) {
  Rng rng(2);
  Embedding emb("e", 10, 4, &rng);
  EXPECT_EQ(emb.vocab(), 10u);
  EXPECT_EQ(emb.dim(), 4u);
  const float g[4] = {1, 2, 3, 4};
  emb.AccumulateGrad(3, g);
  emb.AccumulateGrad(3, g);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(emb.param()->grad(3, i), 2.0f * g[i]);
    EXPECT_FLOAT_EQ(emb.param()->grad(0, i), 0.0f);
  }
}

TEST(EmbeddingTest, SetRowOverwrites) {
  Rng rng(2);
  Embedding emb("e", 4, 3, &rng);
  const float v[3] = {9, 8, 7};
  emb.SetRow(2, v);
  EXPECT_FLOAT_EQ(emb.Lookup(2)[0], 9.0f);
  EXPECT_FLOAT_EQ(emb.Lookup(2)[2], 7.0f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize f(w) = 0.5 * ||w - target||^2.
  Parameter w("w", 1, 8);
  Rng rng(4);
  w.UniformInit(&rng, 1.0f);
  float target[8];
  for (auto& t : target) t = static_cast<float>(rng.Uniform(-2, 2));
  ParameterRegistry reg;
  reg.Register(&w);
  AdamConfig cfg;
  cfg.lr = 0.05f;
  AdamOptimizer opt(&reg, cfg);
  for (int step = 0; step < 500; ++step) {
    reg.ZeroGrad();
    for (size_t i = 0; i < 8; ++i) {
      w.grad.data()[i] = w.value.data()[i] - target[i];
    }
    opt.Step();
  }
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(w.value.data()[i], target[i], 1e-2f);
  }
}

TEST(AdamTest, LearningRateMutable) {
  Parameter w("w", 1, 1);
  ParameterRegistry reg;
  reg.Register(&w);
  AdamOptimizer opt(&reg, {});
  opt.set_lr(0.5f);
  EXPECT_FLOAT_EQ(opt.lr(), 0.5f);
}

}  // namespace
}  // namespace rl4oasd::nn
