#include "nn/tensor.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels.h"

namespace rl4oasd::nn {

void MatVec(const Matrix& m, const float* x, float* y) {
  const size_t rows = m.rows();
  const size_t cols = m.cols();
  for (size_t r = 0; r < rows; ++r) {
    const float* row = m.Row(r);
    float acc = 0.0f;
    for (size_t c = 0; c < cols; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

namespace {

using internal::Isa;

#ifdef RL4_NN_X86_VARIANTS
__attribute__((target("avx2"))) void GemmAvx2(const float* a, size_t m,
                                              size_t k, size_t lda,
                                              const float* b, size_t n,
                                              size_t ldb, float* c,
                                              size_t ldc, bool accumulate) {
  internal::GemmLoop<internal::kAvx2Tile>(a, m, k, lda, b, n, ldb, c, ldc,
                                          accumulate);
}

__attribute__((target("avx512f"))) void GemmAvx512f(const float* a, size_t m,
                                                    size_t k, size_t lda,
                                                    const float* b, size_t n,
                                                    size_t ldb, float* c,
                                                    size_t ldc,
                                                    bool accumulate) {
  internal::GemmLoop<internal::kAvx512fTile>(a, m, k, lda, b, n, ldb, c, ldc,
                                             accumulate);
}
#endif

void GemmVariant(Isa isa, const float* a, size_t m, size_t k, size_t lda,
                 const float* b, size_t n, size_t ldb, float* c, size_t ldc,
                 bool accumulate) {
  switch (isa) {
#ifdef RL4_NN_X86_VARIANTS
    case Isa::kAvx512f:
      GemmAvx512f(a, m, k, lda, b, n, ldb, c, ldc, accumulate);
      return;
    case Isa::kAvx2:
      GemmAvx2(a, m, k, lda, b, n, ldb, c, ldc, accumulate);
      return;
#endif
    default:
      internal::GemmLoop<internal::kBaselineTile>(a, m, k, lda, b, n, ldb, c,
                                                  ldc, accumulate);
  }
}

}  // namespace

namespace internal {

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kBaseline:
      return "baseline";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512f:
      return "avx512f";
  }
  return "?";
}

Isa ResolveHostIsa() {
#ifdef RL4_NN_X86_VARIANTS
  // target("avx512f") implies AVX2 code generation, so it needs both.
  const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  if (avx2 && __builtin_cpu_supports("avx512f") != 0) return Isa::kAvx512f;
  if (avx2) return Isa::kAvx2;
#endif
  return Isa::kBaseline;
}

void GemmOn(Isa isa, const float* a, size_t m, size_t k, size_t lda,
            const float* b, size_t n, size_t ldb, float* c, size_t ldc,
            bool accumulate) {
  RL4_CHECK(IsaAvailable(isa)) << IsaName(isa);
  GemmVariant(isa, a, m, k, lda, b, n, ldb, c, ldc, accumulate);
}

}  // namespace internal

void Gemm(const float* a, size_t m, size_t k, size_t lda, const float* b,
          size_t n, size_t ldb, float* c, size_t ldc, bool accumulate) {
  GemmVariant(internal::HostIsa(), a, m, k, lda, b, n, ldb, c, ldc, accumulate);
}

void MatMul(const Matrix& a, const Matrix& b, Matrix* c) {
  RL4_CHECK_EQ(a.cols(), b.rows());
  c->EnsureShape(a.rows(), b.cols());
  Gemm(a.data(), a.rows(), a.cols(), a.cols(), b.data(), b.cols(), b.cols(),
       c->data(), c->cols(), /*accumulate=*/false);
}

void AddBiasPerRow(Matrix* c, const float* bias) {
  const size_t rows = c->rows();
  const size_t cols = c->cols();
  for (size_t r = 0; r < rows; ++r) {
    float* row = c->Row(r);
    const float b = bias[r];
    for (size_t j = 0; j < cols; ++j) row[j] += b;
  }
}

void SoftmaxColumnsInPlace(Matrix* logits) {
  const size_t rows = logits->rows();
  const size_t cols = logits->cols();
  float* data = logits->data();
  for (size_t j = 0; j < cols; ++j) {
    float mx = data[j];
    for (size_t r = 1; r < rows; ++r) mx = std::max(mx, data[r * cols + j]);
    float sum = 0.0f;
    for (size_t r = 0; r < rows; ++r) {
      float& v = data[r * cols + j];
      v = std::exp(v - mx);
      sum += v;
    }
    for (size_t r = 0; r < rows; ++r) data[r * cols + j] /= sum;
  }
}

void MatTransVecAccum(const Matrix& m, const float* g, float* y) {
  const size_t rows = m.rows();
  const size_t cols = m.cols();
  for (size_t r = 0; r < rows; ++r) {
    const float gr = g[r];
    if (gr == 0.0f) continue;
    const float* row = m.Row(r);
    for (size_t c = 0; c < cols; ++c) y[c] += gr * row[c];
  }
}

void OuterAccum(Matrix* m, const float* g, const float* x) {
  const size_t rows = m->rows();
  const size_t cols = m->cols();
  for (size_t r = 0; r < rows; ++r) {
    const float gr = g[r];
    if (gr == 0.0f) continue;
    float* row = m->Row(r);
    for (size_t c = 0; c < cols; ++c) row[c] += gr * x[c];
  }
}

float Dot(const float* a, const float* b, size_t n) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

float Norm(const float* a, size_t n) { return std::sqrt(Dot(a, a, n)); }

float CosineSimilarity(const float* a, const float* b, size_t n) {
  const float na = Norm(a, n);
  const float nb = Norm(b, n);
  if (na == 0.0f || nb == 0.0f) return 0.0f;
  return Dot(a, b, n) / (na * nb);
}

void SoftmaxInPlace(float* logits, size_t n) {
  float mx = logits[0];
  for (size_t i = 1; i < n; ++i) mx = std::max(mx, logits[i]);
  float sum = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    logits[i] = std::exp(logits[i] - mx);
    sum += logits[i];
  }
  for (size_t i = 0; i < n; ++i) logits[i] /= sum;
}

float CrossEntropy(const float* probs, size_t n, size_t target) {
  RL4_CHECK_LT(target, n);
  const float p = std::max(probs[target], 1e-12f);
  return -std::log(p);
}

}  // namespace rl4oasd::nn
