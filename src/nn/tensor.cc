#include "nn/tensor.h"

#include <algorithm>
#include <cmath>

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

// The row-tile helpers are always_inline so each ISA-specific Gemm body
// below compiles them with its own vector width.
#if defined(__GNUC__)
#define RL4_ALWAYS_INLINE __attribute__((always_inline)) inline
#else
#define RL4_ALWAYS_INLINE inline
#endif

/// One C tile of TILE consecutive columns for row i, accumulated in
/// registers across the whole k extent: per element this is the plain
/// ascending-k sum starting from zero — exactly the scalar dot-product
/// chain — written (or added) to C once at the end. Constant trip count on
/// the inner loop keeps the accumulators in vector registers.
template <size_t TILE>
RL4_ALWAYS_INLINE void GemmRowTile(const float* ai, size_t k, const float* b,
                                   size_t ldb, float* ci, bool accumulate) {
  float acc[TILE] = {};
  for (size_t kx = 0; kx < k; ++kx) {
    const float aik = ai[kx];
    const float* bk = b + kx * ldb;
    for (size_t t = 0; t < TILE; ++t) acc[t] += aik * bk[t];
  }
  if (accumulate) {
    for (size_t t = 0; t < TILE; ++t) ci[t] += acc[t];
  } else {
    for (size_t t = 0; t < TILE; ++t) ci[t] = acc[t];
  }
}

/// Variable-width tail tile (j extents not divisible by the register tile).
RL4_ALWAYS_INLINE void GemmRowTail(const float* ai, size_t k, const float* b,
                                   size_t ldb, size_t width, float* ci,
                                   bool accumulate) {
  float acc[7] = {};  // width < 8 by construction
  for (size_t kx = 0; kx < k; ++kx) {
    const float aik = ai[kx];
    const float* bk = b + kx * ldb;
    for (size_t t = 0; t < width; ++t) acc[t] += aik * bk[t];
  }
  if (accumulate) {
    for (size_t t = 0; t < width; ++t) ci[t] += acc[t];
  } else {
    for (size_t t = 0; t < width; ++t) ci[t] = acc[t];
  }
}

/// The GEMM loop nest, always_inline so each ISA-specific wrapper below
/// compiles it (and the tile helpers) at its own vector width. Column
/// tiles accumulate in registers over the full k extent, so each C element
/// is the plain ascending-k product chain (the scalar dot-product order);
/// with `accumulate` the finished chain is added to C in one step. The
/// batch (j) dimension is the contiguous, auto-vectorized axis.
RL4_ALWAYS_INLINE void GemmLoop(const float* a, size_t m, size_t k,
                                size_t lda, const float* b, size_t n,
                                size_t ldb, float* c, size_t ldc,
                                bool accumulate) {
  for (size_t j0 = 0; j0 < n;) {
    const size_t left = n - j0;
    const size_t tile = left >= 64 ? 64 : left >= 16 ? 16 : left >= 8 ? 8 : left;
    for (size_t i = 0; i < m; ++i) {
      const float* ai = a + i * lda;
      float* ci = c + i * ldc + j0;
      const float* bj = b + j0;
      switch (tile) {
        case 64:
          GemmRowTile<64>(ai, k, bj, ldb, ci, accumulate);
          break;
        case 16:
          GemmRowTile<16>(ai, k, bj, ldb, ci, accumulate);
          break;
        case 8:
          GemmRowTile<8>(ai, k, bj, ldb, ci, accumulate);
          break;
        default:
          GemmRowTail(ai, k, bj, ldb, tile, ci, accumulate);
          break;
      }
    }
    j0 += tile;
  }
}

// AVX2 variant — AVX2 *without* FMA, so both variants execute the
// identical multiply-then-add sequence (no contraction) and results stay
// bit-identical across machines; only the register width differs.
// Dispatch is a plain runtime branch on cpuid rather than target_clones:
// the ifunc resolver target_clones emits runs before sanitizer runtimes
// initialize and crashes under TSAN.
#if defined(__GNUC__) && defined(__x86_64__) && !defined(__clang__)
#define RL4_GEMM_AVX2 1
__attribute__((target("avx2"))) void GemmAvx2(const float* a, size_t m,
                                              size_t k, size_t lda,
                                              const float* b, size_t n,
                                              size_t ldb, float* c,
                                              size_t ldc, bool accumulate) {
  GemmLoop(a, m, k, lda, b, n, ldb, c, ldc, accumulate);
}
#endif

}  // namespace

void Gemm(const float* a, size_t m, size_t k, size_t lda, const float* b,
          size_t n, size_t ldb, float* c, size_t ldc, bool accumulate) {
#ifdef RL4_GEMM_AVX2
  static const bool use_avx2 = __builtin_cpu_supports("avx2") != 0;
  if (use_avx2) {
    GemmAvx2(a, m, k, lda, b, n, ldb, c, ldc, accumulate);
    return;
  }
#endif
  GemmLoop(a, m, k, lda, b, n, ldb, c, ldc, accumulate);
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
