#include "nn/sgns.h"

#include "nn/kernels.h"

namespace rl4oasd::nn {

namespace {

using internal::Isa;

/// The most dot-product chains one pass keeps in flight: the context and up
/// to 15 negatives.
constexpr size_t kMaxChains = 16;

/// out[t] = the ascending sum of p[t * dim + d] over d, from zero, for N
/// rows of products at once: N independent chains, each added in the order
/// nn::Dot adds its products, so each result is the float nn::Dot returns;
/// running them side by side only hides the add latency of one serial chain
/// behind the others.
template <size_t N>
RL4_ALWAYS_INLINE void SumChains(const float* p, size_t dim, float* out) {
  float acc[N] = {};
  for (size_t d = 0; d < dim; ++d) {
    for (size_t t = 0; t < N; ++t) acc[t] += p[t * dim + d];
  }
  for (size_t t = 0; t < N; ++t) out[t] = acc[t];
}

/// SumChains<n> for a runtime n in [1, N].
template <size_t N>
RL4_ALWAYS_INLINE void SumChainsUpTo(size_t n, const float* p, size_t dim,
                                     float* out) {
  if constexpr (N > 1) {
    if (n < N) {
      SumChainsUpTo<N - 1>(n, p, dim, out);
      return;
    }
  }
  SumChains<N>(p, dim, out);
}

/// SumChains over `count` rows of products, up to kMaxChains per pass.
/// Without fast-math the only way to vectorize a chain over d is an in-order
/// reduction that extracts every lane with a shuffle before its scalar add,
/// which measured no faster at AVX-512 and slower at SSE2 than scalar
/// chains. So the sums stay scalar, compiled once for every variant; the
/// products before them are vectorized at each variant's width.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-tree-vectorize")))
#endif
__attribute__((noinline)) void AllSums(const float* p, size_t count,
                                       size_t dim, float* out) {
  size_t t = 0;
  for (; count - t > kMaxChains; t += kMaxChains) {
    SumChains<kMaxChains>(p + t * dim, dim, out + t);
  }
  if (t < count) {
    SumChainsUpTo<kMaxChains>(count - t, p + t * dim, dim, out + t);
  }
}

/// The pair update (see SgnsPairUpdate). The row loops run over d, the
/// contiguous axis, and each variant vectorizes them at its own width: every
/// lane runs the same rounded multiply and add, so all widths agree.
RL4_ALWAYS_INLINE void PairBody(float* __restrict v_in, float* const* rows,
                                size_t count, bool distinct, float lr,
                                size_t dim, float* __restrict scratch) {
  float* __restrict grad = scratch;
  float* __restrict g = scratch + dim;
  float* __restrict prod = scratch + dim + count;
  if (distinct) {
    for (size_t t = 0; t < count; ++t) {
      const float* __restrict v_out = rows[t];
      float* __restrict pt = prod + t * dim;
      for (size_t d = 0; d < dim; ++d) pt[d] = v_in[d] * v_out[d];
    }
    AllSums(prod, count, dim, g);
    for (size_t u = 0; u < count; ++u) {
      const float label = u == 0 ? 1.0f : 0.0f;
      g[u] = (Sigmoid(g[u]) - label) * lr;
    }
  }
  for (size_t d = 0; d < dim; ++d) grad[d] = 0.0f;
  for (size_t t = 0; t < count; ++t) {
    float* __restrict v_out = rows[t];
    float gt;
    if (distinct) {
      gt = g[t];
    } else {
      for (size_t d = 0; d < dim; ++d) prod[d] = v_in[d] * v_out[d];
      AllSums(prod, 1, dim, &gt);
      gt = (Sigmoid(gt) - (t == 0 ? 1.0f : 0.0f)) * lr;
    }
    for (size_t d = 0; d < dim; ++d) {
      grad[d] += gt * v_out[d];
      v_out[d] -= gt * v_in[d];
    }
  }
  for (size_t d = 0; d < dim; ++d) v_in[d] -= grad[d];
}

#ifdef RL4_NN_X86_VARIANTS
__attribute__((target("avx2"))) void PairAvx2(float* v_in, float* const* rows,
                                              size_t count, bool distinct,
                                              float lr, size_t dim,
                                              float* scratch) {
  PairBody(v_in, rows, count, distinct, lr, dim, scratch);
}

__attribute__((target("avx512f"))) void PairAvx512f(float* v_in,
                                                    float* const* rows,
                                                    size_t count,
                                                    bool distinct, float lr,
                                                    size_t dim,
                                                    float* scratch) {
  PairBody(v_in, rows, count, distinct, lr, dim, scratch);
}
#endif

void PairVariant(Isa isa, float* v_in, float* const* rows, size_t count,
                 bool distinct, float lr, size_t dim, float* scratch) {
  switch (isa) {
#ifdef RL4_NN_X86_VARIANTS
    case Isa::kAvx512f:
      PairAvx512f(v_in, rows, count, distinct, lr, dim, scratch);
      return;
    case Isa::kAvx2:
      PairAvx2(v_in, rows, count, distinct, lr, dim, scratch);
      return;
#endif
    default:
      PairBody(v_in, rows, count, distinct, lr, dim, scratch);
  }
}

}  // namespace

void SgnsPairUpdate(float* v_in, float* const* rows, size_t count,
                    bool distinct, float lr, size_t dim, float* scratch) {
  PairVariant(internal::HostIsa(), v_in, rows, count, distinct, lr, dim,
              scratch);
}

namespace internal {

void SgnsPairUpdateOn(Isa isa, float* v_in, float* const* rows, size_t count,
                      bool distinct, float lr, size_t dim, float* scratch) {
  RL4_CHECK(IsaAvailable(isa)) << IsaName(isa);
  PairVariant(isa, v_in, rows, count, distinct, lr, dim, scratch);
}

}  // namespace internal
}  // namespace rl4oasd::nn
