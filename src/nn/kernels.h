// The GEMM loop nest shared by the per-instruction-set variants of nn::Gemm
// and nn::Lstm::StepRows. Everything here is always_inline, so each variant
// compiles it inside its own `target` function at that function's vector
// width. Internal to the nn layer.
#pragma once

#include <cstddef>

namespace rl4oasd::nn::internal {

#if defined(__GNUC__)
#define RL4_ALWAYS_INLINE __attribute__((always_inline)) inline
#else
#define RL4_ALWAYS_INLINE inline
#endif

// The x86 variants are AVX2 and AVX-512F *without* FMA: every variant runs
// the identical rounded multiply-then-add sequence, so only the register
// width differs and results stay bit-identical across machines. Dispatch is
// a plain branch on cpuid (HostIsa) rather than target_clones: the ifunc
// resolver target_clones emits runs before sanitizer runtimes initialize
// and crashes under TSAN. Clang builds compile the baseline only.
#if defined(__GNUC__) && defined(__x86_64__) && !defined(__clang__)
#define RL4_NN_X86_VARIANTS 1
#endif

// The widest register tile of each variant's GEMM. At AVX-512F, 64 columns
// would be 4 accumulators, too few to hide the add latency of one chain.
inline constexpr size_t kBaselineTile = 64;
inline constexpr size_t kAvx2Tile = 64;
inline constexpr size_t kAvx512fTile = 128;

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

/// The GEMM loop nest (see nn::Gemm for the contract). Column tiles
/// accumulate in registers over the full k extent, so each C element is
/// the plain ascending-k product chain whatever tile covers it; with
/// `accumulate` the finished chain is added to C in one step. The batch (j)
/// dimension is the contiguous, auto-vectorized axis; WIDE is the widest
/// tile, then 64, 16, 8, 4, 2 and 1 cover what is left, so every width runs
/// a register tile.
template <size_t WIDE>
RL4_ALWAYS_INLINE void GemmLoop(const float* a, size_t m, size_t k,
                                size_t lda, const float* b, size_t n,
                                size_t ldb, float* c, size_t ldc,
                                bool accumulate) {
  for (size_t j0 = 0; j0 < n;) {
    const size_t left = n - j0;
    const size_t narrow = left >= 8 ? 8 : left >= 4 ? 4 : left >= 2 ? 2 : 1;
    const size_t tile = left >= WIDE ? WIDE
                        : left >= 64 ? 64
                        : left >= 16 ? 16
                                     : narrow;
    for (size_t i = 0; i < m; ++i) {
      const float* ai = a + i * lda;
      float* ci = c + i * ldc + j0;
      const float* bj = b + j0;
      if (tile == WIDE) {
        GemmRowTile<WIDE>(ai, k, bj, ldb, ci, accumulate);
      } else if (tile == 64) {
        GemmRowTile<64>(ai, k, bj, ldb, ci, accumulate);
      } else if (tile == 16) {
        GemmRowTile<16>(ai, k, bj, ldb, ci, accumulate);
      } else if (tile == 8) {
        GemmRowTile<8>(ai, k, bj, ldb, ci, accumulate);
      } else if (tile == 4) {
        GemmRowTile<4>(ai, k, bj, ldb, ci, accumulate);
      } else if (tile == 2) {
        GemmRowTile<2>(ai, k, bj, ldb, ci, accumulate);
      } else {
        GemmRowTile<1>(ai, k, bj, ldb, ci, accumulate);
      }
    }
    j0 += tile;
  }
}

}  // namespace rl4oasd::nn::internal
