// The skip-gram negative-sampling (SGNS) pair update of word2vec (Mikolov et
// al., NIPS 2013) as an nn kernel: embed::SkipGramTrainer runs one call per
// (center, context) pair, at the widest instruction-set variant the host
// runs, like nn::Gemm.
#pragma once

#include <cstddef>

#include "nn/tensor.h"

namespace rl4oasd::nn {

/// One SGNS step for a (center, context) pair. `v_in` is the center's input
/// vector; rows[0] is the context's output vector (label 1) and
/// rows[1..count) are the negatives' (label 0), in draw order. For each
/// target t in order: g = (Sigmoid(v_in . rows[t]) - label) * lr, then
/// grad += g * rows[t] and rows[t] -= g * v_in; at the end v_in -= grad.
///
/// Every dot product is nn::Dot's ascending chain. With `distinct` (no row
/// pointer repeats) the updates write rows no dot reads, so all the dots run
/// first, in one pass with one chain per target; otherwise each dot runs
/// just before its own update, so a repeated row sees the update before it.
/// `v_in` must not lie in any row. `scratch` holds SgnsScratchFloats(dim,
/// count) floats.
void SgnsPairUpdate(float* v_in, float* const* rows, size_t count,
                    bool distinct, float lr, size_t dim, float* scratch);

/// Scratch floats SgnsPairUpdate needs: the center's gradient, one value
/// per target, and one row of products per target.
inline size_t SgnsScratchFloats(size_t dim, size_t count) {
  return dim + count + count * dim;
}

namespace internal {

/// SgnsPairUpdate on one available variant: the test seam that compares
/// them (see internal::GemmOn).
void SgnsPairUpdateOn(Isa isa, float* v_in, float* const* rows, size_t count,
                      bool distinct, float lr, size_t dim, float* scratch);

}  // namespace internal
}  // namespace rl4oasd::nn
