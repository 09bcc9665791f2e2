#include "nn/embedding.h"

#include <cstring>

namespace rl4oasd::nn {

Embedding::Embedding(std::string name, size_t vocab, size_t dim,
                     rl4oasd::Rng* rng)
    : param_(std::move(name), vocab, dim) {
  param_.UniformInit(rng, 0.5f / static_cast<float>(dim));
  // Embedding backward touches one row per looked-up id; opting into
  // row-sparse tracking lets ZeroGrad / clipping / the optimizers skip the
  // untouched (all-zero) rest of the table exactly.
  param_.EnableRowSparseGrads();
}

void Embedding::LookupBatch(std::span<const size_t> ids, Matrix* out) const {
  const size_t d = dim();
  out->EnsureShape(ids.size(), d);
  for (size_t b = 0; b < ids.size(); ++b) {
    std::memcpy(out->Row(b), Lookup(ids[b]), d * sizeof(float));
  }
}

}  // namespace rl4oasd::nn
