// Trainable embedding table: token id -> dense vector.
#pragma once

#include <span>
#include <string>

#include "nn/param.h"

namespace rl4oasd::nn {

/// Embedding lookup layer. Rows of `table()` are the vectors; gradients are
/// accumulated sparsely into the parameter's grad buffer via AccumulateGrad.
class Embedding {
 public:
  /// Creates a `vocab x dim` table initialized U(-0.5/dim, 0.5/dim).
  Embedding(std::string name, size_t vocab, size_t dim, rl4oasd::Rng* rng);

  size_t vocab() const { return param_.value.rows(); }
  size_t dim() const { return param_.value.cols(); }

  /// Pointer to the embedding row for `id` (valid until the table is resized).
  const float* Lookup(size_t id) const {
    RL4_CHECK_LT(id, vocab());
    return param_.value.Row(id);
  }

  /// Batched gather: `out` is resized to (ids.size() x dim) sample-major —
  /// row b holds the embedding of ids[b] — ready to feed the batched
  /// recurrent step as the (B x I) input block.
  void LookupBatch(std::span<const size_t> ids, Matrix* out) const;

  /// Adds `grad` (length dim()) into the gradient row for `id`; `sink`
  /// (optional) redirects it into worker-local buffers with row tracking.
  void AccumulateGrad(size_t id, const float* grad,
                      GradientSink* sink = nullptr) {
    RL4_CHECK_LT(id, vocab());
    float* row;
    if (sink != nullptr) {
      row = sink->Find(&param_)->Row(id);
      sink->TouchRow(&param_, id);
    } else {
      row = param_.grad.Row(id);
      param_.TouchGradRow(id);
    }
    for (size_t i = 0; i < dim(); ++i) row[i] += grad[i];
  }

  /// Sequence accumulation: adds row t of `grads` (ids.size() x dim) into
  /// the gradient row for ids[t], in ascending t — the exact per-step
  /// AccumulateGrad order (the scatter is inherently sparse; there is no
  /// GEMM to route through, only one pass). The sink path resolves the
  /// sink slot once for the whole sequence.
  void AccumulateGradSeq(std::span<const size_t> ids, const Matrix& grads,
                         GradientSink* sink = nullptr) {
    RL4_CHECK_EQ(grads.rows(), ids.size());
    RL4_CHECK_EQ(grads.cols(), dim());
    if (sink != nullptr) {
      sink->AccumulateRows(&param_, ids, grads);
      return;
    }
    const size_t d = dim();
    for (size_t t = 0; t < ids.size(); ++t) {
      const size_t id = ids[t];
      RL4_CHECK_LT(id, vocab());
      float* row = param_.grad.Row(id);
      param_.TouchGradRow(id);
      const float* src = grads.Row(t);
      for (size_t i = 0; i < d; ++i) row[i] += src[i];
    }
  }

  /// Overwrites the row for `id` with an externally pre-trained vector
  /// (used to load Toast-substitute embeddings into RSRNet).
  void SetRow(size_t id, const float* v) {
    float* row = param_.value.Row(id);
    for (size_t i = 0; i < dim(); ++i) row[i] = v[i];
  }

  Parameter* param() { return &param_; }
  const Parameter& param() const { return param_; }

  void RegisterParams(ParameterRegistry* registry) {
    registry->Register(&param_);
  }

 private:
  Parameter param_;
};

}  // namespace rl4oasd::nn
