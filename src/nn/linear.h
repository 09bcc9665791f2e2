// Fully connected layer y = W x + b with manual forward/backward.
#pragma once

#include <string>

#include "nn/param.h"

namespace rl4oasd::nn {

/// Affine layer. Forward writes `out` (length out_dim); Backward accumulates
/// weight/bias gradients and optionally the input gradient.
class Linear {
 public:
  Linear(std::string name, size_t in_dim, size_t out_dim, rl4oasd::Rng* rng);

  size_t in_dim() const { return w_.value.cols(); }
  size_t out_dim() const { return w_.value.rows(); }

  /// out = W x + b.
  void Forward(const float* x, float* out) const;

  /// Batched forward: x is (in_dim x B) column-per-sample; out is resized to
  /// (out_dim x B) with column b bit-identical to Forward on x's column b
  /// (see Gemm's equivalence contract).
  void ForwardBatch(const Matrix& x, Matrix* out) const;

  /// Given d(out), accumulates dW += d_out outer x, db += d_out, and (when
  /// `d_x` is non-null) d_x += W^T d_out.
  void Backward(const float* x, const float* d_out, float* d_x);

  /// Sequence backward over T positions: `x_seq` is (T x in_dim) and
  /// `d_out_seq` (T x out_dim), row per position. The per-position outer
  /// products run as one GEMM (ascending positions — bit-identical to
  /// calling Backward per row on zeroed gradients); `d_x_seq` (optional)
  /// is resized to (T x in_dim). `sink` redirects the parameter gradients
  /// (worker-local accumulation; weights are only read).
  void BackwardSeq(const Matrix& x_seq, const Matrix& d_out_seq,
                   Matrix* d_x_seq, GradientSink* sink = nullptr);

  Parameter* weight() { return &w_; }
  Parameter* bias() { return &b_; }

  void RegisterParams(ParameterRegistry* registry) {
    registry->Register(&w_);
    registry->Register(&b_);
  }

 private:
  Parameter w_;  // out_dim x in_dim
  Parameter b_;  // 1 x out_dim
};

}  // namespace rl4oasd::nn
