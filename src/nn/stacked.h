// Stacked recurrent network: N single-layer cores (LSTM or GRU) where layer
// k consumes layer k-1's hidden sequence. Implements the same RecurrentNet
// interface, so RSRNet can trade depth for capacity (`rsr.num_layers`)
// without any other change. Streaming state packs all layers' vectors into
// one RnnState (h and c are L*H long); hidden_dim() reports the top layer's
// width, which is what downstream consumers see.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/rnn.h"

namespace rl4oasd::nn {

class StackedRnn : public RecurrentNet {
 public:
  /// `layers` >= 1 cores of `kind`; the first maps input_dim -> hidden_dim,
  /// the rest hidden_dim -> hidden_dim.
  StackedRnn(RnnKind kind, const std::string& name, size_t input_dim,
             size_t hidden_dim, size_t layers, rl4oasd::Rng* rng);

  size_t input_dim() const override { return input_dim_; }
  size_t hidden_dim() const override { return hidden_dim_; }
  size_t num_layers() const { return cores_.size(); }

  /// Total streaming-state length (layers * hidden per vector).
  size_t state_size() const override { return cores_.size() * hidden_dim_; }

  /// Steps each layer in place on its slice of the state rows: layer l's
  /// state is columns [l*H, (l+1)*H) of every row, and its fresh hidden
  /// slice is the next layer's input, so the top layer's output is the
  /// last H columns.
  void StepRows(size_t batch, const float* x, size_t ldx, float* h, float* c,
                size_t ld) const override;

  std::unique_ptr<SeqCache> Forward(
      const std::vector<const float*>& inputs) const override;

  void Backward(const SeqCache& cache, const std::vector<Vec>& d_h,
                std::vector<Vec>* d_x) override;

  /// GEMM-backed BPTT top-down through the stack: layer l's input
  /// gradients become layer l-1's hidden gradients, as (T x H) matrices
  /// with no per-step vectors in between.
  void BackwardSeq(const SeqCache& cache, const Matrix& d_h, Matrix* d_x,
                   GradientSink* sink = nullptr) override;

  void RegisterParams(ParameterRegistry* registry) override;

  /// Repacks every layer's core.
  void Repack() override;

 private:
  class Cache;

  size_t input_dim_;
  size_t hidden_dim_;
  std::vector<std::unique_ptr<RecurrentNet>> cores_;
};

}  // namespace rl4oasd::nn
