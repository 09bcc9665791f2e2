// GRU (Cho et al. 2014) with full backpropagation through time, mirroring
// the Lstm class. The paper uses an LSTM in RSRNet; the GRU is provided for
// the architecture-ablation bench (one fewer gate, ~25% fewer recurrent
// weights, same streaming O(H^2) step).
#pragma once

#include <string>
#include <vector>

#include "nn/param.h"

namespace rl4oasd::nn {

/// Recurrent state of a streaming GRU: hidden vector only (no cell state).
struct GruState {
  Vec h;

  explicit GruState(size_t hidden = 0) : h(hidden, 0.0f) {}
  void Reset() { std::fill(h.begin(), h.end(), 0.0f); }
};

/// Recurrent state of a batch of B streaming GRUs: a sample-major (B x H)
/// matrix whose row b is sample b's hidden state.
struct GruBatchState {
  Matrix h;  // B x H

  GruBatchState() = default;
  GruBatchState(size_t hidden, size_t batch) : h(batch, hidden) {}
  void Reset() { h.SetZero(); }
};

/// Per-step cache retained by sequence-mode forward for BPTT.
struct GruStepCache {
  Vec x;      // input at this step
  Vec gates;  // post-activation [z, r, n], length 3H
  Vec q;      // r ⊙ h_prev (input to the candidate's recurrent term)
  Vec h;      // hidden output
};

/// Single-layer GRU:
///   z = σ(Wz x + Uz h⁻ + bz)          (update gate)
///   r = σ(Wr x + Ur h⁻ + br)          (reset gate)
///   n = tanh(Wn x + Un (r ⊙ h⁻) + bn)  (candidate)
///   h = (1 − z) ⊙ n + z ⊙ h⁻
class Gru {
 public:
  Gru(std::string name, size_t input_dim, size_t hidden_dim,
      rl4oasd::Rng* rng);

  size_t input_dim() const { return input_dim_; }
  size_t hidden_dim() const { return hidden_dim_; }

  /// Streaming step (inference only; no caches kept).
  void StepForward(const float* x, GruState* state) const {
    StepRows(1, x, input_dim_, state->h.data(), hidden_dim_);
  }

  /// Batched step over B independent streams: x is (B x input_dim) with
  /// sample b in row b, `state->h` is (B x H), updated in place.
  void StepForwardBatch(const Matrix& x, GruBatchState* state) const;

  /// B streams stored sample-major (row b of `x` / `h`, row strides ldx /
  /// ld), stepped one row at a time through the scalar gate matvecs: the
  /// GRU serves only the architecture ablation, so it has no fused path,
  /// and every row is trivially the single-stream step. Inference only.
  void StepRows(size_t batch, const float* x, size_t ldx, float* h,
                size_t ld) const;

  /// Sequence forward from the zero state. The input projection of all
  /// timesteps runs as one (3H x I) * (I x T) GEMM; bit-identical to
  /// stepping ComputeGates.
  std::vector<GruStepCache> Forward(
      const std::vector<const float*>& inputs) const;

  /// Per-step reference BPTT: `d_h` is the gradient flowing into each
  /// step's hidden output. Parameter gradients accumulate; `d_x`
  /// (optional) receives per-step input gradients. Production training
  /// uses BackwardSeq; this stays as the audited reference it is tested
  /// against.
  void Backward(const std::vector<GruStepCache>& caches,
                const std::vector<Vec>& d_h, std::vector<Vec>* d_x);

  /// GEMM-backed BPTT over (T x H) `d_h` rows; `d_x` (optional) resized to
  /// (T x input_dim). Weight gradients run as GEMMs over reversed-time-
  /// packed matrices (z/r rows pair with h_prev, n rows with q), input
  /// gradients as one forward-order GEMM. Bit-identical to Backward from
  /// zeroed gradient buffers; `sink` redirects parameter gradients for the
  /// concurrent worker path (weights are only read).
  void BackwardSeq(const std::vector<GruStepCache>& caches, const Matrix& d_h,
                   Matrix* d_x, GradientSink* sink = nullptr);

  void RegisterParams(ParameterRegistry* registry) {
    registry->Register(&wx_);
    registry->Register(&wh_);
    registry->Register(&b_);
  }

 private:
  /// Computes post-activation gates [z, r, n] and q for one step.
  void ComputeGates(const float* x, const float* h_prev, float* gates,
                    float* q) const;

  /// The recurrent tail of ComputeGates: `gates` already holds Wx x and
  /// gets + b + recurrent terms and the activations.
  void FinishGates(const float* h_prev, float* gates, float* q) const;

  size_t input_dim_;
  size_t hidden_dim_;
  Parameter wx_;  // 3H x input_dim
  Parameter wh_;  // 3H x hidden_dim (rows [2H,3H) multiply q, not h_prev)
  Parameter b_;   // 1 x 3H
};

}  // namespace rl4oasd::nn
