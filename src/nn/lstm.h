// LSTM (Hochreiter & Schmidhuber) with full backpropagation through time.
// Two usage modes:
//   * Sequence mode (training): Lstm::Forward stores per-step caches so
//     Lstm::BackwardSeq can run BPTT over the whole trajectory.
//   * Streaming mode (online detection): LstmState carries (h, c) across
//     incoming road segments; StepForward advances one segment in O(H^2),
//     and StepRows advances B independent streams at once.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "nn/param.h"
#include "nn/tensor.h"

namespace rl4oasd::nn {

/// Recurrent state of a streaming LSTM: hidden and cell vectors.
struct LstmState {
  Vec h;
  Vec c;

  explicit LstmState(size_t hidden = 0) : h(hidden, 0.0f), c(hidden, 0.0f) {}
  void Reset() {
    std::fill(h.begin(), h.end(), 0.0f);
    std::fill(c.begin(), c.end(), 0.0f);
  }
};

/// Recurrent state of a batch of B streaming LSTMs, sample-major: row b of
/// the (B x H) matrices is stream b's state, so the gate pre-activations of
/// the whole batch are two GEMMs. Built by gathering per-stream states,
/// advanced by StepForwardBatch, scattered back.
struct LstmBatchState {
  Matrix h;  // B x H
  Matrix c;  // B x H

  LstmBatchState() = default;
  LstmBatchState(size_t hidden, size_t batch)
      : h(batch, hidden), c(batch, hidden) {}

  size_t batch() const { return h.rows(); }

  /// Copies states[b] (each `hidden` long) into row b.
  void Gather(std::span<const LstmState* const> states, size_t hidden);
  /// Copies row b back into states[b].
  void Scatter(std::span<LstmState* const> states) const;
};

/// Per-step cache retained by sequence-mode forward for BPTT.
struct LstmStepCache {
  Vec x;        // input at this step
  Vec gates;    // post-activation [i, f, g, o], length 4H
  Vec c_prev;   // cell state entering the step
  Vec c;        // cell state leaving the step
  Vec tanh_c;   // tanh(c)
  Vec h;        // hidden output
};

/// Single-layer LSTM.
class Lstm {
 public:
  Lstm(std::string name, size_t input_dim, size_t hidden_dim,
       rl4oasd::Rng* rng);

  size_t input_dim() const { return input_dim_; }
  size_t hidden_dim() const { return hidden_dim_; }

  /// Streaming step: consumes x (length input_dim), updates `state` in
  /// place. The B = 1 call of StepRows; no caches are kept (inference only).
  void StepForward(const float* x, LstmState* state) const {
    StepRows(1, x, state->h.data(), state->c.data());
  }

  /// Batched step over B independent streams: x is (B x input_dim) with
  /// sample b in row b, and `state` carries (B x H) hidden/cell matrices
  /// updated in place.
  void StepForwardBatch(const Matrix& x, LstmBatchState* state) const;

  /// The one streaming step body, over B streams stored sample-major: row b
  /// of `x` (B x input_dim) is stream b's input and row b of `h`/`c`
  /// (B x H) its state, updated in place (`x` must not overlap them).
  /// The gates are `Gemm(X: B x I, Wx^T)` → `+ b` →
  /// `Gemm(H: B x H, Wh^T, accumulate)` → activations over the k-major
  /// weight copy (see Repack), so they vectorize across the 4H gate outputs
  /// at every batch width. Every gate is the ascending-k product chain of
  /// the sequence Forward, combined as (Wx x + b) + Wh h, so each row is
  /// bit-identical to stepping that stream alone. Inference only.
  /// The body — both GEMMs, the bias add, the activations and the cell
  /// update — is compiled once per instruction-set variant and runs the
  /// host's (internal::HostIsa); every variant is bit-identical.
  void StepRows(size_t batch, const float* x, float* h, float* c) const {
    StepRowsOn(internal::HostIsa(), batch, x, h, c);
  }

  /// StepRows on one available variant: the test seam that compares them.
  void StepRowsOn(internal::Isa isa, size_t batch, const float* x, float* h,
                  float* c) const;

  /// Rebuilds the k-major copies StepRows reads (Wx^T: I x 4H,
  /// Wh^T: H x 4H) from the parameters. Runs at construction; call it again
  /// after every write to the registered parameters (an optimizer step, a
  /// checkpoint load), or the streaming steps keep the old weights. The
  /// training paths (Forward, BackwardSeq) read the parameters directly
  /// and never need it.
  void Repack();

  /// Sequence forward from the zero state. Returns per-step caches (the
  /// hidden output of step t is caches[t].h). The input projection of all
  /// timesteps runs as one (4H x I) * (I x T) GEMM; the recurrent part is
  /// inherently sequential, one 1-row GEMM per step against a k-major copy
  /// of Wh taken from the parameters at the start of the call (never
  /// Repack's). Bit-identical to stepping StepForward.
  std::vector<LstmStepCache> Forward(
      const std::vector<const float*>& inputs) const;

  /// BPTT over Forward's caches. `d_h` is (T x H), row t the gradient into
  /// step t's hidden output; parameter gradients are accumulated, and `d_x`
  /// (optional) is resized to (T x input_dim) for the input gradients. The
  /// gate-gradient recursion runs step by step; the weight gradients are
  /// two GEMMs over reversed-time packed matrices (each element accumulates
  /// in descending t) and the input gradients one more. tests/data/
  /// golden_lstm_gradients.txt pins the result from zeroed buffers. `sink`
  /// (optional) redirects every parameter gradient into worker-local
  /// buffers, which makes concurrent calls on one Lstm safe (weights are
  /// only read).
  void BackwardSeq(const std::vector<LstmStepCache>& caches,
                   const Matrix& d_h, Matrix* d_x,
                   GradientSink* sink = nullptr);

  void RegisterParams(ParameterRegistry* registry) {
    registry->Register(&wx_);
    registry->Register(&wh_);
    registry->Register(&b_);
  }

 private:
  size_t input_dim_;
  size_t hidden_dim_;
  Parameter wx_;  // 4H x input_dim
  Parameter wh_;  // 4H x hidden_dim
  Parameter b_;   // 1 x 4H
  Matrix wx_t_;   // input_dim x 4H, Repack's copy of wx_
  Matrix wh_t_;   // hidden_dim x 4H, Repack's copy of wh_
};

}  // namespace rl4oasd::nn
