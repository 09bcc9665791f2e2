// Recurrent-core abstraction over Lstm and Gru so RSRNet can swap its
// sequence encoder (architecture ablation). The interface mirrors the two
// concrete classes: one streaming step body over B sample-major state rows
// (a single RnnState is B = 1), a sequence forward that returns an opaque
// BPTT cache, and a Backward over that cache.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/param.h"

namespace rl4oasd::nn {

/// Which recurrent core to build.
enum class RnnKind {
  kLstm = 0,  // paper setting
  kGru = 1,   // ablation alternative
};

const char* RnnKindName(RnnKind kind);

/// Streaming state: hidden vector plus (LSTM only) cell vector.
struct RnnState {
  Vec h;
  Vec c;  // unused by GRU

  explicit RnnState(size_t hidden = 0) : h(hidden, 0.0f), c(hidden, 0.0f) {}
  void Reset() {
    std::fill(h.begin(), h.end(), 0.0f);
    std::fill(c.begin(), c.end(), 0.0f);
  }
};

/// Streaming state of B independent streams stacked sample-major: row b of
/// the (B x state_size) matrices is stream b's RnnState vectors. Built by
/// gathering per-stream states, advanced by StepForwardBatch, scattered back.
struct RnnBatchState {
  Matrix h;
  Matrix c;  // unused by GRU

  RnnBatchState() = default;
  RnnBatchState(size_t state_size, size_t batch)
      : h(batch, state_size), c(batch, state_size) {}

  size_t batch() const { return h.rows(); }

  /// Copies states[b] (each of length state_size) into row b.
  void Gather(std::span<const RnnState* const> states, size_t state_size);
  /// Copies row b back into states[b].
  void Scatter(std::span<RnnState* const> states) const;
};

/// Abstract single-layer recurrent network.
class RecurrentNet {
 public:
  /// Opaque per-sequence BPTT cache; consumers only read hidden outputs.
  class SeqCache {
   public:
    virtual ~SeqCache() = default;
    virtual size_t size() const = 0;
    virtual const Vec& h(size_t t) const = 0;
  };

  virtual ~RecurrentNet() = default;

  virtual size_t input_dim() const = 0;
  virtual size_t hidden_dim() const = 0;

  /// Length of the streaming-state vectors this core needs (multi-layer
  /// cores pack one slice per layer; the top layer's slice is last).
  virtual size_t state_size() const { return hidden_dim(); }

  /// The streaming step body, over B independent streams stored
  /// sample-major: row b of `x` (row stride ldx, input_dim wide) is stream
  /// b's input and row b of `h`/`c` (row stride ld, state_size wide) its
  /// state, updated in place. Every row is bit-identical to stepping that
  /// stream alone. Inference only.
  virtual void StepRows(size_t batch, const float* x, size_t ldx, float* h,
                        float* c, size_t ld) const = 0;

  /// Streaming step: consumes x (length input_dim), updates `state`, whose
  /// vectors must be state_size long. The B = 1 call of StepRows.
  void StepForward(const float* x, RnnState* state) const {
    StepRows(1, x, input_dim(), state->h.data(), state->c.data(),
             state->h.size());
  }

  /// Batched streaming step: x is (B x input_dim) with stream b in row b,
  /// and `state` carries (B x state_size) matrices.
  void StepForwardBatch(const Matrix& x, RnnBatchState* state) const;

  /// Sequence forward from the zero state, retaining caches for Backward.
  virtual std::unique_ptr<SeqCache> Forward(
      const std::vector<const float*>& inputs) const = 0;

  /// Per-step reference BPTT over a cache previously returned by this
  /// object's Forward. Production training uses BackwardSeq; this stays as
  /// the audited per-step reference the GEMM path is tested against.
  virtual void Backward(const SeqCache& cache, const std::vector<Vec>& d_h,
                        std::vector<Vec>* d_x) = 0;

  /// GEMM-backed BPTT: `d_h` is (T x hidden) with row t the gradient into
  /// step t's hidden output; `d_x` (optional) is resized to
  /// (T x input_dim). Bit-identical to Backward when the gradient buffers
  /// start zeroed. `sink` (optional) redirects every parameter gradient
  /// into worker-local buffers, making concurrent calls safe (weights are
  /// only read).
  virtual void BackwardSeq(const SeqCache& cache, const Matrix& d_h,
                           Matrix* d_x, GradientSink* sink = nullptr) = 0;

  virtual void RegisterParams(ParameterRegistry* registry) = 0;

  /// Rebuilds whatever inference copy of the weights the streaming steps
  /// read (the LSTM's k-major gate matrices; see Lstm::Repack). Call after
  /// every write to the registered parameters. A no-op for cores whose step
  /// reads the parameters directly.
  virtual void Repack() {}
};

/// Factory. Parameter names are derived from `name` and the kind, so
/// checkpoints reject silently loading one architecture into the other.
std::unique_ptr<RecurrentNet> MakeRecurrentNet(RnnKind kind,
                                               const std::string& name,
                                               size_t input_dim,
                                               size_t hidden_dim,
                                               rl4oasd::Rng* rng);

}  // namespace rl4oasd::nn
