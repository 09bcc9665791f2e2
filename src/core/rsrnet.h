// RSRNet (paper Section IV-C): road segment representation network.
// An LSTM consumes pre-trained traffic-context-feature (TCF) embeddings of
// the road segments; its hidden state h_i is concatenated with an embedded
// normal-route feature (NRF) to form the representation z_i = [h_i; x^n_i].
// A softmax head predicts a normal/anomalous label per segment; the network
// is trained with cross-entropy against noisy labels (pre-training) and
// against ASDNet's refined labels (joint training).
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "nn/adam.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "traj/types.h"

namespace rl4oasd::core {

struct RsrNetConfig {
  size_t num_edges = 0;    // road-network vocabulary (required)
  size_t embed_dim = 64;   // TCF embedding size (paper: 128)
  size_t nrf_dim = 64;     // NRF embedding size
  size_t hidden_dim = 64;  // LSTM hidden units (paper: 128)
  float lr = 0.01f;        // paper setting
  float grad_clip = 5.0f;
  // Cross-entropy weight on anomalous-label positions (<= 0 picks a
  // class-balancing weight per sequence, capped at 50). The default is
  // unweighted: RSRNet's features separate the classes cleanly, and an
  // unweighted fit keeps the probabilities calibrated — the global reward
  // divides by this network's loss, and inflated p(anomalous) at borderline
  // positions drags the policy toward over-labeling.
  float positive_weight = 1.0f;
  // Label smoothing for TrainStep targets: the hard target (0,1) becomes
  // (smoothing, 1 - smoothing). Keeps the network from collapsing its
  // cross-entropy to zero — the ASDNet global reward divides by this loss,
  // and an overconfident RSRNet leaves the policy no room to refine
  // boundaries.
  float label_smoothing = 0.05f;
  uint64_t seed = 17;
};

/// Output of a full-sequence forward pass.
struct RsrForward {
  /// z_i = [h_i; nrf_embed_i], one per segment (dim = hidden + nrf_dim).
  std::vector<nn::Vec> z;
  /// Class probabilities per segment: {p(normal), p(anomalous)}.
  std::vector<std::array<float, 2>> probs;
};

/// Streaming state for the online detector: one LSTM state per trajectory.
struct RsrStream {
  nn::LstmState state;
  explicit RsrStream(size_t hidden = 0) : state(hidden) {}
};

/// A forward pass retained for training: the consumer-visible outputs plus
/// the LSTM's BPTT caches. Produced by RsrNet::ForwardCached, consumed (at
/// most once) by RsrNet::TrainStepCached — the joint-training loop computes
/// one forward per episode and reuses it for the rollout, both reward
/// losses, and the weight update.
struct RsrTrainCache {
  RsrForward fwd;
  std::vector<nn::LstmStepCache> lstm_steps;

  /// True from a non-empty ForwardCached until TrainStepCached consumes the
  /// BPTT caches (the weights change on the update, so the forward cannot
  /// be reused afterwards).
  bool valid() const { return !lstm_steps.empty(); }
};

class RsrNet {
 public:
  explicit RsrNet(RsrNetConfig config);

  size_t z_dim() const { return config_.hidden_dim + config_.nrf_dim; }
  const RsrNetConfig& config() const { return config_; }

  /// Length of the RsrStream state vectors (the LSTM's hidden width).
  /// Snapshot restore validates imported hidden states against this before
  /// accepting them.
  size_t stream_state_size() const { return config_.hidden_dim; }

  /// Loads pre-trained TCF embeddings (rows must match num_edges; extra
  /// columns are truncated, missing columns are an error).
  void LoadTcfEmbeddings(const nn::Matrix& table);

  /// Full-sequence forward (no gradients retained).
  RsrForward Forward(const std::vector<traj::EdgeId>& edges,
                     const std::vector<uint8_t>& nrf) const;

  /// Full-sequence forward retaining the BPTT caches in `cache` so a later
  /// TrainStepCached (and any number of Loss evaluations) can reuse it.
  /// Returns a reference to cache->fwd. Identical outputs to Forward().
  const RsrForward& ForwardCached(const std::vector<traj::EdgeId>& edges,
                                  const std::vector<uint8_t>& nrf,
                                  RsrTrainCache* cache) const;

  /// Mean cross-entropy of the sequence against `labels` (Equation 1).
  double Loss(const std::vector<traj::EdgeId>& edges,
              const std::vector<uint8_t>& nrf,
              const std::vector<uint8_t>& labels) const;

  /// Same loss from an already-computed forward pass (no re-forward; the
  /// probabilities fully determine it).
  double Loss(const RsrForward& fwd, const std::vector<uint8_t>& labels) const;

  /// One Adam step of cross-entropy training; returns the pre-update loss.
  double TrainStep(const std::vector<traj::EdgeId>& edges,
                   const std::vector<uint8_t>& nrf,
                   const std::vector<uint8_t>& labels);

  /// As TrainStep, but reuses the forward pass in `cache` (from
  /// ForwardCached on the same edges/nrf with the current weights) instead
  /// of re-running it. Consumes the cache: `cache->valid()` is false
  /// afterwards, because the Adam step invalidates the stored activations.
  double TrainStepCached(const std::vector<traj::EdgeId>& edges,
                         const std::vector<uint8_t>& nrf,
                         const std::vector<uint8_t>& labels,
                         RsrTrainCache* cache);

  /// Forward + backward for one sequence with every parameter gradient
  /// routed into `sink` instead of the model; returns the mean loss and
  /// does NOT update weights. Safe to call concurrently from multiple
  /// worker threads as long as each passes its own sink: the weights are
  /// only read and all scratch is thread-local. Pair with
  /// ApplyWorkerGradients on the owning thread.
  double AccumulateGradients(const std::vector<traj::EdgeId>& edges,
                             const std::vector<uint8_t>& nrf,
                             const std::vector<uint8_t>& labels,
                             nn::GradientSink* sink);

  /// Applies one worker's accumulated gradients exactly as TrainStep's
  /// update phase would (fold into the registry, clip, Adam step).
  /// Requires the registry gradients to be all-zero on entry — call
  /// registry()->ZeroGrad() once before the first apply — and restores
  /// that invariant before returning; the sink is Reset() for reuse. With
  /// a single worker, AccumulateGradients + ApplyWorkerGradients is
  /// bit-identical to TrainStep.
  void ApplyWorkerGradients(nn::GradientSink* sink);

  /// Streaming step: consumes one segment and its NRF bit, returns z_i and
  /// fills `probs`. O(hidden * (hidden + embed)) per call.
  nn::Vec StepForward(traj::EdgeId edge, uint8_t nrf_bit, RsrStream* stream,
                      std::array<float, 2>* probs) const;

  /// Batched streaming step over B independent trip streams: advances
  /// streams[b] by edges[b]/nrf_bits[b] bit-identically to StepForward, with
  /// the LSTM gate matmuls of all B streams fused into GEMMs over
  /// sample-major state rows (nn::Lstm::StepRows). `z` is resized
  /// to (z_dim x B), column b = z_b; `probs` (optional) is resized to
  /// (2 x B) of softmaxed class probabilities. Streams may differ per
  /// call — the caller gathers whichever trips have a point to process, so
  /// ragged final batches are just smaller B.
  void StepForwardBatch(std::span<const traj::EdgeId> edges,
                        std::span<const uint8_t> nrf_bits,
                        std::span<RsrStream* const> streams, nn::Matrix* z,
                        nn::Matrix* probs = nullptr) const;

  /// Rebuilds the LSTM's streaming copy of its weights (see
  /// nn::Lstm::Repack). The Adam steps above do this themselves; call it
  /// after writing the registry() parameters any other way (a bundle load).
  void Repack() { lstm_.Repack(); }

  nn::ParameterRegistry* registry() { return &registry_; }
  float lr() const { return optimizer_->lr(); }
  void set_lr(float lr) { optimizer_->set_lr(lr); }

 private:
  /// Shared forward that optionally retains caches for backprop.
  RsrForward ForwardImpl(const std::vector<traj::EdgeId>& edges,
                         const std::vector<uint8_t>& nrf,
                         std::vector<nn::LstmStepCache>* caches) const;

  /// Cross-entropy loss plus all parameter gradients via the sequence-level
  /// (GEMM-backed) backward passes. With `sink` null, gradients accumulate
  /// into the registry parameters (the single-thread training path, bit-
  /// identical to the historical per-step backward from zeroed gradients).
  /// With a sink, every gradient lands in the worker-local buffers instead,
  /// which makes concurrent calls safe: weights are only read, and all
  /// scratch is thread-local.
  double ComputeGradients(const std::vector<traj::EdgeId>& edges,
                          const std::vector<uint8_t>& nrf,
                          const std::vector<uint8_t>& labels,
                          const RsrForward& fwd,
                          const std::vector<nn::LstmStepCache>& caches,
                          nn::GradientSink* sink);

  RsrNetConfig config_;
  Rng rng_;
  nn::Embedding tcf_embed_;  // num_edges x embed_dim
  nn::Embedding nrf_embed_;  // 2 x nrf_dim
  nn::Lstm lstm_;            // embed_dim -> hidden_dim
  nn::Linear head_;          // (hidden + nrf_dim) -> 2
  nn::ParameterRegistry registry_;
  std::unique_ptr<nn::AdamOptimizer> optimizer_;
};

}  // namespace rl4oasd::core
