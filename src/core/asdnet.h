// ASDNet (paper Section IV-D): the anomalous-subtrajectory detection network.
// Labeling road segments is modeled as an MDP:
//   state  s_i = [z_i ; v(e_{i-1}.l)]  (RSRNet representation + embedded
//                previous label),
//   action a_i in {0, 1} labels segment i as normal/anomalous,
//   reward = mean local continuity reward + global label-quality reward.
// The stochastic policy is a single-layer feedforward network with softmax
// (paper setting), trained with REINFORCE.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "nn/adam.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "traj/types.h"

namespace rl4oasd::core {

struct AsdNetConfig {
  size_t z_dim = 128;      // must equal RsrNet::z_dim()
  size_t label_dim = 64;   // label-embedding size (paper: 128)
  float lr = 0.001f;       // paper setting
  float grad_clip = 5.0f;
  uint64_t seed = 23;
};

/// One recorded MDP step, kept for the episode's REINFORCE update.
struct AsdStep {
  nn::Vec z;       // representation from RSRNet
  int prev_label;  // label of the previous segment
  int action;      // sampled label for this segment
};

class AsdNet {
 public:
  explicit AsdNet(AsdNetConfig config);

  const AsdNetConfig& config() const { return config_; }
  size_t state_dim() const { return config_.z_dim + config_.label_dim; }

  /// π(a | s): action probabilities for state (z, prev_label).
  std::array<float, 2> ActionProbs(const float* z, int prev_label) const;

  /// Batched policy evaluation: `z` is (z_dim x B) column-per-sample,
  /// `prev_labels` the matching previous labels; `probs` is resized to
  /// (2 x B) with column b bit-identical to ActionProbs on sample b (see
  /// nn::Gemm's equivalence contract). The policy matmul of all B samples
  /// runs as one GEMM.
  void ActionProbsBatch(const nn::Matrix& z, std::span<const int> prev_labels,
                        nn::Matrix* probs) const;

  /// Samples an action from the stochastic policy.
  int SampleAction(const float* z, int prev_label, Rng* rng) const;

  /// argmax action (used at detection time for determinism).
  int GreedyAction(const float* z, int prev_label) const;

  /// REINFORCE update over one episode: accumulates
  ///   grad = -R * sum_i d/dtheta log pi(a_i | s_i)
  /// (gradient ascent on J) and applies one Adam step. Returns R.
  double ReinforceUpdate(const std::vector<AsdStep>& episode, double reward);

  /// Supervised warm-start (paper: "we specify its actions as the noisy
  /// labels"): cross-entropy imitation of the episode's actions. Anomalous
  /// actions (1) are upweighted by `positive_weight` (<= 0 picks a
  /// class-balancing weight per episode, capped at 50) — anomalous actions are a few
  /// percent of all steps, and an unweighted fit never learns to *start* an
  /// anomalous run. Returns the mean CE loss before the update.
  double ImitationUpdate(const std::vector<AsdStep>& episode,
                         float positive_weight = 0.0f);

  nn::ParameterRegistry* registry() { return &registry_; }
  float lr() const { return optimizer_->lr(); }
  void set_lr(float lr) { optimizer_->set_lr(lr); }

 private:
  void BuildState(const float* z, int prev_label, float* state) const;

  AsdNetConfig config_;
  Rng rng_;
  nn::Embedding label_embed_;  // 2 x label_dim
  nn::Linear policy_;          // state_dim -> 2
  nn::ParameterRegistry registry_;
  std::unique_ptr<nn::AdamOptimizer> optimizer_;
};

}  // namespace rl4oasd::core
