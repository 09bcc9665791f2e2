#include "core/asdnet.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace rl4oasd::core {

AsdNet::AsdNet(AsdNetConfig config)
    : config_(config),
      rng_(config.seed),
      label_embed_("asd.label", 2, config.label_dim, &rng_),
      policy_("asd.policy", config.z_dim + config.label_dim, 2, &rng_) {
  label_embed_.RegisterParams(&registry_);
  policy_.RegisterParams(&registry_);
  nn::AdamConfig adam;
  adam.lr = config_.lr;
  optimizer_ = std::make_unique<nn::AdamOptimizer>(&registry_, adam);
}

void AsdNet::BuildState(const float* z, int prev_label, float* state) const {
  std::copy(z, z + config_.z_dim, state);
  const float* v = label_embed_.Lookup(prev_label ? 1 : 0);
  std::copy(v, v + config_.label_dim, state + config_.z_dim);
}

std::array<float, 2> AsdNet::ActionProbs(const float* z,
                                         int prev_label) const {
  // Thread-local scratch, fully rewritten: no allocation per decision.
  static thread_local nn::Vec state;
  state.resize(state_dim());
  BuildState(z, prev_label, state.data());
  float logits[2];
  policy_.Forward(state.data(), logits);
  nn::SoftmaxInPlace(logits, 2);
  return {logits[0], logits[1]};
}

void AsdNet::ActionProbsBatch(const nn::Matrix& z,
                              std::span<const int> prev_labels,
                              nn::Matrix* probs) const {
  const size_t B = z.cols();
  RL4_CHECK_EQ(z.rows(), config_.z_dim);
  RL4_CHECK_EQ(prev_labels.size(), B);
  // State matrix (z_dim + label_dim) x B: the z block is a straight copy
  // (full-width rows), the label embedding scatters per column. Thread-
  // local scratch, every row rewritten per call.
  static thread_local nn::Matrix state;
  state.EnsureShape(state_dim(), B);
  std::memcpy(state.data(), z.data(), config_.z_dim * B * sizeof(float));
  for (size_t b = 0; b < B; ++b) {
    const float* v = label_embed_.Lookup(prev_labels[b] ? 1 : 0);
    float* col = state.data() + config_.z_dim * B + b;
    for (size_t r = 0; r < config_.label_dim; ++r) col[r * B] = v[r];
  }
  policy_.ForwardBatch(state, probs);
  nn::SoftmaxColumnsInPlace(probs);
}

int AsdNet::SampleAction(const float* z, int prev_label, Rng* rng) const {
  const auto probs = ActionProbs(z, prev_label);
  return rng->Uniform() < probs[0] ? 0 : 1;
}

int AsdNet::GreedyAction(const float* z, int prev_label) const {
  const auto probs = ActionProbs(z, prev_label);
  return probs[1] > probs[0] ? 1 : 0;
}

double AsdNet::ReinforceUpdate(const std::vector<AsdStep>& episode,
                               double reward) {
  if (episode.empty()) return reward;
  registry_.ZeroGrad();
  nn::Vec state(state_dim());
  nn::Vec d_state(state_dim());
  for (const AsdStep& step : episode) {
    RL4_CHECK_EQ(step.z.size(), config_.z_dim);
    BuildState(step.z.data(), step.prev_label, state.data());
    float logits[2];
    policy_.Forward(state.data(), logits);
    nn::SoftmaxInPlace(logits, 2);
    // d/d logits of (-R * log pi(a)) = -R * (onehot(a) - p) = R * (p - onehot).
    float d_logits[2] = {
        static_cast<float>(reward) * logits[0],
        static_cast<float>(reward) * logits[1],
    };
    d_logits[step.action] -= static_cast<float>(reward);
    std::fill(d_state.begin(), d_state.end(), 0.0f);
    policy_.Backward(state.data(), d_logits, d_state.data());
    label_embed_.AccumulateGrad(step.prev_label ? 1 : 0,
                                d_state.data() + config_.z_dim);
  }
  registry_.ClipGradNorm(config_.grad_clip);
  optimizer_->Step();
  return reward;
}

double AsdNet::ImitationUpdate(const std::vector<AsdStep>& episode,
                               float positive_weight) {
  if (episode.empty()) return 0.0;
  if (positive_weight <= 0.0f) {
    // Adaptive: balance the two action classes within the episode.
    size_t ones = 0;
    for (const auto& s : episode) ones += s.action;
    positive_weight = ones == 0
                          ? 1.0f
                          : std::min(50.0f, static_cast<float>(
                                                episode.size() - ones) /
                                                static_cast<float>(ones));
  }
  registry_.ZeroGrad();
  nn::Vec state(state_dim());
  nn::Vec d_state(state_dim());
  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(episode.size());
  for (const AsdStep& step : episode) {
    BuildState(step.z.data(), step.prev_label, state.data());
    float logits[2];
    policy_.Forward(state.data(), logits);
    nn::SoftmaxInPlace(logits, 2);
    loss += nn::CrossEntropy(logits, 2, static_cast<size_t>(step.action));
    const float w = inv_n * (step.action == 1 ? positive_weight : 1.0f);
    float d_logits[2] = {logits[0] * w, logits[1] * w};
    d_logits[step.action] -= w;
    std::fill(d_state.begin(), d_state.end(), 0.0f);
    policy_.Backward(state.data(), d_logits, d_state.data());
    label_embed_.AccumulateGrad(step.prev_label ? 1 : 0,
                                d_state.data() + config_.z_dim);
  }
  registry_.ClipGradNorm(config_.grad_clip);
  optimizer_->Step();
  return loss / static_cast<double>(episode.size());
}

}  // namespace rl4oasd::core
