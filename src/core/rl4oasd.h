// The RL4OASD model facade: wires together preprocessing, Toast-substitute
// road embeddings, RSRNet, ASDNet, joint weakly-supervised training
// (Section IV-E), online fine-tuning for concept drift, and the online
// detector. Every ablation row of Table IV is a configuration flag here.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/asdnet.h"
#include "core/detector.h"
#include "core/preprocess.h"
#include "core/rsrnet.h"
#include "embed/skipgram.h"
#include "roadnet/road_network.h"
#include "traj/dataset.h"

namespace rl4oasd::core {

struct Rl4OasdConfig {
  PreprocessConfig preprocess;
  RsrNetConfig rsr;   // num_edges is filled in from the road network
  AsdNetConfig asd;   // z_dim is filled in from the RSRNet config
  DetectorConfig detector;
  embed::SkipGramConfig embedding;

  // Training schedule (paper Section IV-D, "Joint Training").
  int pretrain_samples = 200;
  int pretrain_epochs = 3;
  int joint_samples = 10000;
  int epochs_per_traj = 5;

  // Data-parallel warm start: the pretrain phases shard across this many
  // worker threads. Workers backprop through the shared model into
  // worker-local gradient sinks; the main thread applies the per-sample
  // Adam steps in the deterministic sample order. 1 (the default) is the
  // sequential path, bit-identical to historical behaviour. With N > 1,
  // PretrainAsd stays bit-identical (RSRNet is frozen there, so parallel
  // episode building is exact) while PretrainRsr becomes minibatch-stale:
  // each gradient in a wave of N is computed against weights up to N-1
  // steps old — deterministic, but numerically a different (equally valid)
  // optimization path, covered by tolerance-based equivalence tests. The
  // joint REINFORCE phase is inherently sequential and never shards.
  int trainer_threads = 1;

  // Self-critical REINFORCE baseline: the advantage of a sampled rollout is
  // its reward minus the reward of the greedy rollout on the same
  // trajectory. (Not spelled out in the paper, but raw positive episode
  // rewards uniformly reinforce all sampled actions, and a global
  // running-mean baseline is dominated by cross-trajectory reward variance —
  // both collapse the policy to all-normal labeling.)
  bool use_reward_baseline = true;

  // During joint training, RSRNet alternates between the policy's refined
  // labels and the noisy labels with this probability of picking the noisy
  // ones. Pure self-training (0.0) drifts to the trivial all-normal
  // equilibrium: labeling everything normal maximizes the continuity reward
  // and RSRNet then learns to agree with it. Keeping the weak-supervision
  // anchor in the loop preserves the paper's iterative-refinement behaviour.
  double noisy_anchor_prob = 0.5;

  // Whether RSRNet keeps training during the joint phase. The paper trains
  // the two networks iteratively; in practice the uniform joint stream is
  // ~95% anomaly-free and continued RSRNet training drifts its decision
  // prior toward "normal", silently invalidating the (frozen) policy's
  // learned mapping from z. Off by default: RSRNet is trained in the warm
  // start (and by FineTune for concept drift), the joint phase refines the
  // policy against a stationary reward.
  bool train_rsr_in_joint = false;

  // Exploration rate for joint-training rollouts: each non-RNEL action is
  // flipped to a uniform random one with this probability. The imitation
  // warm start leaves the policy nearly deterministic, so without forced
  // exploration the sampled rollout equals the greedy one and the joint
  // phase never finds an improving episode.
  double joint_explore_eps = 0.1;

  // Ablation switches (Table IV).
  bool use_noisy_labels = true;            // false: random pretrain labels
  bool use_pretrained_embeddings = true;   // false: random embedding init
  bool use_local_reward = true;
  bool use_global_reward = true;
  bool use_asdnet = true;                  // false: RSRNet classifier alone
  bool transition_frequency_only = false;  // the simplest detector

  uint64_t seed = 5;
};

class Rl4Oasd {
 public:
  Rl4Oasd(const roadnet::RoadNetwork* net, Rl4OasdConfig config);

  /// Number of floats in the RSRNet and ASDNet parameters the constructor
  /// allocates for `config` on a network of `num_edges` edges, or nullopt
  /// when the count overflows size_t; a bundle reader checks it against its
  /// payload before constructing the model.
  static std::optional<size_t> ParameterCount(const Rl4OasdConfig& config,
                                              size_t num_edges);

  /// Full training pipeline on a historical dataset: preprocessing,
  /// embedding pre-training, warm-start pre-training, joint training.
  void Fit(const traj::Dataset& train);

  /// Online learning for concept drift: ingests newly recorded trajectories
  /// into the historical statistics, then fine-tunes on them.
  void FineTune(const traj::Dataset& new_data, int max_samples = -1);

  /// Labels a trajectory (0 normal / 1 anomalous per segment).
  std::vector<uint8_t> Detect(const traj::MapMatchedTrajectory& t) const;

  /// Streaming session access (per-point online detection).
  OnlineDetector::Session StartSession(traj::SdPair sd,
                                       double start_time) const;

  /// The road network the model was built over (non-owning; outlives the
  /// model). Serving-side consumers — e.g. the ingest guard's teleport
  /// check — share this graph rather than carrying their own copy.
  const roadnet::RoadNetwork* network() const { return net_; }

  const Preprocessor& preprocessor() const { return preprocessor_; }
  Preprocessor* mutable_preprocessor() { return &preprocessor_; }
  const RsrNet& rsrnet() const { return *rsr_; }
  const AsdNet& asdnet() const { return *asd_; }
  RsrNet* mutable_rsrnet() { return rsr_.get(); }
  AsdNet* mutable_asdnet() { return asd_.get(); }
  const OnlineDetector& detector() const { return *detector_; }
  const Rl4OasdConfig& config() const { return config_; }

  /// Mean episode reward observed over the last joint-training pass
  /// (exposed for tests and training-curve reporting).
  double last_mean_reward() const { return last_mean_reward_; }

  /// Counters over all joint-training steps so far (training diagnostics).
  struct JointStats {
    int64_t episodes = 0;         // total JointStep calls
    int64_t applied = 0;          // policy updates applied (advantage > 0)
    double advantage_sum = 0.0;   // over applied updates
    double ones_delta_sum = 0.0;  // #1s(sampled) - #1s(greedy), applied only
  };
  const JointStats& joint_stats() const { return joint_stats_; }

  /// Wall-clock breakdown of the last Fit() call (training-time
  /// observability for oasd_train --time and the Table V bench).
  struct FitTimings {
    double preprocess_s = 0.0;    // statistics fit
    double embed_s = 0.0;         // Toast-substitute skip-gram training
    double pretrain_rsr_s = 0.0;  // RSRNet warm start
    double pretrain_asd_s = 0.0;  // ASDNet imitation warm start
    double joint_s = 0.0;         // joint REINFORCE refinement
    double total_s = 0.0;
  };
  const FitTimings& fit_timings() const { return fit_timings_; }

 private:
  /// A training trajectory (at least three edges) with the features its
  /// steps read. The features are pure functions of the trajectory and the
  /// historical statistics, which do not move inside one Fit or FineTune
  /// call, so each call computes them once and drops them on return.
  struct TrainItem {
    const traj::MapMatchedTrajectory* t = nullptr;
    std::vector<uint8_t> nrf;
    std::vector<uint8_t> noisy;  // noisy labels; empty without use_noisy_labels
  };

  /// The items of `sample`'s trajectories of at least three edges, in sample
  /// order. `table` holds one slot per trajectory of `data`: a slot's
  /// features are computed on its first request and shared by later ones.
  std::vector<const TrainItem*> ItemsOf(const traj::Dataset& data,
                                        const std::vector<size_t>& sample,
                                        std::vector<TrainItem>* table) const;

  /// One joint-training step on a single trajectory: sample refined labels
  /// with the current policy, compute rewards, REINFORCE-update ASDNet, and
  /// retrain RSRNet on the refined labels.
  void JointStep(const TrainItem& item);

  /// Rolls out labels with the current policy (training-time version of
  /// Algorithm 1; respects RNEL). When `stochastic`, actions are sampled and
  /// the non-RNEL decisions are appended to `episode` (which may be null for
  /// greedy rollouts).
  std::vector<uint8_t> RolloutLabels(const traj::MapMatchedTrajectory& t,
                                     const RsrForward& fwd, bool stochastic,
                                     std::vector<AsdStep>* episode);

  void PretrainRsr(const std::vector<const TrainItem*>& items);
  void PretrainAsd(const std::vector<const TrainItem*>& items);

  const roadnet::RoadNetwork* net_;
  Rl4OasdConfig config_;
  Rng rng_;
  Preprocessor preprocessor_;
  std::unique_ptr<RsrNet> rsr_;
  std::unique_ptr<AsdNet> asd_;
  std::unique_ptr<OnlineDetector> detector_;
  double last_mean_reward_ = 0.0;
  JointStats joint_stats_;
  FitTimings fit_timings_;
};

}  // namespace rl4oasd::core
