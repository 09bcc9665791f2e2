#include "core/rl4oasd.h"

#include <algorithm>
#include <barrier>
#include <memory>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/rewards.h"

namespace rl4oasd::core {

namespace {

/// A trajectory with its (main-thread-resolved) cached features: workers
/// must not touch the FeatureCache, so the feature references are pinned
/// before sharding. The references stay valid for the whole phase — the
/// cache is node-based and nothing invalidates it mid-phase.
struct PretrainItem {
  const traj::MapMatchedTrajectory* t;
  const std::vector<uint8_t>* nrf;
  const std::vector<uint8_t>* labels;
};

}  // namespace

Rl4Oasd::Rl4Oasd(const roadnet::RoadNetwork* net, Rl4OasdConfig config)
    : net_(net),
      config_(config),
      rng_(config.seed),
      preprocessor_(config.preprocess) {
  RL4_CHECK(net->built());
  config_.rsr.num_edges = net->NumEdges();
  rsr_ = std::make_unique<RsrNet>(config_.rsr);
  config_.asd.z_dim = rsr_->z_dim();
  asd_ = std::make_unique<AsdNet>(config_.asd);
  detector_ = std::make_unique<OnlineDetector>(
      net_, &preprocessor_, rsr_.get(), asd_.get(), config_.detector);
}

std::optional<size_t> Rl4Oasd::ParameterCount(const Rl4OasdConfig& config,
                                              size_t num_edges) {
  // The (rows, cols) of every tensor the constructors allocate: RSRNet's
  // tcf and nrf tables, LSTM Wx, Wh and b, and head W and b; ASDNet's label
  // table and policy W and b, over RSRNet's z and the label embedding.
  const RsrNetConfig& rsr = config.rsr;
  const size_t label = config.asd.label_dim;
  size_t four_h = 0, z = 0, state = 0;
  if (__builtin_mul_overflow(rsr.hidden_dim, size_t{4}, &four_h) ||
      __builtin_add_overflow(rsr.hidden_dim, rsr.nrf_dim, &z) ||
      __builtin_add_overflow(z, label, &state)) {
    return std::nullopt;
  }
  const std::pair<size_t, size_t> shapes[] = {
      {num_edges, rsr.embed_dim}, {2, rsr.nrf_dim}, {four_h, rsr.embed_dim},
      {four_h, rsr.hidden_dim},   {1, four_h},      {2, z},
      {1, 2},                     {2, label},       {2, state},
      {1, 2}};
  size_t total = 0;
  for (const auto& [rows, cols] : shapes) {
    size_t floats = 0;
    if (__builtin_mul_overflow(rows, cols, &floats) ||
        __builtin_add_overflow(total, floats, &total)) {
      return std::nullopt;
    }
  }
  return total;
}

void Rl4Oasd::PretrainRsr(const traj::Dataset& train,
                          const std::vector<size_t>& sample) {
  const int threads = std::max(1, config_.trainer_threads);
  // The coin-flip ablation draws labels from the shared rng stream per
  // sample, which pins it to the sequential path.
  if (threads == 1 || !config_.use_noisy_labels) {
    for (int epoch = 0; epoch < config_.pretrain_epochs; ++epoch) {
      for (size_t idx : sample) {
        const auto& t = train[idx].traj;
        if (t.edges.size() < 3) continue;
        // Features come from the cache: the stratification scan already
        // paid for the noisy labels, and later epochs reuse both vectors.
        const auto& nrf = features_.NormalRouteFeatures(t);
        if (config_.use_noisy_labels) {
          rsr_->TrainStep(t.edges, nrf, features_.NoisyLabels(t));
        } else {
          // Ablation: replace the warm-start signal with coin flips.
          std::vector<uint8_t> labels(t.edges.size());
          for (auto& l : labels) l = rng_.Bernoulli(0.5) ? 1 : 0;
          rsr_->TrainStep(t.edges, nrf, labels);
        }
      }
    }
    return;
  }

  // Data-parallel path: waves of up to `threads` samples backprop
  // concurrently through the shared (read-only) weights into worker-local
  // sinks; the main thread then applies one Adam step per sample in the
  // sample order, so the schedule is deterministic regardless of thread
  // timing. Each gradient is computed against weights at most
  // `threads - 1` steps stale. Workers persist across all waves and
  // epochs (two barrier phases per wave: gradients ready, then weights
  // refreshed) — spawning threads per wave would cost more than a short
  // trajectory's backward pass.
  std::vector<PretrainItem> items;
  items.reserve(sample.size());
  for (size_t idx : sample) {
    const auto& t = train[idx].traj;
    if (t.edges.size() < 3) continue;
    items.push_back({&t, &features_.NormalRouteFeatures(t),
                     &features_.NoisyLabels(t)});
  }
  if (items.empty()) return;
  std::vector<std::unique_ptr<nn::GradientSink>> sinks;
  for (int w = 0; w < threads; ++w) {
    sinks.push_back(std::make_unique<nn::GradientSink>(*rsr_->registry()));
  }
  // ApplyWorkerGradients requires (and then maintains) all-zero registry
  // gradients.
  rsr_->registry()->ZeroGrad();
  const size_t stride = static_cast<size_t>(threads);
  const size_t waves_per_epoch = (items.size() + stride - 1) / stride;
  const size_t total_waves =
      waves_per_epoch * static_cast<size_t>(config_.pretrain_epochs);
  std::barrier sync(threads);
  auto accumulate = [this, &items, &sinks, waves_per_epoch,
                     stride](size_t wave, size_t b) {
    const size_t i = (wave % waves_per_epoch) * stride + b;
    if (i >= items.size()) return;
    const PretrainItem& it = items[i];
    rsr_->AccumulateGradients(it.t->edges, *it.nrf, *it.labels,
                              sinks[b].get());
  };
  std::vector<std::thread> pool;
  pool.reserve(stride - 1);
  for (size_t b = 1; b < stride; ++b) {
    pool.emplace_back([&accumulate, &sync, total_waves, b] {
      for (size_t wave = 0; wave < total_waves; ++wave) {
        accumulate(wave, b);
        sync.arrive_and_wait();  // this wave's gradients are ready
        sync.arrive_and_wait();  // the main thread finished applying them
      }
    });
  }
  for (size_t wave = 0; wave < total_waves; ++wave) {
    accumulate(wave, 0);
    sync.arrive_and_wait();
    const size_t base = (wave % waves_per_epoch) * stride;
    const size_t wave_n = std::min(stride, items.size() - base);
    for (size_t b = 0; b < wave_n; ++b) {
      rsr_->ApplyWorkerGradients(sinks[b].get());
    }
    sync.arrive_and_wait();
  }
  for (auto& th : pool) th.join();
}

void Rl4Oasd::PretrainAsd(const traj::Dataset& train,
                          const std::vector<size_t>& sample) {
  // Warm-start the policy by imitating the noisy labels (paper: "we specify
  // its actions as the noisy labels"). Multiple epochs of supervised
  // imitation are required: joint REINFORCE training starting from a policy
  // that rarely emits 1s collapses to labeling everything normal.
  //
  // RSRNet's weights are frozen for the whole phase and the imitation
  // actions are the (cached) noisy labels, so each episode is a pure
  // function of the trajectory: build every episode once — one RSR forward
  // per trajectory — and replay the list across epochs. Bit-identical to
  // recomputing them per epoch, at 1/pretrain_epochs of the forward cost.
  // With trainer_threads > 1 the (forward-dominated) episode builds shard
  // across workers by stripe; since nothing mutates during the builds,
  // even the threaded result is bit-identical to sequential. The tiny
  // ImitationUpdates stay sequential in sample order.
  std::vector<PretrainItem> items;
  static const std::vector<uint8_t> kEmpty;
  for (size_t idx : sample) {
    const auto& t = train[idx].traj;
    if (t.edges.size() < 3) continue;
    items.push_back({&t, &features_.NormalRouteFeatures(t),
                     config_.use_noisy_labels ? &features_.NoisyLabels(t)
                                              : &kEmpty});
  }
  std::vector<std::vector<AsdStep>> episodes(items.size());
  auto build = [&](size_t i) {
    const PretrainItem& it = items[i];
    const size_t n = it.t->edges.size();
    std::vector<uint8_t> zero_labels;
    if (!config_.use_noisy_labels) zero_labels.assign(n, 0);
    const std::vector<uint8_t>& labels =
        config_.use_noisy_labels ? *it.labels : zero_labels;
    const RsrForward fwd = rsr_->Forward(it.t->edges, *it.nrf);
    std::vector<AsdStep>& episode = episodes[i];
    int prev_label = 0;
    for (size_t p = 1; p + 1 < n; ++p) {
      AsdStep step;
      step.z = fwd.z[p];
      step.prev_label = prev_label;
      step.action = labels[p];
      episode.push_back(std::move(step));
      prev_label = labels[p];
    }
  };
  const int threads = std::max(1, config_.trainer_threads);
  if (threads == 1 || items.size() < 2) {
    for (size_t i = 0; i < items.size(); ++i) build(i);
  } else {
    std::vector<std::thread> pool;
    const size_t stripe = static_cast<size_t>(threads);
    for (size_t w = 1; w < stripe; ++w) {
      pool.emplace_back([&build, &items, w, stripe] {
        for (size_t i = w; i < items.size(); i += stripe) build(i);
      });
    }
    for (size_t i = 0; i < items.size(); i += stripe) build(i);
    for (auto& th : pool) th.join();
  }
  for (int epoch = 0; epoch < config_.pretrain_epochs; ++epoch) {
    for (const auto& episode : episodes) {
      asd_->ImitationUpdate(episode);
    }
  }
}

std::vector<uint8_t> Rl4Oasd::RolloutLabels(
    const traj::MapMatchedTrajectory& t, const RsrForward& fwd,
    bool stochastic, std::vector<AsdStep>* episode) {
  const size_t n = t.edges.size();
  std::vector<uint8_t> labels(n, 0);
  int prev_label = 0;
  for (size_t i = 1; i < n; ++i) {
    if (i + 1 == n) {
      labels[i] = 0;  // destination is normal by definition
      break;
    }
    int det = -1;
    if (config_.detector.use_rnel) {
      det = RnelDeterministicLabel(*net_, t.edges[i - 1], prev_label,
                                   t.edges[i]);
    }
    int action;
    if (det >= 0) {
      action = det;
    } else if (stochastic) {
      if (rng_.Bernoulli(config_.joint_explore_eps)) {
        action = static_cast<int>(rng_.UniformInt(uint64_t{2}));
      } else {
        action = asd_->SampleAction(fwd.z[i].data(), prev_label, &rng_);
      }
      if (episode != nullptr) {
        AsdStep step;
        step.z = fwd.z[i];
        step.prev_label = prev_label;
        step.action = action;
        episode->push_back(std::move(step));
      }
    } else {
      action = asd_->GreedyAction(fwd.z[i].data(), prev_label);
    }
    labels[i] = static_cast<uint8_t>(action);
    prev_label = action;
  }
  return labels;
}

void Rl4Oasd::JointStep(const traj::MapMatchedTrajectory& t) {
  // One RSR forward per episode: the cached pass feeds the stochastic
  // rollout, the greedy baseline, both reward losses, and (when RSRNet
  // trains in the joint phase) the weight update itself — the weights only
  // move at the very end of the episode, so every reuse is exact.
  const auto& nrf = features_.NormalRouteFeatures(t);
  RsrTrainCache fwd_cache;
  const RsrForward& fwd = rsr_->ForwardCached(t.edges, nrf, &fwd_cache);
  std::vector<AsdStep> episode;
  const auto refined =
      RolloutLabels(t, fwd, /*stochastic=*/true, &episode);
  const double loss = rsr_->Loss(fwd, refined);
  const double reward = EpisodeReward(fwd.z, refined, loss,
                                      config_.use_local_reward,
                                      config_.use_global_reward);
  double advantage = reward;
  ++joint_stats_.episodes;
  int ones_delta = 0;
  if (config_.use_reward_baseline) {
    // Self-critical baseline: compare against the greedy rollout of the
    // same trajectory.
    const auto greedy = RolloutLabels(t, fwd, /*stochastic=*/false, nullptr);
    const double greedy_loss = rsr_->Loss(fwd, greedy);
    advantage = reward - EpisodeReward(fwd.z, greedy, greedy_loss,
                                       config_.use_local_reward,
                                       config_.use_global_reward);
    for (size_t i = 0; i < refined.size(); ++i) {
      ones_delta += static_cast<int>(refined[i]) - static_cast<int>(greedy[i]);
    }
    // Self-imitation: only reinforce rollouts that beat the greedy policy.
    // Under Adam's magnitude normalization, the frequent negative-advantage
    // episodes otherwise dominate the rare positive ones and the policy
    // degenerates to labeling everything normal.
    if (advantage <= 0.0) {
      last_mean_reward_ = reward;
      if (config_.train_rsr_in_joint && config_.use_noisy_labels &&
          rng_.Bernoulli(config_.noisy_anchor_prob)) {
        rsr_->TrainStepCached(t.edges, nrf, features_.NoisyLabels(t),
                              &fwd_cache);
      }
      return;
    }
  }
  ++joint_stats_.applied;
  joint_stats_.advantage_sum += advantage;
  joint_stats_.ones_delta_sum += ones_delta;
  asd_->ReinforceUpdate(episode, advantage);
  // Refined labels retrain RSRNet, which then provides better states. The
  // noisy labels stay in the mix as the weak-supervision anchor (see
  // Rl4OasdConfig::noisy_anchor_prob).
  if (config_.train_rsr_in_joint) {
    if (config_.use_noisy_labels &&
        rng_.Bernoulli(config_.noisy_anchor_prob)) {
      rsr_->TrainStepCached(t.edges, nrf, features_.NoisyLabels(t),
                            &fwd_cache);
    } else {
      rsr_->TrainStepCached(t.edges, nrf, refined, &fwd_cache);
    }
  }
  last_mean_reward_ = reward;
}

void Rl4Oasd::Fit(const traj::Dataset& train) {
  RL4_CHECK(!train.empty());
  fit_timings_ = FitTimings{};
  Stopwatch total;
  Stopwatch phase;
  preprocessor_.Fit(train);
  fit_timings_.preprocess_s = phase.ElapsedSeconds();

  if (config_.transition_frequency_only) {
    fit_timings_.total_s = total.ElapsedSeconds();
    return;  // nothing neural to train
  }

  if (config_.use_pretrained_embeddings) {
    phase.Start();
    embed::SkipGramTrainer trainer(net_, config_.rsr.embed_dim,
                                   config_.embedding);
    rsr_->LoadTcfEmbeddings(trainer.Train(train));
    fit_timings_.embed_s = phase.ElapsedSeconds();
  }

  // Warm start on a small sample (paper: 200 trajectories). The sample is
  // stratified so that up to half of it contains noisy-anomalous segments:
  // at realistic anomaly ratios (~1% of segments) a uniform sample starves
  // the warm start of anomalous examples entirely.
  phase.Start();
  const size_t pre_n = std::min<size_t>(config_.pretrain_samples,
                                        train.size());
  std::vector<size_t> pre_sample;
  if (config_.use_noisy_labels) {
    std::vector<size_t> with_anomaly, without;
    for (size_t i = 0; i < train.size(); ++i) {
      const auto& t = train[i].traj;
      if (t.edges.size() < 3) continue;
      // Cached: the warm-start epochs below reuse these labels instead of
      // recomputing them for every sampled trajectory every epoch.
      const auto& noisy = features_.NoisyLabels(t);
      bool any = false;
      for (uint8_t l : noisy) any |= (l != 0);
      (any ? with_anomaly : without).push_back(i);
    }
    rng_.Shuffle(&with_anomaly);
    rng_.Shuffle(&without);
    const size_t take_anomalous = std::min(with_anomaly.size(), pre_n / 2);
    pre_sample.assign(with_anomaly.begin(),
                      with_anomaly.begin() + take_anomalous);
    for (size_t i = 0; i < without.size() && pre_sample.size() < pre_n;
         ++i) {
      pre_sample.push_back(without[i]);
    }
    rng_.Shuffle(&pre_sample);
  } else {
    pre_sample = rng_.SampleWithoutReplacement(train.size(), pre_n);
  }
  // The stratification scan above counts toward the RSR warm start (it
  // resolves the same cached features the epochs consume).
  PretrainRsr(train, pre_sample);
  fit_timings_.pretrain_rsr_s = phase.ElapsedSeconds();
  if (config_.use_asdnet) {
    phase.Start();
    PretrainAsd(train, pre_sample);
    fit_timings_.pretrain_asd_s = phase.ElapsedSeconds();
  }

  if (!config_.use_asdnet) {
    fit_timings_.total_s = total.ElapsedSeconds();
    return;  // classifier-only ablation stops here
  }

  // Joint training (paper: 10,000 sampled trajectories, 5 epochs each).
  phase.Start();
  const size_t joint_n =
      std::min<size_t>(config_.joint_samples, train.size());
  auto joint_sample = rng_.SampleWithoutReplacement(train.size(), joint_n);
  double reward_sum = 0.0;
  int64_t reward_n = 0;
  for (size_t idx : joint_sample) {
    const auto& t = train[idx].traj;
    if (t.edges.size() < 3) continue;
    for (int e = 0; e < config_.epochs_per_traj; ++e) {
      JointStep(t);
      reward_sum += last_mean_reward_;
      ++reward_n;
    }
  }
  if (reward_n > 0) last_mean_reward_ = reward_sum / reward_n;
  fit_timings_.joint_s = phase.ElapsedSeconds();
  fit_timings_.total_s = total.ElapsedSeconds();
}

void Rl4Oasd::JointTrain(const traj::Dataset& data, int max_samples) {
  if (config_.transition_frequency_only || !config_.use_asdnet) return;
  size_t n = data.size();
  if (max_samples >= 0) n = std::min<size_t>(n, max_samples);
  auto sample = rng_.SampleWithoutReplacement(data.size(), n);
  for (size_t idx : sample) {
    const auto& t = data[idx].traj;
    if (t.edges.size() < 3) continue;
    JointStep(t);
  }
}

void Rl4Oasd::FineTune(const traj::Dataset& new_data, int max_samples) {
  // Keep the historical statistics current, then run a light pass of both
  // warm-start training and policy refinement on the new data (the
  // RL4OASD-FT strategy of Section V-G).
  for (const auto& lt : new_data.trajs()) {
    preprocessor_.Update(lt.traj);
  }
  if (config_.transition_frequency_only) return;
  size_t n = new_data.size();
  if (max_samples >= 0) n = std::min<size_t>(n, max_samples);
  auto sample = rng_.SampleWithoutReplacement(new_data.size(), n);
  // The drifted statistics change the noisy labels and NRF features, so the
  // networks re-anchor on them (this is what adapts to concept drift).
  PretrainRsr(new_data, sample);
  if (config_.use_asdnet) {
    PretrainAsd(new_data, sample);
    for (size_t idx : sample) {
      const auto& t = new_data[idx].traj;
      if (t.edges.size() < 3) continue;
      JointStep(t);
    }
  }
}

std::vector<uint8_t> Rl4Oasd::Detect(
    const traj::MapMatchedTrajectory& t) const {
  if (config_.transition_frequency_only) {
    // The paper's "simplest method": raw transition-frequency thresholding,
    // with none of the detector's smoothing.
    return preprocessor_.NoisyLabels(t);
  }
  if (!config_.use_asdnet) {
    // Classifier-only ablation: argmax over RSRNet's softmax head.
    const auto nrf = preprocessor_.NormalRouteFeatures(t);
    const RsrForward fwd = rsr_->Forward(t.edges, nrf);
    std::vector<uint8_t> labels(t.edges.size(), 0);
    for (size_t i = 1; i + 1 < labels.size(); ++i) {
      labels[i] = fwd.probs[i][1] > fwd.probs[i][0] ? 1 : 0;
    }
    if (config_.detector.use_dl) {
      ApplyDelayedLabeling(&labels, config_.detector.delay_d);
    }
    return labels;
  }
  return detector_->Detect(t);
}

OnlineDetector::Session Rl4Oasd::StartSession(traj::SdPair sd,
                                              double start_time) const {
  return detector_->StartSession(sd, start_time);
}

}  // namespace rl4oasd::core
