// Shared setup for the reproduction benches: the two synthetic cities
// (Chengdu-like and Xi'an-like), the tuned RL4OASD configuration, and the
// baseline registry. Every bench prints the row/series structure of the
// corresponding paper table or figure.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/ctss.h"
#include "baselines/dbtod.h"
#include "baselines/detector_iface.h"
#include "baselines/iboat.h"
#include "baselines/seq_vae.h"
#include "baselines/transition_frequency.h"
#include "core/rl4oasd.h"
#include "eval/metrics.h"
#include "roadnet/grid_city.h"
#include "traj/generator.h"

namespace rl4oasd::bench {

/// One city's worth of benchmark data.
struct CityData {
  std::string name;
  roadnet::RoadNetwork net;
  traj::Dataset train;
  traj::Dataset test;
  traj::GeneratorConfig generator_config;
};

/// Chengdu-like synthetic city (paper Table II: 4,885 segments, anomalous
/// ratio 0.7%; the synthetic anomaly ratio is raised to 4% so the test split
/// holds enough anomalies for stable metric estimates).
inline CityData MakeChengduLike(int num_pairs = 40, uint64_t seed = 12) {
  CityData city;
  city.name = "Chengdu";
  roadnet::GridCityConfig g;
  g.origin_lat = 30.60;
  g.origin_lon = 104.00;
  g.seed = 7;
  city.net = roadnet::BuildGridCity(g);
  traj::GeneratorConfig t;
  t.num_sd_pairs = num_pairs;
  t.min_trajs_per_pair = 40;
  t.max_trajs_per_pair = 150;
  t.anomaly_ratio = 0.04;
  t.seed = seed;
  city.generator_config = t;
  traj::TrajectoryGenerator gen(&city.net, t);
  auto full = gen.Generate();
  Rng rng(33);
  auto [train, test] = full.Split(full.size() * 7 / 10, &rng);
  city.train = std::move(train);
  city.test = std::move(test);
  return city;
}

/// Xi'an-like synthetic city (5,052 segments, anomalous ratio 1.5% -> 6%;
/// generally shorter trajectories than Chengdu, as in the paper).
inline CityData MakeXianLike(int num_pairs = 32, uint64_t seed = 77) {
  CityData city;
  city.name = "Xi'an";
  roadnet::GridCityConfig g;
  g.rows = 37;
  g.cols = 36;
  g.origin_lat = 34.26;
  g.origin_lon = 108.94;
  g.arterial_every = 6;
  g.seed = 11;
  city.net = roadnet::BuildGridCity(g);
  traj::GeneratorConfig t;
  t.num_sd_pairs = num_pairs;
  t.min_trajs_per_pair = 40;
  t.max_trajs_per_pair = 120;
  t.anomaly_ratio = 0.06;
  t.min_pair_dist_m = 2000;
  t.max_pair_dist_m = 5500;
  t.seed = seed;
  city.generator_config = t;
  traj::TrajectoryGenerator gen(&city.net, t);
  auto full = gen.Generate();
  Rng rng(44);
  auto [train, test] = full.Split(full.size() * 7 / 10, &rng);
  city.train = std::move(train);
  city.test = std::move(test);
  return city;
}

/// The tuned RL4OASD configuration for the synthetic workload. alpha/delta
/// differ from the paper's 0.5/0.4 because the synthetic route-popularity
/// profile differs (3 normal routes at ~0.55/0.27/0.18; the parameter-study
/// bench sweeps both).
inline core::Rl4OasdConfig TunedConfig() {
  core::Rl4OasdConfig cfg;
  cfg.preprocess.alpha = 0.1;
  cfg.preprocess.delta = 0.12;
  cfg.detector.delay_d = 2;
  cfg.rsr.embed_dim = 32;
  cfg.rsr.nrf_dim = 32;
  cfg.rsr.hidden_dim = 32;
  cfg.asd.label_dim = 32;
  cfg.embedding.epochs = 1;
  cfg.embedding.random_walks_per_edge = 1;
  cfg.pretrain_samples = 200;
  cfg.pretrain_epochs = 4;
  cfg.joint_samples = 400;
  cfg.epochs_per_traj = 1;
  return cfg;
}

/// Builds the seven baselines of Table III, sized so the whole bench suite
/// finishes in minutes.
inline std::vector<std::unique_ptr<baselines::SubtrajectoryDetector>>
MakeBaselines(const roadnet::RoadNetwork* net) {
  std::vector<std::unique_ptr<baselines::SubtrajectoryDetector>> out;
  out.push_back(std::make_unique<baselines::IboatDetector>());
  out.push_back(std::make_unique<baselines::DbtodDetector>(net));
  for (auto v : {baselines::VaeVariant::kGmVsae, baselines::VaeVariant::kSdVsae,
                 baselines::VaeVariant::kSae, baselines::VaeVariant::kVsae}) {
    baselines::SeqVaeConfig cfg;
    cfg.variant = v;
    cfg.epochs = 1;
    cfg.max_train_trajs = 1200;
    out.push_back(std::make_unique<baselines::SeqVaeDetector>(net, cfg));
  }
  out.push_back(std::make_unique<baselines::CtssDetector>(net));
  return out;
}

/// Evaluates a label-producing callback with the paper's grouped metrics.
template <typename DetectFn>
eval::GroupedScores Evaluate(const traj::Dataset& test, DetectFn&& fn) {
  return eval::EvaluateGrouped(test, std::forward<DetectFn>(fn));
}

/// A labeled development set for baseline threshold tuning (paper: 100
/// trajectories with manual labels).
inline traj::Dataset DevSet(const traj::Dataset& test, size_t n = 100) {
  traj::Dataset dev;
  for (size_t i = 0; i < std::min(n, test.size()); ++i) dev.Add(test[i]);
  return dev;
}

}  // namespace rl4oasd::bench
