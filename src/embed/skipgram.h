// Road-segment representation learning: substitute for Toast (Chen et al.
// 2021). RL4OASD only needs traffic-context-aware vectors to warm-start
// RSRNet's embedding layer; we learn them with skip-gram + negative sampling
// over two corpora that carry the same signal Toast uses:
//   * observed trajectory transitions (travel semantics), and
//   * random walks on the road graph (network topology),
// plus an auxiliary linear head predicting each segment's road class and
// speed class (traffic context), trained jointly.
#pragma once

#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"
#include "roadnet/road_network.h"
#include "traj/dataset.h"

namespace rl4oasd::embed {

/// The trainer's hyperparameters. The vector width is the caller's: Fit
/// trains at RSRNet's embed_dim, the width the rows must load into.
struct SkipGramConfig {
  int window = 4;
  int negatives = 5;
  int epochs = 2;
  double lr = 0.025;
  double min_lr = 0.0005;
  int random_walks_per_edge = 2;
  int walk_length = 20;
  // Weight of the road-attribute auxiliary loss. Kept small: most edges in
  // a city share a road class, so a strong pull toward per-class centroids
  // collapses all vectors onto one direction.
  double aux_weight = 0.005;
  uint64_t seed = 31;
};

/// Trains road-segment embeddings; the result is a NumEdges x dim matrix
/// whose rows initialize RSRNet's TCF embedding layer.
class SkipGramTrainer {
 public:
  SkipGramTrainer(const roadnet::RoadNetwork* net, size_t dim,
                  SkipGramConfig config);

  /// Trains on the dataset's trajectories plus random walks. Returns the
  /// input-vector table.
  nn::Matrix Train(const traj::Dataset& dataset);

 private:
  /// Builds the training corpus: trajectory edge sequences + random walks.
  std::vector<std::vector<roadnet::EdgeId>> BuildCorpus(
      const traj::Dataset& dataset);

  /// Auxiliary step: nudge the center vector toward predicting its road
  /// class (3-way softmax).
  void UpdateAux(roadnet::EdgeId center, double lr);

  const roadnet::RoadNetwork* net_;
  size_t dim_;
  SkipGramConfig config_;
  Rng rng_;
  nn::Matrix in_;    // NumEdges x dim
  nn::Matrix out_;   // NumEdges x dim
  nn::Matrix aux_w_; // 3 x dim road-class head
  std::vector<double> unigram_;  // negative-sampling distribution (pow 0.75)
};

}  // namespace rl4oasd::embed
