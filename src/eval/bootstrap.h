// Percentile-bootstrap confidence intervals for the subtrajectory metrics.
// The paper reports point estimates only; on synthetic workloads with a few
// hundred test anomalies, an F1 difference of a few points can be noise, and
// these intervals say how wide that noise is.
//
// Resampling is at trajectory granularity (the exchangeable unit of the
// evaluation), with the metric recomputed per resample.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "eval/metrics.h"

namespace rl4oasd::eval {

/// A two-sided percentile interval around a point estimate.
struct BootstrapCi {
  double point = 0.0;  // metric on the full sample
  double lo = 0.0;     // lower percentile bound
  double hi = 0.0;     // upper percentile bound

  double width() const { return hi - lo; }
};

/// Accumulates per-trajectory (ground truth, prediction) label pairs and
/// bootstraps any of the Scores metrics over them.
class BootstrapEvaluator {
 public:
  /// `resamples` bootstrap draws at `confidence` (e.g. 0.95), seeded for
  /// reproducibility.
  explicit BootstrapEvaluator(int resamples = 1000, double confidence = 0.95,
                              uint64_t seed = 7);

  /// Accumulates one trajectory (vectors must be the same length).
  void Add(std::vector<uint8_t> ground_truth, std::vector<uint8_t> predicted);

  size_t size() const { return pairs_.size(); }

  /// Metric selector applied to each resample's Scores.
  using MetricFn = double (*)(const Scores&);

  /// CI for an arbitrary metric of Scores.
  BootstrapCi Ci(MetricFn metric) const;

  /// Convenience selectors for the headline metrics.
  BootstrapCi F1Ci() const;
  BootstrapCi Tf1Ci() const;

  /// Scores over the full (un-resampled) sample.
  Scores PointEstimate() const;

 private:
  struct LabelPair {
    std::vector<uint8_t> gt;
    std::vector<uint8_t> pred;
  };

  Scores ScoresOf(const std::vector<size_t>& indices) const;

  int resamples_;
  double confidence_;
  uint64_t seed_;
  std::vector<LabelPair> pairs_;
};

}  // namespace rl4oasd::eval
