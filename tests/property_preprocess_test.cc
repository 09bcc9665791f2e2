// Property-based tests for the preprocessing component (paper Section IV-B):
// transition-fraction bounds, noisy-label/threshold consistency, incremental
// Update vs batch Fit equivalence, and snapshot round trips — swept over
// generator seeds.
#include <gtest/gtest.h>

#include "core/preprocess.h"
#include "test_util.h"

namespace rl4oasd::core {
namespace {

class PreprocessProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  PreprocessProperty()
      : net_(rl4oasd::testing::SmallGrid()),
        dataset_(rl4oasd::testing::SmallDataset(net_, 4, 0.1, GetParam())) {}

  roadnet::RoadNetwork net_;
  traj::Dataset dataset_;
};

TEST_P(PreprocessProperty, FractionsAreProbabilities) {
  Preprocessor pre;
  pre.Fit(dataset_);
  for (size_t i = 0; i < std::min<size_t>(dataset_.size(), 100); ++i) {
    const auto& t = dataset_[i].traj;
    const auto fractions = pre.TransitionFractions(t);
    ASSERT_EQ(fractions.size(), t.edges.size());
    for (double f : fractions) {
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, 1.0 + 1e-12);
    }
    // Paper Step-3: source and destination fractions are defined to be 1.
    EXPECT_DOUBLE_EQ(fractions.front(), 1.0);
    EXPECT_DOUBLE_EQ(fractions.back(), 1.0);
    // Every observed transition was ingested, so interior fractions of a
    // trajectory that is itself in the corpus are strictly positive.
    for (size_t k = 1; k + 1 < fractions.size(); ++k) {
      EXPECT_GT(fractions[k], 0.0);
    }
  }
}

TEST_P(PreprocessProperty, NoisyLabelsMatchAlphaThreshold) {
  PreprocessConfig cfg;
  cfg.alpha = 0.35;
  Preprocessor pre(cfg);
  pre.Fit(dataset_);
  for (size_t i = 0; i < std::min<size_t>(dataset_.size(), 100); ++i) {
    const auto& t = dataset_[i].traj;
    const auto fractions = pre.TransitionFractions(t);
    const auto labels = pre.NoisyLabels(t);
    ASSERT_EQ(labels.size(), fractions.size());
    for (size_t k = 0; k < labels.size(); ++k) {
      EXPECT_EQ(labels[k], fractions[k] <= cfg.alpha ? 1 : 0)
          << "position " << k << " fraction " << fractions[k];
    }
  }
}

TEST_P(PreprocessProperty, NormalRouteFeatureEndpointsAlwaysNormal) {
  Preprocessor pre;
  pre.Fit(dataset_);
  for (size_t i = 0; i < std::min<size_t>(dataset_.size(), 100); ++i) {
    const auto nrf = pre.NormalRouteFeatures(dataset_[i].traj);
    EXPECT_EQ(nrf.front(), 0);
    EXPECT_EQ(nrf.back(), 0);
  }
}

TEST_P(PreprocessProperty, IncrementalUpdateEqualsBatchFit) {
  // Fit on the first half then Update with the second half must equal a
  // single Fit over everything, for every queryable statistic.
  traj::Dataset first_half, second_half;
  for (size_t i = 0; i < dataset_.size(); ++i) {
    (i % 2 == 0 ? first_half : second_half).Add(dataset_[i]);
  }

  Preprocessor incremental;
  incremental.Fit(first_half);
  for (const auto& lt : second_half.trajs()) {
    incremental.Update(lt.traj);
  }

  Preprocessor batch;
  batch.Fit(dataset_);

  EXPECT_EQ(incremental.NumGroups(), batch.NumGroups());
  for (size_t i = 0; i < std::min<size_t>(dataset_.size(), 60); ++i) {
    const auto& t = dataset_[i].traj;
    EXPECT_EQ(incremental.TransitionFractions(t),
              batch.TransitionFractions(t));
    EXPECT_EQ(incremental.NoisyLabels(t), batch.NoisyLabels(t));
    EXPECT_EQ(incremental.NormalRouteFeatures(t),
              batch.NormalRouteFeatures(t));
  }
}

TEST_P(PreprocessProperty, SnapshotRoundTripPreservesAllQueries) {
  Preprocessor pre;
  pre.Fit(dataset_);
  const auto snaps = pre.ExportState();

  Preprocessor restored;
  restored.ImportState(snaps);

  EXPECT_EQ(restored.NumGroups(), pre.NumGroups());
  for (size_t i = 0; i < std::min<size_t>(dataset_.size(), 60); ++i) {
    const auto& t = dataset_[i].traj;
    EXPECT_EQ(restored.TransitionFractions(t), pre.TransitionFractions(t));
    EXPECT_EQ(restored.NoisyLabels(t), pre.NoisyLabels(t));
    EXPECT_EQ(restored.NormalRouteFeatures(t), pre.NormalRouteFeatures(t));
  }
}

TEST_P(PreprocessProperty, ExportStateIsDeterministic) {
  Preprocessor pre;
  pre.Fit(dataset_);
  const auto a = pre.ExportState();
  const auto b = pre.ExportState();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sd, b[i].sd);
    EXPECT_EQ(a[i].slot, b[i].slot);
    EXPECT_EQ(a[i].num_trajs, b[i].num_trajs);
    EXPECT_EQ(a[i].transitions, b[i].transitions);
    EXPECT_EQ(a[i].routes, b[i].routes);
  }
}

TEST_P(PreprocessProperty, UnknownSdPairIsConservative) {
  Preprocessor pre;
  pre.Fit(dataset_);
  // A trajectory whose SD pair never occurred: fractions must degrade to
  // 0 (unknown transitions), endpoints stay 1, NRF flags interior segments.
  traj::MapMatchedTrajectory ghost;
  ghost.edges = {static_cast<traj::EdgeId>(net_.NumEdges() - 1),
                 static_cast<traj::EdgeId>(net_.NumEdges() - 2),
                 static_cast<traj::EdgeId>(net_.NumEdges() - 3)};
  ghost.start_time = 12 * 3600.0;
  const auto fractions = pre.TransitionFractions(ghost);
  EXPECT_DOUBLE_EQ(fractions.front(), 1.0);
  EXPECT_DOUBLE_EQ(fractions.back(), 1.0);
  EXPECT_DOUBLE_EQ(fractions[1], 0.0);
  EXPECT_FALSE(
      pre.EdgeOnNormalRouteAt(ghost.sd(), ghost.start_time, ghost.edges[1]));
}

TEST_P(PreprocessProperty, EveryUpdateIsVisibleToTheNextQuery) {
  // Update rebuilds the normal-route sets of the groups it touched before
  // returning (const queries never rebuild anything, so concurrent readers
  // only read): after each single Update, the normal-route answers equal a
  // fresh Fit over everything ingested so far. The second config lets
  // slot groups cross min_slot_support mid-stream, where queries switch
  // from the SD pair's aggregate to the slot group's own sets.
  for (const int64_t min_support : {PreprocessConfig{}.min_slot_support,
                                    int64_t{2}}) {
    PreprocessConfig cfg;
    cfg.min_slot_support = min_support;
    traj::Dataset seen, rest;
    for (size_t i = 0; i < dataset_.size(); ++i) {
      (i % 2 == 0 ? seen : rest).Add(dataset_[i]);
    }
    Preprocessor incremental(cfg);
    incremental.Fit(seen);
    for (size_t i = 0; i < std::min<size_t>(rest.size(), 40); ++i) {
      const auto& t = rest[i].traj;
      incremental.Update(t);
      seen.Add(rest[i]);
      Preprocessor refit(cfg);
      refit.Fit(seen);
      EXPECT_EQ(incremental.NormalRouteFeatures(t),
                refit.NormalRouteFeatures(t))
          << "min_slot_support " << min_support << " update " << i;
      for (const traj::EdgeId e : t.edges) {
        EXPECT_EQ(incremental.EdgeOnNormalRouteAt(t.sd(), t.start_time, e),
                  refit.EdgeOnNormalRouteAt(t.sd(), t.start_time, e));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreprocessProperty,
                         ::testing::Values(uint64_t{10}, uint64_t{20},
                                           uint64_t{31}));

}  // namespace
}  // namespace rl4oasd::core
