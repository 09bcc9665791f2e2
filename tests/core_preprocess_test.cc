// Preprocessor tests, anchored on the paper's Figure 1 worked example
// (Section IV-B/IV-C): transition fractions, noisy labels with alpha, and
// normal route features with delta must match the numbers in the paper.
#include "core/preprocess.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/feature_cache.h"

#include "test_util.h"

namespace rl4oasd::core {
namespace {

using ::rl4oasd::testing::Figure1Example;
using ::rl4oasd::testing::MakeFigure1Example;

class PreprocessFigure1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = MakeFigure1Example();
    PreprocessConfig cfg;
    cfg.alpha = 0.5;
    cfg.delta = 0.3;
    pre_ = std::make_unique<Preprocessor>(cfg);
    pre_->Fit(ex_.dataset);
  }

  traj::MapMatchedTrajectory T3() const {
    traj::MapMatchedTrajectory t;
    t.id = 100;
    t.start_time = 9 * 3600.0 + 1800.0;
    t.edges = ex_.t3;
    return t;
  }

  Figure1Example ex_;
  std::unique_ptr<Preprocessor> pre_;
};

TEST_F(PreprocessFigure1Test, TransitionFractionsMatchPaper) {
  // Paper: fraction sequence of T3 is <1.0, 0.5, 0.5, 0.1, 0.1, 0.1, 0.1,
  // 0.1, 1.0>.
  const auto fractions = pre_->TransitionFractions(T3());
  const std::vector<double> expected = {1.0, 0.5, 0.5, 0.1, 0.1,
                                        0.1, 0.1, 0.1, 1.0};
  ASSERT_EQ(fractions.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(fractions[i], expected[i], 1e-9) << "position " << i;
  }
}

TEST_F(PreprocessFigure1Test, NoisyLabelsMatchPaper) {
  // Paper: with alpha = 0.5 the noisy labels of T3 are <0,1,1,1,1,1,1,1,0>.
  const auto labels = pre_->NoisyLabels(T3());
  const std::vector<uint8_t> expected = {0, 1, 1, 1, 1, 1, 1, 1, 0};
  EXPECT_EQ(labels, expected);
}

TEST_F(PreprocessFigure1Test, NormalRouteFeaturesMatchPaper) {
  // Paper: with delta = 0.3, T1 (0.5) and T2 (0.4) are normal routes and the
  // extracted features of T3 are <0,0,0,1,1,1,1,1,0> (e2 and e4 are normal
  // because their incoming transitions occur on T2).
  const auto nrf = pre_->NormalRouteFeatures(T3());
  const std::vector<uint8_t> expected = {0, 0, 0, 1, 1, 1, 1, 1, 0};
  EXPECT_EQ(nrf, expected);
}

TEST_F(PreprocessFigure1Test, HigherDeltaExcludesT2) {
  // With delta = 0.45 only T1 (fraction 0.5) is normal, so the transitions
  // unique to T2 become anomalous features.
  PreprocessConfig cfg;
  cfg.alpha = 0.5;
  cfg.delta = 0.45;
  Preprocessor pre(cfg);
  pre.Fit(ex_.dataset);
  const auto nrf = pre.NormalRouteFeatures(T3());
  // e2's incoming transition <e1,e2> only occurs on T2/T3 which are not
  // normal now.
  const std::vector<uint8_t> expected = {0, 1, 1, 1, 1, 1, 1, 1, 0};
  EXPECT_EQ(nrf, expected);
}

TEST_F(PreprocessFigure1Test, NormalRouteTrajectoryAllNormal) {
  traj::MapMatchedTrajectory t;
  t.start_time = 9 * 3600.0;
  t.edges = ex_.t1;
  const auto nrf = pre_->NormalRouteFeatures(t);
  EXPECT_EQ(nrf, std::vector<uint8_t>(ex_.t1.size(), 0));
  const auto labels = pre_->NoisyLabels(t);
  // T1 transitions all have fraction 0.5, not > 0.5, so interior segments
  // are noisily labeled 1 with alpha = 0.5 — noisy labels are noisy.
  EXPECT_EQ(labels.front(), 0);
  EXPECT_EQ(labels.back(), 0);
}

TEST_F(PreprocessFigure1Test, SlotFallback) {
  // A query in an unseen time slot falls back to the all-slot aggregate.
  traj::MapMatchedTrajectory t = T3();
  t.start_time = 3 * 3600.0;  // 03:00, no data in this slot
  const auto fractions = pre_->TransitionFractions(t);
  EXPECT_NEAR(fractions[1], 0.5, 1e-9);
}

TEST_F(PreprocessFigure1Test, UnknownSdPairGivesZeroFractions) {
  traj::MapMatchedTrajectory t;
  t.start_time = 9 * 3600.0;
  // A trajectory whose SD pair was never seen.
  t.edges = {ex_.e["e2"], ex_.e["e4"], ex_.e["e7"]};
  const auto fractions = pre_->TransitionFractions(t);
  EXPECT_EQ(fractions.front(), 1.0);  // source defined as 1.0
  EXPECT_EQ(fractions.back(), 1.0);   // destination defined as 1.0
  EXPECT_EQ(fractions[1], 0.0);
}

TEST_F(PreprocessFigure1Test, StreamingApiMatchesBatch) {
  const auto t = T3();
  const auto nrf = pre_->NormalRouteFeatures(t);
  const auto fractions = pre_->TransitionFractions(t);
  for (size_t i = 1; i + 1 < t.edges.size(); ++i) {
    EXPECT_EQ(pre_->NormalRouteFeatureAt(t.sd(), t.start_time,
                                         t.edges[i - 1], t.edges[i]),
              nrf[i]);
    EXPECT_NEAR(pre_->TransitionFractionAt(t.sd(), t.start_time,
                                           t.edges[i - 1], t.edges[i]),
                fractions[i], 1e-12);
  }
}

TEST_F(PreprocessFigure1Test, UpdateShiftsFractions) {
  // Online learning: adding more T3-like trajectories raises the fraction of
  // the detour transitions.
  Preprocessor pre(PreprocessConfig{});
  pre.Fit(ex_.dataset);
  traj::MapMatchedTrajectory t = T3();
  const double before =
      pre.TransitionFractionAt(t.sd(), t.start_time, ex_.e["e4"],
                               ex_.e["e11"]);
  for (int i = 0; i < 10; ++i) {
    traj::MapMatchedTrajectory extra = t;
    extra.id = 1000 + i;
    pre.Update(extra);
  }
  const double after = pre.TransitionFractionAt(t.sd(), t.start_time,
                                                ex_.e["e4"], ex_.e["e11"]);
  EXPECT_GT(after, before);
}

TEST(PreprocessTest, NumGroupsCountsSlots) {
  auto ex = MakeFigure1Example();
  Preprocessor pre(PreprocessConfig{});
  pre.Fit(ex.dataset);
  // All trajectories share one SD pair and one time slot.
  EXPECT_EQ(pre.NumGroups(), 1u);
}

TEST(PreprocessTest, StatsGenerationAdvancesOnEveryMutation) {
  auto ex = MakeFigure1Example();
  Preprocessor pre(PreprocessConfig{});
  const uint64_t g0 = pre.stats_generation();
  pre.Fit(ex.dataset);
  const uint64_t g1 = pre.stats_generation();
  EXPECT_GT(g1, g0);
  traj::MapMatchedTrajectory t;
  t.id = 7;
  t.start_time = 9 * 3600.0;
  t.edges = ex.t3;
  pre.Update(t);
  EXPECT_GT(pre.stats_generation(), g1);
  const uint64_t g2 = pre.stats_generation();
  pre.ImportState(pre.ExportState());
  EXPECT_GT(pre.stats_generation(), g2);
}

TEST(FeatureCacheTest, ReturnsCachedValuesAndInvalidatesOnDrift) {
  auto ex = MakeFigure1Example();
  PreprocessConfig cfg;
  cfg.alpha = 0.5;
  cfg.delta = 0.3;
  Preprocessor pre(cfg);
  pre.Fit(ex.dataset);
  FeatureCache cache(&pre);

  traj::MapMatchedTrajectory t;
  t.id = 100;
  t.start_time = 9 * 3600.0 + 1800.0;
  t.edges = ex.t3;

  // Cached results match direct computation, and repeated lookups return
  // the same storage (no recompute).
  const auto& noisy = cache.NoisyLabels(t);
  const auto& nrf = cache.NormalRouteFeatures(t);
  EXPECT_EQ(noisy, pre.NoisyLabels(t));
  EXPECT_EQ(nrf, pre.NormalRouteFeatures(t));
  EXPECT_EQ(&cache.NoisyLabels(t), &noisy);
  EXPECT_EQ(&cache.NormalRouteFeatures(t), &nrf);
  EXPECT_EQ(cache.size(), 1u);

  // Drift: shift the popular transition mass so the statistics (and with
  // them the noisy labels) move. The generation bump must invalidate the
  // cached entry and re-derive from the new statistics.
  const auto before = noisy;
  for (int i = 0; i < 60; ++i) {
    traj::MapMatchedTrajectory extra;
    extra.id = 1000 + i;
    extra.start_time = t.start_time;
    extra.edges = ex.t3;
    pre.Update(extra);
  }
  EXPECT_EQ(cache.NoisyLabels(t), pre.NoisyLabels(t));
  EXPECT_NE(cache.NoisyLabels(t), before)
      << "drifted statistics should change the labels in this setup";

  // A different trajectory object at the same generation gets its own
  // entry; the first entry's storage is untouched.
  traj::MapMatchedTrajectory other = t;
  other.id = 101;
  (void)cache.NoisyLabels(other);
  EXPECT_EQ(cache.size(), 2u);
}

void ExpectSameState(const std::vector<GroupSnapshot>& got,
                     const std::vector<GroupSnapshot>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].sd, want[i].sd) << "group " << i;
    EXPECT_EQ(got[i].slot, want[i].slot) << "group " << i;
    EXPECT_EQ(got[i].num_trajs, want[i].num_trajs) << "group " << i;
    EXPECT_EQ(got[i].transitions, want[i].transitions) << "group " << i;
    EXPECT_EQ(got[i].routes, want[i].routes) << "group " << i;
  }
}

/// Every query answers alike, on every trajectory and every edge it visits.
void ExpectSameQueries(const Preprocessor& got, const Preprocessor& want,
                       const traj::Dataset& data) {
  EXPECT_EQ(got.NumGroups(), want.NumGroups());
  for (const auto& lt : data.trajs()) {
    const auto& t = lt.traj;
    EXPECT_EQ(got.TransitionFractions(t), want.TransitionFractions(t));
    EXPECT_EQ(got.NoisyLabels(t), want.NoisyLabels(t));
    EXPECT_EQ(got.NormalRouteFeatures(t), want.NormalRouteFeatures(t));
    for (const traj::EdgeId e : t.edges) {
      EXPECT_EQ(got.EdgeOnNormalRouteAt(t.sd(), t.start_time, e),
                want.EdgeOnNormalRouteAt(t.sd(), t.start_time, e));
    }
  }
}

// Two configs: the default, whose sparse slot groups defer to their SD
// pair's aggregate, and one where every slot group keeps its own sets.
std::vector<PreprocessConfig> StateConfigs() {
  PreprocessConfig dense;
  dense.min_slot_support = 3;
  return {PreprocessConfig{}, dense};
}

// A served model's statistics come from ImportState of a bundle's
// snapshots; exporting them again gives back exactly those snapshots.
TEST(PreprocessStateTest, ImportOfExportRoundTripsExactly) {
  const auto net = rl4oasd::testing::SmallGrid();
  const auto data = rl4oasd::testing::SmallDataset(net, 4, 0.1, 3);
  for (const PreprocessConfig& cfg : StateConfigs()) {
    Preprocessor pre(cfg);
    pre.Fit(data);
    const auto snaps = pre.ExportState();
    Preprocessor restored(cfg);
    restored.ImportState(snaps);
    ExpectSameState(restored.ExportState(), snaps);
    ExpectSameQueries(restored, pre, data);
  }
}

// The drift loop fine-tunes a loaded model: Update after ImportState must
// land where one Fit over the union does.
TEST(PreprocessStateTest, UpdateAfterImportEqualsFitOverTheUnion) {
  const auto net = rl4oasd::testing::SmallGrid();
  const auto data = rl4oasd::testing::SmallDataset(net, 4, 0.1, 5);
  traj::Dataset first, second;
  for (size_t i = 0; i < data.size(); ++i) {
    (i % 3 == 0 ? second : first).Add(data[i]);
  }
  for (const PreprocessConfig& cfg : StateConfigs()) {
    Preprocessor fitted(cfg);
    fitted.Fit(first);
    Preprocessor updated(cfg);
    updated.ImportState(fitted.ExportState());
    for (const auto& lt : second.trajs()) updated.Update(lt.traj);
    Preprocessor batch(cfg);
    batch.Fit(data);
    ExpectSameState(updated.ExportState(), batch.ExportState());
    ExpectSameQueries(updated, batch, data);
  }
}

// A bundle file is outside input: keys out of order, or repeated within
// and across snapshots of one group, import sorted with the first count of
// each key kept.
TEST(PreprocessStateTest, ImportSortsKeysAndKeepsTheFirstOfARepeat) {
  auto ex = MakeFigure1Example();
  Preprocessor pre(PreprocessConfig{});
  pre.Fit(ex.dataset);
  const auto snaps = pre.ExportState();
  ASSERT_EQ(snaps.size(), 2u);  // the slot group and the aggregate
  auto shuffled = snaps;
  for (GroupSnapshot& s : shuffled) {
    ASSERT_GE(s.transitions.size(), 2u);
    ASSERT_GE(s.routes.size(), 2u);
    std::reverse(s.transitions.begin(), s.transitions.end());
    std::reverse(s.routes.begin(), s.routes.end());
    s.transitions.push_back({s.transitions[0].first, 1000});
  }
  // A second snapshot of the first group repeats a route with another count.
  GroupSnapshot repeat = shuffled[0];
  repeat.transitions.clear();
  repeat.routes = {{snaps[0].routes[0].first, 1000}};
  shuffled.push_back(repeat);
  Preprocessor restored(PreprocessConfig{});
  restored.ImportState(shuffled);
  ExpectSameState(restored.ExportState(), snaps);
  ExpectSameQueries(restored, pre, ex.dataset);
}

TEST(PreprocessTest, TimeSlots) {
  EXPECT_EQ(traj::NumTimeSlots(1), 24);
  EXPECT_EQ(traj::NumTimeSlots(3), 8);
  EXPECT_EQ(traj::TimeSlotOf(0.0, 1), 0);
  EXPECT_EQ(traj::TimeSlotOf(9.5 * 3600, 1), 9);
  EXPECT_EQ(traj::TimeSlotOf(23.9 * 3600, 1), 23);
  EXPECT_EQ(traj::TimeSlotOf(86399.0, 3), 7);
  // Out-of-range times clamp.
  EXPECT_EQ(traj::TimeSlotOf(90000.0, 1), 23);
  EXPECT_EQ(traj::TimeSlotOf(-5.0, 1), 0);
}

}  // namespace
}  // namespace rl4oasd::core
