// The map-matching exactness contracts, enforced over randomized cities,
// noise levels, gap patterns, and matcher configs:
//   1. Golden output: Match() on every trip of the sweep equals
//      tests/data/golden_mapmatch_sweep.txt, which the seed-era reference
//      kernel (a fresh hash-map Dijkstra per (layer, candidate) and the
//      seed's query shape) wrote before it was deleted. Over its 2,303
//      lattice layers the sweep restarts 12 segments and takes 117 layers
//      through the live-Dijkstra fallback, at radii 40-100 m and candidate
//      caps 2-8.
//   2. Streaming == batch: feeding fixes one at a time and calling Finish()
//      is bit-identical to batch Match() — including mid-stream decodes
//      against the matching prefix trajectory.
//   3. MatchBatch is thread-count invariant: any worker count produces the
//      same per-index results as sequential Match().
// This file carries the `concurrency` ctest label so TSAN exercises the
// MatchBatch sharding.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "golden_file.h"
#include "mapmatch/hmm_matcher.h"
#include "mapmatch/streaming_matcher.h"
#include "test_util.h"
#include "traj/gps_sampler.h"

namespace rl4oasd::mapmatch {
namespace {

using ::rl4oasd::testing::ExpectMatchesGoldenFile;
using ::rl4oasd::testing::SmallDataset;
using ::rl4oasd::testing::SmallGrid;

struct EquivCase {
  uint64_t seed;
  double noise_m;
  double dropout;
  double radius_m;
  size_t max_cands;
};

std::ostream& operator<<(std::ostream& os, const EquivCase& c) {
  return os << "seed" << c.seed << "_noise" << c.noise_m << "_drop"
            << c.dropout << "_r" << c.radius_m << "_k" << c.max_cands;
}

/// The sweep: cities, noise levels, dropout rates, candidate radii and caps.
const EquivCase kSweep[] = {
    {3, 15.0, 0.0, 60.0, 6},  {3, 40.0, 0.15, 60.0, 6},
    {11, 15.0, 0.3, 40.0, 2}, {11, 35.0, 0.0, 100.0, 8},
    {19, 25.0, 0.1, 80.0, 4},
};

std::string CaseName(const EquivCase& c) {
  return "seed" + std::to_string(c.seed) + "_noise" +
         std::to_string(static_cast<int>(c.noise_m)) + "_drop" +
         std::to_string(static_cast<int>(c.dropout * 100)) + "_r" +
         std::to_string(static_cast<int>(c.radius_m)) + "_k" +
         std::to_string(c.max_cands);
}

constexpr const char* kSweepGoldenPath =
    RL4OASD_TEST_DATA_DIR "/golden_mapmatch_sweep.txt";

/// Raw trajectories sampled under the case's noise and dropout pattern.
std::vector<traj::RawTrajectory> SampleCase(const roadnet::RoadNetwork& net,
                                            const EquivCase& c,
                                            size_t limit) {
  const auto ds = SmallDataset(net, 2, 0.1, c.seed + 1);
  traj::GpsSamplerConfig gps;
  gps.noise_sigma_m = c.noise_m;
  gps.dropout_prob = c.dropout;
  traj::GpsSampler sampler(&net, gps, c.seed + 2);
  std::vector<traj::RawTrajectory> raws;
  for (size_t i = 0; i < std::min(ds.size(), limit); ++i) {
    auto raw = sampler.Sample(ds[i].traj);
    if (!raw.points.empty()) raws.push_back(std::move(raw));
  }
  return raws;
}

HmmMapMatcher MakeMatcher(const roadnet::RoadNetwork& net,
                          const EquivCase& c) {
  HmmConfig cfg;
  cfg.candidate_radius_m = c.radius_m;
  cfg.max_candidates = c.max_cands;
  cfg.gps_sigma_m = std::max(10.0, c.noise_m);
  return HmmMapMatcher(&net, cfg);
}

void ExpectSameResult(const Result<traj::MapMatchedTrajectory>& a,
                      const Result<traj::MapMatchedTrajectory>& b) {
  ASSERT_EQ(a.ok(), b.ok())
      << a.status().ToString() << " vs " << b.status().ToString();
  if (!a.ok()) {
    EXPECT_EQ(a.status().code(), b.status().code());
    return;
  }
  EXPECT_EQ(a->id, b->id);
  EXPECT_EQ(a->edges, b->edges);
  EXPECT_EQ(a->start_time, b->start_time);  // exact: bit-identity contract
}

class MapMatchEquiv : public ::testing::TestWithParam<EquivCase> {};

TEST_P(MapMatchEquiv, StreamingFinishBitIdenticalToBatch) {
  const EquivCase c = GetParam();
  const auto net = SmallGrid(c.seed);
  const auto matcher = MakeMatcher(net, c);
  const auto raws = SampleCase(net, c, 6);
  ASSERT_FALSE(raws.empty());
  StreamingMatcher stream(&matcher);
  for (const auto& raw : raws) {
    stream.Reset(raw.id);
    const size_t half = raw.points.size() / 2;
    for (size_t i = 0; i < raw.points.size(); ++i) {
      stream.MatchPoint(raw.points[i]);
      if (i + 1 == half) {
        // Mid-stream decode equals batch-matching the prefix, and must not
        // disturb the stream (Finish is non-destructive).
        traj::RawTrajectory prefix;
        prefix.id = raw.id;
        prefix.points.assign(raw.points.begin(), raw.points.begin() + half);
        ExpectSameResult(stream.Finish(), matcher.Match(prefix));
      }
    }
    ExpectSameResult(stream.Finish(), matcher.Match(raw));

    // Segment-level bit-identity as well.
    auto stream_pieces = stream.FinishSegments();
    auto batch_pieces = matcher.MatchSegments(raw);
    ASSERT_EQ(stream_pieces.ok(), batch_pieces.ok());
    if (stream_pieces.ok()) {
      ASSERT_EQ(stream_pieces->size(), batch_pieces->size());
      for (size_t i = 0; i < stream_pieces->size(); ++i) {
        EXPECT_EQ((*stream_pieces)[i].edges, (*batch_pieces)[i].edges);
        EXPECT_EQ((*stream_pieces)[i].start_time,
                  (*batch_pieces)[i].start_time);
      }
    }
  }
}

TEST_P(MapMatchEquiv, MatchBatchIsThreadCountInvariant) {
  const EquivCase c = GetParam();
  const auto net = SmallGrid(c.seed);
  const auto matcher = MakeMatcher(net, c);
  const auto raws = SampleCase(net, c, 12);
  ASSERT_FALSE(raws.empty());
  const auto sequential = matcher.MatchBatch(raws, 1);
  ASSERT_EQ(sequential.size(), raws.size());
  for (int threads : {2, 4}) {
    const auto parallel = matcher.MatchBatch(raws, threads);
    ASSERT_EQ(parallel.size(), raws.size());
    for (size_t i = 0; i < raws.size(); ++i) {
      ExpectSameResult(parallel[i], sequential[i]);
    }
  }
  // And per-index identity with plain Match().
  for (size_t i = 0; i < raws.size(); ++i) {
    ExpectSameResult(sequential[i], matcher.Match(raws[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MapMatchEquiv, ::testing::ValuesIn(kSweep),
                         [](const auto& info) { return CaseName(info.param); });

// The sweep's matched trips, pinned in tests/data/golden_mapmatch_sweep.txt:
// one line per trip, "<case> <id> <start_time> <edge> <edge> ...", or
// "<case> <id> error <status code>" when nothing matched.
TEST(MapMatchEquivGolden, SweepMatchesGoldenFile) {
  std::ostringstream rendered;
  char start[32];
  for (const EquivCase& c : kSweep) {
    const auto net = SmallGrid(c.seed);
    const auto matcher = MakeMatcher(net, c);
    HmmMapMatcher::Scratch scratch;
    for (const auto& raw : SampleCase(net, c, 8)) {
      const auto matched = matcher.Match(raw, &scratch);
      rendered << CaseName(c) << " " << raw.id;
      if (!matched.ok()) {
        rendered << " error " << static_cast<int>(matched.status().code())
                 << "\n";
        continue;
      }
      std::snprintf(start, sizeof(start), "%.17g", matched->start_time);
      rendered << " " << start;
      for (traj::EdgeId e : matched->edges) rendered << " " << e;
      rendered << "\n";
    }
  }
  ExpectMatchesGoldenFile(kSweepGoldenPath, rendered.str());
}

}  // namespace
}  // namespace rl4oasd::mapmatch
