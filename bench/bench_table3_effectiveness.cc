// Table III reproduction: effectiveness (F1 / TF1) of RL4OASD against the
// seven baselines, per trajectory-length group G1..G4 and overall, on both
// cities. The paper's shape: RL4OASD best everywhere, CTSS the strongest
// baseline, the VSAE family behind the task-specific methods. What this
// reproduction measures on the synthetic cities (default seeds, and at
// trajectory seeds 12-14 / 77-79): RL4OASD's F1 leads every baseline's, but
// IBOAT is the strongest baseline (its TF1 leads RL4OASD's in 5 of those 6
// city draws) and CTSS scores F1 0.06-0.09.
#include <cstdio>

#include "bench_util.h"
#include "common/stopwatch.h"

using namespace rl4oasd;

namespace {

void RunCity(bench::CityData city) {
  printf("--- %s (train=%zu test=%zu pairs=%zu) ---\n", city.name.c_str(),
         city.train.size(), city.test.size(), city.train.NumSdPairs());
  printf("%-22s  %-11s  %-11s  %-11s  %-11s  | %-11s\n", "Method",
         "G1 F1 TF1", "G2 F1 TF1", "G3 F1 TF1", "G4 F1 TF1", "Overall");

  const auto dev = bench::DevSet(city.test);

  for (auto& baseline : bench::MakeBaselines(&city.net)) {
    Stopwatch sw;
    baseline->Fit(city.train);
    baseline->Tune(dev);
    const auto scores = bench::Evaluate(
        city.test,
        [&](const traj::MapMatchedTrajectory& t) { return baseline->Detect(t); });
    printf("%s   [fit %.1fs]\n",
           eval::FormatGroupedRow(baseline->name(), scores).c_str(),
           sw.ElapsedSeconds());
  }

  Stopwatch sw;
  core::Rl4Oasd model(&city.net, bench::TunedConfig());
  model.Fit(city.train);
  const auto scores = bench::Evaluate(
      city.test,
      [&](const traj::MapMatchedTrajectory& t) { return model.Detect(t); });
  printf("%s   [fit %.1fs]\n",
         eval::FormatGroupedRow("RL4OASD", scores).c_str(),
         sw.ElapsedSeconds());
  printf("\n");
}

}  // namespace

int main() {
  printf("=== Table III: effectiveness comparison (F1-score, TF1-score) ===\n\n");
  RunCity(bench::MakeChengduLike());
  RunCity(bench::MakeXianLike());
  return 0;
}
