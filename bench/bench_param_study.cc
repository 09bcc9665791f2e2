// Parameter study (paper Section V-C / technical report): the effect of
// alpha (noisy-label threshold), delta (normal-route threshold) and D
// (delayed-labeling lookahead). Expected shape: a moderate setting of each
// is best. The optimum for the synthetic workload (alpha~0.1, delta~0.12)
// differs from the paper's 0.5/0.4 because the synthetic route-popularity
// profile differs (3 normal routes per pair at ~0.55/0.27/0.18).
#include <cstdio>

#include "bench_util.h"

using namespace rl4oasd;

namespace {

// A lighter model for the sweeps: alpha/delta changes require a full refit.
core::Rl4OasdConfig SweepConfig() {
  auto cfg = bench::TunedConfig();
  cfg.use_pretrained_embeddings = false;  // skip-gram dominates fit time
  cfg.pretrain_samples = 150;
  cfg.pretrain_epochs = 3;
  cfg.joint_samples = 100;
  return cfg;
}

double FitAndScore(const bench::CityData& city, core::Rl4OasdConfig cfg) {
  core::Rl4Oasd model(&city.net, cfg);
  model.Fit(city.train);
  return bench::Evaluate(city.test,
                         [&](const traj::MapMatchedTrajectory& t) {
                           return model.Detect(t);
                         })
      .overall.f1;
}

}  // namespace

int main() {
  printf("=== Parameter study: alpha, delta, D ===\n\n");
  auto city = bench::MakeChengduLike(28);

  printf("varying alpha (delta = 0.12, D = 4):\n%-8s %8s\n", "alpha", "F1");
  for (double alpha : {0.02, 0.05, 0.1, 0.2, 0.3, 0.5}) {
    auto cfg = SweepConfig();
    cfg.preprocess.alpha = alpha;
    printf("%-8.2f %8.3f\n", alpha, FitAndScore(city, cfg));
  }

  printf("\nvarying delta (alpha = 0.1, D = 4):\n%-8s %8s\n", "delta", "F1");
  for (double delta : {0.02, 0.06, 0.12, 0.2, 0.3, 0.4}) {
    auto cfg = SweepConfig();
    cfg.preprocess.delta = delta;
    printf("%-8.2f %8.3f\n", delta, FitAndScore(city, cfg));
  }

  printf("\nvarying D (alpha = 0.1, delta = 0.12):\n%-8s %8s\n", "D", "F1");
  {
    // D only affects post-processing: train once, re-detect per D.
    auto cfg = SweepConfig();
    for (int d : {0, 1, 2, 4, 8, 16}) {
      auto c = cfg;
      c.detector.delay_d = d;
      c.detector.use_dl = d > 0;
      printf("%-8d %8.3f\n", d, FitAndScore(city, c));
    }
  }
  return 0;
}
