// Figure 6 reproduction: detection under concept drift. The day is split
// into xi parts and route popularities rotate between parts (a popular
// route becomes congested and drivers shift). Compares
//   * RL4OASD-P1 — trained on Part 1 only, applied everywhere, vs
//   * RL4OASD-FT — trained on Part 1, fine-tuned part by part.
// Expected shape (paper): P1 degrades on the drifted parts; FT tracks them;
// per-part fine-tuning time is far below the part duration.
//
// Flags:
//   --adapt        closed-loop mode: instead of offline fine-tuning, stream
//                  the drift day through serve::DriftAdapter and measure
//                  the self-updating service end to end — trips/seconds to
//                  detect the change point, trips/seconds to retrain +
//                  shadow-gate + hot-swap, and the service F1 trajectory
//                  (pre-drift plateau, trough during the outage, recovered
//                  plateau).
//   --json <path>  with --adapt, additionally emit the machine-readable
//                  record CI uploads as a perf artifact.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "serve/drift.h"
#include "serve/fleet.h"

using namespace rl4oasd;

namespace {

struct DriftData {
  roadnet::RoadNetwork net;
  std::vector<traj::Dataset> parts;
};

DriftData MakeDriftData(int xi) {
  DriftData d;
  roadnet::GridCityConfig g;
  g.seed = 7;
  d.net = roadnet::BuildGridCity(g);
  traj::GeneratorConfig t;
  t.num_sd_pairs = 24;
  t.min_trajs_per_pair = 32 * xi >= 150 ? 150 : 32 * xi;  // enough per part
  t.max_trajs_per_pair = std::min(60 * xi, 400);
  t.anomaly_ratio = 0.05;
  t.drift_parts = xi;
  t.seed = 31;
  traj::TrajectoryGenerator gen(&d.net, t);
  const auto full = gen.Generate();
  d.parts.resize(xi);
  const double part_seconds = 86400.0 / xi;
  for (const auto& lt : full.trajs()) {
    int p = std::min(xi - 1,
                     static_cast<int>(lt.traj.start_time / part_seconds));
    d.parts[p].Add(lt);
  }
  return d;
}

double EvalOn(const core::Rl4Oasd& model, const traj::Dataset& part) {
  eval::F1Evaluator ev;
  for (const auto& lt : part.trajs()) {
    ev.Add(lt.labels, model.Detect(lt.traj));
  }
  return ev.Compute().f1;
}

core::Rl4OasdConfig FtModelConfig() {
  auto cfg = bench::TunedConfig();
  cfg.pretrain_samples = 150;
  cfg.pretrain_epochs = 3;
  cfg.joint_samples = 200;
  return cfg;
}

// ---------------------------------------------------------------------------
// Offline mode (the paper's figure): P1 vs part-by-part fine-tuning.

void RunOffline() {
  printf("=== Figure 6: detection under varying traffic conditions ===\n\n");

  // (a)+(b): vary xi, report mean F1 over parts for the fine-tuned model and
  // the mean per-part training time.
  printf("%-6s %12s %22s\n", "xi", "mean F1 (FT)", "mean finetune time (s)");
  for (int xi : {1, 2, 4, 8}) {
    auto data = MakeDriftData(xi);
    core::Rl4Oasd ft(&data.net, FtModelConfig());
    Stopwatch total;
    ft.Fit(data.parts[0]);
    double fit_time = total.ElapsedSeconds();
    double f1_sum = EvalOn(ft, data.parts[0]);
    double tune_time_sum = 0.0;
    for (int p = 1; p < xi; ++p) {
      Stopwatch sw;
      ft.FineTune(data.parts[p], 200);
      tune_time_sum += sw.ElapsedSeconds();
      f1_sum += EvalOn(ft, data.parts[p]);
    }
    printf("%-6d %12.3f %22.2f   (initial fit %.1fs)\n", xi, f1_sum / xi,
           xi > 1 ? tune_time_sum / (xi - 1) : 0.0, fit_time);
  }

  // (c): per-part F1, P1 vs FT, at xi = 4.
  printf("\nPer-part F1 (xi = 4):\n%-8s %12s %12s\n", "Part", "RL4OASD-P1",
         "RL4OASD-FT");
  auto data = MakeDriftData(4);
  core::Rl4Oasd p1(&data.net, FtModelConfig());
  p1.Fit(data.parts[0]);
  core::Rl4Oasd ft(&data.net, FtModelConfig());
  ft.Fit(data.parts[0]);
  for (int p = 0; p < 4; ++p) {
    if (p > 0) ft.FineTune(data.parts[p], 200);
    printf("Part %-3d %12.3f %12.3f\n", p + 1, EvalOn(p1, data.parts[p]),
           EvalOn(ft, data.parts[p]));
  }
}

// ---------------------------------------------------------------------------
// Closed-loop mode (--adapt): the self-updating service on the drift day.

/// Final service labels per vehicle (one unique vehicle per trip here).
class LabelSink : public serve::AlertSink {
 public:
  void OnAlert(const serve::Alert&) override {}
  void OnTripEnd(int64_t vid, const std::vector<uint8_t>& labels) override {
    finals[vid] = labels;
  }
  void OnTripEvicted(int64_t, double, const std::vector<uint8_t>&) override {}

  std::map<int64_t, std::vector<uint8_t>> finals;
};

struct AdaptResult {
  size_t part0_trips = 0;
  size_t part1_trips = 0;
  long long trips_to_detect = -1;   // part-1 trips finished when fired
  long long trips_to_recover = -1;  // part-1 trips finished at promotion
  double detect_wall_s = 0.0;       // wall time from first part-1 trip
  double recover_wall_s = 0.0;
  double cycle_wall_s = 0.0;  // slowest Poll == the retrain+gate cycle
  double f1_pre = 0.0;
  double f1_trough = 0.0;
  double f1_plateau = 0.0;
  serve::DriftStatus status;
};

/// The drift-scenario workload (mirrors tests/drift_recovery_scenario_test):
/// a compact city whose day part 1 rotates route popularities, calibrated so
/// the incumbent's service F1 drops sharply and a post-change fine-tune
/// restores it.
DriftData MakeAdaptData() {
  DriftData d;
  roadnet::GridCityConfig g;
  g.rows = 10;
  g.cols = 10;
  g.arterial_every = 3;
  g.removal_prob = 0.0;
  g.seed = 7;
  d.net = roadnet::BuildGridCity(g);
  traj::GeneratorConfig t;
  t.num_sd_pairs = 12;
  t.min_trajs_per_pair = 60;
  t.max_trajs_per_pair = 90;
  t.anomaly_ratio = 0.10;
  t.min_pair_dist_m = 800;
  t.max_pair_dist_m = 2500;
  t.min_route_edges = 8;
  t.drift_parts = 2;
  t.seed = 31;
  traj::TrajectoryGenerator gen(&d.net, t);
  const auto full = gen.Generate();
  d.parts.resize(2);
  for (const auto& lt : full.trajs()) {
    d.parts[lt.traj.start_time < 43200.0 ? 0 : 1].Add(lt);
  }
  return d;
}

core::Rl4OasdConfig AdaptModelConfig() {
  core::Rl4OasdConfig cfg;
  cfg.preprocess.alpha = 0.1;
  cfg.preprocess.delta = 0.12;
  cfg.detector.delay_d = 4;
  cfg.rsr.embed_dim = 16;
  cfg.rsr.nrf_dim = 16;
  cfg.rsr.hidden_dim = 16;
  cfg.asd.label_dim = 16;
  cfg.embedding.epochs = 1;
  cfg.embedding.random_walks_per_edge = 1;
  cfg.embedding.walk_length = 10;
  cfg.pretrain_samples = 200;
  cfg.pretrain_epochs = 4;
  cfg.joint_samples = 250;
  cfg.epochs_per_traj = 2;
  return cfg;
}

serve::DriftConfig AdaptDriftConfig() {
  serve::DriftConfig dc;
  dc.window_points = 400;
  dc.reference_windows = 2;
  dc.max_buffer_trips = 400;
  dc.min_buffer_trips = 250;
  dc.fine_tune_max_samples = 200;
  dc.shadow_trips = 48;
  dc.reject_backoff_points = 2048;
  dc.background = false;
  return dc;
}

std::vector<const traj::LabeledTrajectory*> Chronological(
    const traj::Dataset& part) {
  std::vector<const traj::LabeledTrajectory*> order;
  for (const auto& lt : part.trajs()) {
    if (lt.traj.edges.size() >= 2) order.push_back(&lt);
  }
  std::sort(order.begin(), order.end(),
            [](const traj::LabeledTrajectory* a,
               const traj::LabeledTrajectory* b) {
              return a->traj.start_time < b->traj.start_time;
            });
  return order;
}

double ServiceF1(const LabelSink& sink,
                 const std::map<int64_t, const traj::LabeledTrajectory*>& gt,
                 int64_t from_vid, int64_t to_vid) {
  eval::F1Evaluator ev;
  for (const auto& [vid, labels] : sink.finals) {
    if (vid < from_vid || vid >= to_vid) continue;
    ev.Add(gt.at(vid)->labels, labels);
  }
  return ev.Compute().f1;
}

AdaptResult RunAdapt() {
  auto data = MakeAdaptData();
  auto model =
      std::make_shared<core::Rl4Oasd>(&data.net, AdaptModelConfig());
  Stopwatch fit_sw;
  model->Fit(data.parts[0]);
  printf("initial fit: %.2fs (%zu part-0 trips)\n", fit_sw.ElapsedSeconds(),
         data.parts[0].size());

  LabelSink sink;
  serve::DriftAdapter adapter(&data.net, model, serve::FleetConfig{},
                              AdaptDriftConfig(), &sink);

  const auto order0 = Chronological(data.parts[0]);
  const auto order1 = Chronological(data.parts[1]);
  std::map<int64_t, const traj::LabeledTrajectory*> gt;
  for (size_t i = 0; i < order0.size(); ++i) {
    gt[static_cast<int64_t>(i)] = order0[i];
  }
  const int64_t base1 = static_cast<int64_t>(order0.size());
  for (size_t i = 0; i < order1.size(); ++i) {
    gt[base1 + static_cast<int64_t>(i)] = order1[i];
  }

  AdaptResult r;
  r.part0_trips = order0.size();
  r.part1_trips = order1.size();

  auto feed_one = [&](const traj::LabeledTrajectory* lt, int64_t vid) {
    auto* m = adapter.monitor();
    if (!m->StartTrip(vid, lt->traj.sd(), lt->traj.start_time).ok()) return;
    double ts = lt->traj.start_time;
    for (traj::EdgeId e : lt->traj.edges) m->Feed(vid, e, ts += 2.0);
    (void)m->EndTrip(vid);
    Stopwatch poll;
    adapter.Poll();
    r.cycle_wall_s = std::max(r.cycle_wall_s, poll.ElapsedSeconds());
  };

  for (size_t i = 0; i < order0.size(); ++i) {
    feed_one(order0[i], static_cast<int64_t>(i));
  }
  r.f1_pre = ServiceF1(sink, gt, 0, base1);

  Stopwatch drift_sw;
  for (size_t i = 0; i < order1.size(); ++i) {
    feed_one(order1[i], base1 + static_cast<int64_t>(i));
    const auto s = adapter.Status();
    if (r.trips_to_detect < 0 && s.drift_events > 0) {
      r.trips_to_detect = static_cast<long long>(i) + 1;
      r.detect_wall_s = drift_sw.ElapsedSeconds();
    }
    if (r.trips_to_recover < 0 && s.promotions > 0) {
      r.trips_to_recover = static_cast<long long>(i) + 1;
      r.recover_wall_s = drift_sw.ElapsedSeconds();
    }
  }
  r.status = adapter.Status();

  if (r.trips_to_detect >= 0 && r.trips_to_recover >= 0) {
    r.f1_trough = ServiceF1(sink, gt, base1 + r.trips_to_detect,
                            base1 + r.trips_to_recover);
    r.f1_plateau =
        ServiceF1(sink, gt, base1 + r.trips_to_recover,
                  base1 + static_cast<int64_t>(order1.size()));
  }
  return r;
}

void PrintAdapt(const AdaptResult& r) {
  printf("\n=== Figure 6, closed loop: self-updating service ===\n\n");
  printf("trips: part0=%zu part1=%zu\n", r.part0_trips, r.part1_trips);
  printf("%-28s %10lld trips  (%.3fs wall)\n", "time to detect",
         r.trips_to_detect, r.detect_wall_s);
  printf("%-28s %10lld trips  (%.3fs wall)\n", "time to recover (swap live)",
         r.trips_to_recover, r.recover_wall_s);
  printf("%-28s %10.3fs\n", "retrain+gate cycle", r.cycle_wall_s);
  printf("%-28s %10.3f\n", "F1 pre-drift plateau", r.f1_pre);
  printf("%-28s %10.3f\n", "F1 trough (during outage)", r.f1_trough);
  printf("%-28s %10.3f\n", "F1 recovered plateau", r.f1_plateau);
  printf("%-28s %10llu events, %llu cycles, %llu promoted, %llu rejected\n",
         "adaptation",
         static_cast<unsigned long long>(r.status.drift_events),
         static_cast<unsigned long long>(r.status.cycles_started),
         static_cast<unsigned long long>(r.status.promotions),
         static_cast<unsigned long long>(r.status.rejections));
  printf("%-28s %10llu (gate: live %.3f vs candidate %.3f)\n",
         "serving model generation",
         static_cast<unsigned long long>(r.status.model_generation),
         r.status.last_live_score, r.status.last_candidate_score);
}

void WriteAdaptJson(const std::string& path, const AdaptResult& r) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"fig6_concept_drift_adapt\",\n"
               "  \"part0_trips\": %zu, \"part1_trips\": %zu,\n"
               "  \"trips_to_detect\": %lld, \"detect_wall_s\": %.4f,\n"
               "  \"trips_to_recover\": %lld, \"recover_wall_s\": %.4f,\n"
               "  \"cycle_wall_s\": %.4f,\n"
               "  \"f1_pre\": %.4f, \"f1_trough\": %.4f, "
               "\"f1_plateau\": %.4f,\n"
               "  \"drift_events\": %llu, \"cycles\": %llu, "
               "\"promotions\": %llu, \"rejections\": %llu,\n"
               "  \"model_generation\": %llu\n}\n",
               r.part0_trips, r.part1_trips, r.trips_to_detect,
               r.detect_wall_s, r.trips_to_recover, r.recover_wall_s,
               r.cycle_wall_s, r.f1_pre, r.f1_trough, r.f1_plateau,
               static_cast<unsigned long long>(r.status.drift_events),
               static_cast<unsigned long long>(r.status.cycles_started),
               static_cast<unsigned long long>(r.status.promotions),
               static_cast<unsigned long long>(r.status.rejections),
               static_cast<unsigned long long>(r.status.model_generation));
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("bench_fig6_concept_drift",
                "Figure 6: detection under concept drift");
  flags.AddBool("adapt", false,
                "closed-loop mode: stream the drift day through "
                "serve::DriftAdapter and measure detect/recover times");
  flags.AddString("json", "",
                  "with --adapt, write the machine-readable record here");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 1;
  }
  if (flags.help_requested()) return 0;

  if (!flags.GetBool("adapt")) {
    RunOffline();
    return 0;
  }
  const AdaptResult r = RunAdapt();
  PrintAdapt(r);
  if (!flags.GetString("json").empty()) {
    WriteAdaptJson(flags.GetString("json"), r);
  }
  return 0;
}
