// oasd_train: trains an RL4OASD model on a generated workload and writes a
// serving-ready model bundle.
//
//   oasd_train --data-dir data --model data/model.rlmb
//
// The full pipeline runs: preprocessing (SD-pair/time-slot statistics, noisy
// labels), Toast-substitute embedding pre-training, RSRNet/ASDNet warm
// start, and iterative joint training (paper Section IV-E).
#include <cstdio>

#include "common/flags.h"
#include "common/stopwatch.h"
#include "core/rl4oasd.h"
#include "io/model_io.h"
#include "tools/tool_util.h"

namespace rl4oasd {
namespace {

int Main(int argc, char** argv) {
  FlagSet flags("oasd_train", "train an RL4OASD model bundle");
  flags.AddString("data-dir", "data",
                  "directory holding network.bin and train.bin "
                  "(see oasd_gen)");
  flags.AddString("network", "", "override path to the road network");
  flags.AddString("train", "", "override path to the training dataset");
  flags.AddString("model", "model.rlmb", "output model bundle path");
  flags.AddDouble("alpha", 0.1,
                  "noisy-label threshold (paper: 0.5 on DiDi data; 0.1 is\n"
                  "                  tuned for the synthetic workload)");
  flags.AddDouble("delta", 0.12,
                  "normal-route threshold (paper: 0.4; 0.12 tuned for the\n"
                  "                  synthetic workload)");
  flags.AddInt("delay-d", 2,
               "delayed-labeling lookahead D (paper: 8; 2 tuned for the\n"
               "               synthetic workload)");
  flags.AddInt("hidden-dim", 64, "LSTM hidden units (paper: 128)");
  flags.AddInt("embed-dim", 64, "road-segment embedding size (paper: 128)");
  flags.AddInt("joint-samples", 10000,
               "trajectories sampled for joint training (paper: 10,000)");
  flags.AddInt("pretrain-samples", 200,
               "trajectories for the warm start (paper: 200)");
  flags.AddBool("rnel", true, "road-network-enhanced labeling");
  flags.AddBool("dl", true, "delayed labeling");
  flags.AddInt("seed", 5, "training seed");
  flags.AddInt("trainer-threads", 1,
               "data-parallel pretrain workers (1 = sequential,\n"
               "               bit-identical to historical training; N > 1\n"
               "               shards the warm start across N threads)");
  flags.AddBool("time", false,
                "print the per-phase training wall-clock breakdown\n"
                "               (embed / pretrain / joint)");
  tools::ParseFlagsOrExit(&flags, argc, argv);

  const std::string data_dir = flags.GetString("data-dir");
  const std::string net_path = flags.GetString("network").empty()
                                   ? data_dir + "/network.bin"
                                   : flags.GetString("network");
  const std::string train_path = flags.GetString("train").empty()
                                     ? data_dir + "/train.bin"
                                     : flags.GetString("train");

  const roadnet::RoadNetwork net = tools::LoadRoadNetworkOrExit(net_path);
  const traj::Dataset train = tools::LoadDatasetOrExit(train_path);
  std::printf("loaded %zu segments, %zu training trajectories (%zu SD pairs)\n",
              net.NumEdges(), train.size(), train.NumSdPairs());

  core::Rl4OasdConfig cfg;
  cfg.preprocess.alpha = flags.GetDouble("alpha");
  cfg.preprocess.delta = flags.GetDouble("delta");
  cfg.detector.delay_d = static_cast<int>(flags.GetInt("delay-d"));
  cfg.detector.use_rnel = flags.GetBool("rnel");
  cfg.detector.use_dl = flags.GetBool("dl");
  cfg.rsr.hidden_dim = static_cast<size_t>(flags.GetInt("hidden-dim"));
  cfg.rsr.embed_dim = static_cast<size_t>(flags.GetInt("embed-dim"));
  cfg.joint_samples = static_cast<int>(flags.GetInt("joint-samples"));
  cfg.pretrain_samples = static_cast<int>(flags.GetInt("pretrain-samples"));
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  cfg.trainer_threads = static_cast<int>(flags.GetInt("trainer-threads"));

  core::Rl4Oasd model(&net, cfg);
  Stopwatch sw;
  model.Fit(train);
  const double train_s = sw.ElapsedSeconds();
  const auto& stats = model.joint_stats();
  std::printf(
      "training done in %.1fs: %lld episodes, %lld policy updates applied, "
      "mean episode reward %.4f\n",
      train_s, static_cast<long long>(stats.episodes),
      static_cast<long long>(stats.applied), model.last_mean_reward());
  if (flags.GetBool("time")) {
    const auto& ft = model.fit_timings();
    std::printf(
        "phase breakdown (%d trainer thread%s):\n"
        "  preprocess   %8.2fs\n"
        "  embed        %8.2fs\n"
        "  pretrain-rsr %8.2fs\n"
        "  pretrain-asd %8.2fs\n"
        "  joint        %8.2fs\n"
        "  total        %8.2fs\n",
        cfg.trainer_threads, cfg.trainer_threads == 1 ? "" : "s",
        ft.preprocess_s, ft.embed_s, ft.pretrain_rsr_s, ft.pretrain_asd_s,
        ft.joint_s, ft.total_s);
  }

  const std::string model_path = flags.GetString("model");
  tools::ExitIfError(io::SaveModel(model, model_path));
  std::printf("wrote %s\n", model_path.c_str());
  return 0;
}

}  // namespace
}  // namespace rl4oasd

int main(int argc, char** argv) { return rl4oasd::Main(argc, argv); }
