// oasd_gen: generates a synthetic city road network and a labeled trajectory
// workload (the DiDi substitute described in README.md), writing both to
// disk for the other tools.
//
//   oasd_gen --out-dir data --pairs 200 --anomaly-ratio 0.007
//
// Produces <out-dir>/network.bin, <out-dir>/train.bin, <out-dir>/test.bin
// (and CSV copies with --csv).
#include <cstdio>
#include <filesystem>

#include "common/flags.h"
#include "common/rng.h"
#include "io/dataset_io.h"
#include "roadnet/grid_city.h"
#include "tools/tool_util.h"
#include "traj/generator.h"

namespace rl4oasd {
namespace {

int Main(int argc, char** argv) {
  FlagSet flags("oasd_gen",
                "generate a synthetic road network + trajectory workload");
  flags.AddString("out-dir", "data", "output directory (created if missing)");
  flags.AddInt("grid-rows", 36, "city grid rows (36x36 ~ 4,900 segments)");
  flags.AddInt("grid-cols", 36, "city grid columns");
  flags.AddInt("arterial-every", 5, "every k-th row/column is an arterial");
  flags.AddInt("pairs", 100, "number of SD pairs");
  flags.AddInt("min-trajs", 30, "minimum trajectories per SD pair");
  flags.AddInt("max-trajs", 120, "maximum trajectories per SD pair");
  flags.AddInt("routes-per-pair", 3, "distinct normal routes per SD pair");
  flags.AddDouble("anomaly-ratio", 0.05,
                  "fraction of trajectories containing a detour "
                  "(paper: 0.007 Chengdu, 0.015 Xi'an)");
  flags.AddDouble("min-pair-dist", 2500,
                  "minimum straight-line distance between S and D (meters)");
  flags.AddDouble("max-pair-dist", 7000,
                  "maximum straight-line distance between S and D (meters)");
  flags.AddInt("drift-parts", 0,
               "enable concept drift with this many day parts (0 = off)");
  flags.AddInt("train-size", 10000,
               "number of trajectories in the training split (paper: 10,000)");
  flags.AddBool("csv", false, "also write CSV copies of the outputs");
  flags.AddInt("seed", 123, "generator seed");
  tools::ParseFlagsOrExit(&flags, argc, argv);

  const std::string out_dir = flags.GetString("out-dir");
  std::filesystem::create_directories(out_dir);

  roadnet::GridCityConfig city;
  city.rows = static_cast<int>(flags.GetInt("grid-rows"));
  city.cols = static_cast<int>(flags.GetInt("grid-cols"));
  city.arterial_every = static_cast<int>(flags.GetInt("arterial-every"));
  city.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const roadnet::RoadNetwork net = roadnet::BuildGridCity(city);
  std::printf("network: %zu vertices, %zu segments\n", net.NumVertices(),
              net.NumEdges());

  traj::GeneratorConfig gen_cfg;
  gen_cfg.num_sd_pairs = static_cast<int>(flags.GetInt("pairs"));
  gen_cfg.min_trajs_per_pair = static_cast<int>(flags.GetInt("min-trajs"));
  gen_cfg.max_trajs_per_pair = static_cast<int>(flags.GetInt("max-trajs"));
  gen_cfg.routes_per_pair = static_cast<int>(flags.GetInt("routes-per-pair"));
  gen_cfg.anomaly_ratio = flags.GetDouble("anomaly-ratio");
  gen_cfg.min_pair_dist_m = flags.GetDouble("min-pair-dist");
  gen_cfg.max_pair_dist_m = flags.GetDouble("max-pair-dist");
  gen_cfg.drift_parts = static_cast<int>(flags.GetInt("drift-parts"));
  gen_cfg.seed = static_cast<uint64_t>(flags.GetInt("seed")) + 1;
  traj::TrajectoryGenerator gen(&net, gen_cfg);
  traj::Dataset all = gen.Generate();
  std::printf("workload: %zu trajectories, %zu SD pairs, %zu anomalous\n",
              all.size(), all.NumSdPairs(), all.NumAnomalous());

  Rng rng(gen_cfg.seed + 2);
  const size_t train_size =
      std::min<size_t>(static_cast<size_t>(flags.GetInt("train-size")),
                       all.size() / 2);
  auto [train, test] = all.Split(train_size, &rng);
  std::printf("split: %zu train / %zu test\n", train.size(), test.size());

  tools::ExitIfError(io::SaveRoadNetwork(net, out_dir + "/network.bin"));
  tools::ExitIfError(io::SaveDataset(train, out_dir + "/train.bin"));
  tools::ExitIfError(io::SaveDataset(test, out_dir + "/test.bin"));
  if (flags.GetBool("csv")) {
    tools::ExitIfError(net.SaveCsv(out_dir + "/network"));
    tools::ExitIfError(train.SaveCsv(out_dir + "/train.csv"));
    tools::ExitIfError(test.SaveCsv(out_dir + "/test.csv"));
  }
  std::printf("wrote %s/{network.bin,train.bin,test.bin}\n", out_dir.c_str());
  return 0;
}

}  // namespace
}  // namespace rl4oasd

int main(int argc, char** argv) { return rl4oasd::Main(argc, argv); }
