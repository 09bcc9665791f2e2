// oasd_inspect: prints the structure of a model bundle — format version,
// every config key, preprocessor statistics, and tensor shapes — without
// needing the road network it was trained on. Useful for auditing what a
// deployed model was trained with. Fleet snapshot files (written by
// serve::FleetMonitor::Snapshot / oasd_simulate --snapshot-every) are
// detected by magic and described too: format version, the model
// fingerprint the snapshot is pinned to, every service counter under its
// metrics name, and the live trips with their per-trip progress.
//
//   oasd_inspect data/model.rlmb
//   oasd_inspect data/fleet.snap
#include <cstdio>
#include <string_view>

#include "common/flags.h"
#include "io/fleet_snapshot.h"
#include "io/model_io.h"
#include "tools/tool_util.h"

namespace rl4oasd {
namespace {

int InspectFleetSnapshot(const std::string& path, bool list_trips) {
  const auto info = tools::ExitIfError(io::DescribeFleetSnapshot(path));
  std::printf("fleet snapshot: %s\n", path.c_str());
  std::printf("  format version:    %u\n", info.version);
  std::printf("  model fingerprint: %016llx\n",
              static_cast<unsigned long long>(info.model_fingerprint));
  if (!info.user_meta.empty()) {
    std::printf("  user metadata:     %s\n", info.user_meta.c_str());
  }
  std::printf("  live trips:        %zu (%llu points of history)\n",
              info.trips.size(),
              static_cast<unsigned long long>(info.total_points));
  std::printf("  counters:\n");
  for (size_t i = 0; i < io::kNumFleetCounters; ++i) {
    const std::string_view name = io::kFleetCounterNames[i];
    std::printf("    %-34.*s %lld\n", static_cast<int>(name.size()),
                name.data(), static_cast<long long>(info.counters[i]));
  }
  if (list_trips) {
    std::printf("\n  trips:\n");
    for (const auto& t : info.trips) {
      std::printf("    vehicle %-10lld %6llu points, started %.0fs, "
                  "last update %.0fs\n",
                  static_cast<long long>(t.vehicle_id),
                  static_cast<unsigned long long>(t.points_fed),
                  t.start_time, t.last_update);
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  FlagSet flags("oasd_inspect",
                "describe a model bundle's or fleet snapshot's contents");
  flags.AddBool("tensors", true, "list tensor shapes (model bundles)");
  flags.AddBool("config", true, "list config key-values (model bundles)");
  flags.AddBool("trips", false, "list per-trip progress (fleet snapshots)");
  tools::ParseFlagsOrExit(&flags, argc, argv);
  if (flags.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: oasd_inspect [flags] <model.rlmb | fleet.snap>\n\n%s",
                 flags.Help().c_str());
    return 1;
  }

  if (io::LooksLikeFleetSnapshot(flags.positional()[0])) {
    return InspectFleetSnapshot(flags.positional()[0],
                                flags.GetBool("trips"));
  }
  const auto desc =
      tools::ExitIfError(io::DescribeModel(flags.positional()[0]));
  std::printf("model bundle: %s\n", flags.positional()[0].c_str());
  std::printf("  format version:   %u\n", desc.version);
  std::printf("  history:          %lld trajectories across %zu "
              "(SD pair, slot) groups\n",
              static_cast<long long>(desc.num_trajs), desc.num_groups);
  std::printf("  total weights:    %zu\n", desc.total_weights);

  if (flags.GetBool("tensors")) {
    std::printf("\n  RSRNet tensors:\n");
    for (const auto& t : desc.rsr_tensors) {
      std::printf("    %-24s %6llu x %-6llu\n", t.name.c_str(),
                  static_cast<unsigned long long>(t.rows),
                  static_cast<unsigned long long>(t.cols));
    }
    std::printf("  ASDNet tensors:\n");
    for (const auto& t : desc.asd_tensors) {
      std::printf("    %-24s %6llu x %-6llu\n", t.name.c_str(),
                  static_cast<unsigned long long>(t.rows),
                  static_cast<unsigned long long>(t.cols));
    }
  }
  if (flags.GetBool("config")) {
    std::printf("\n  config:\n");
    for (const auto& [key, value] : desc.config) {
      std::printf("    %-36s %g\n", key.c_str(), value);
    }
  }
  return 0;
}

}  // namespace
}  // namespace rl4oasd

int main(int argc, char** argv) { return rl4oasd::Main(argc, argv); }
