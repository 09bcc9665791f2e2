// Entry point of the end-to-end benchmark (see perfbench/README.md):
//
//   oasd_perfbench --workload live|backfill|gps --seed N --seconds S
//                  --trace 0|1 --work-dir DIR
//
// Runs the program's set-up, generates the workload's inputs from the seed,
// measures for S seconds and prints one JSON result line on stdout: the
// end-to-end metrics with --trace 0, the per-layer metrics of a traced run
// with --trace 1. Exits non-zero when an output check fails.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/logging.h"
#include "perfbench/src/harness.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every run reports every metric of its mode. Each workload sets the ones
// its path exercises; per-layer metrics of a layer the workload never calls
// read 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"f1", "ratio"},            {"points_per_s", "1/s"},
    {"fixes_per_s", "1/s"},     {"cpu_us_per_point", "us"},
    {"alert_p50_ms", "ms"},     {"verdict_p50_ms", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.fit_s", "s"},
    {"core.preprocess_s", "s"},
    {"embed.skipgram_s", "s"},
    {"core.pretrain_rsr_s", "s"},
    {"core.pretrain_asd_s", "s"},
    {"core.joint_s", "s"},
    {"io.model_save_s", "s"},
    {"io.model_load_s", "s"},
    {"io.model_bundle_kb", "kB"},
    {"mapmatch.build_s", "s"},
    {"mapmatch.match_point_us_p50", "us"},
    {"mapmatch.match_point_us_p99", "us"},
    {"mapmatch.match_point_samples", "count"},
    {"mapmatch.busy_share", "ratio"},
    {"mapmatch.edges_per_fix", "ratio"},
    {"mapmatch.finish_us_p50", "us"},
    {"mapmatch.finish_samples", "count"},
    {"mapmatch.matched_fix_share", "ratio"},
    {"mapmatch.matched_trip_share", "ratio"},
    {"serve.submit_us_p50", "us"},
    {"serve.submit_us_p99", "us"},
    {"serve.submit_samples", "count"},
    {"serve.staging_backlog_mean", "count"},
    {"serve.staging_backlog_slope", "1/s"},
    {"serve.delivery_backlog_max", "count"},
    {"serve.evict_sweep_ms_p50", "ms"},
    {"serve.evict_sweep_samples", "count"},
    {"serve.evicted_per_sweep", "count"},
    {"serve.rss_bytes_per_trip", "B"},
    {"serve.feedbatch_us_per_point", "us"},
    {"serve.start_trip_us_p50", "us"},
    {"serve.feed_us_p50", "us"},
    {"serve.feed_samples", "count"},
    {"serve.end_trip_us_p50", "us"},
    {"serve.self_us_per_point", "us"},
    {"serve.guard_check_ns_p50", "ns"},
    {"serve.guard_check_samples", "count"},
    {"serve.points_processed", "count"},
    {"serve.alerts_emitted", "count"},
    {"serve.points_shed", "count"},
    {"serve.trips_evicted", "count"},
    {"core.feedbatch_us_per_point", "us"},
    {"core.rnel_decided_share", "ratio"},
    {"core.feed_us_p50", "us"},
    {"core.feed_samples", "count"},
    {"core.finish_us_p50", "us"},
    {"core.finish_samples", "count"},
    {"core.alerts_per_kpoint", "1/kpoint"},
    {"nn.rsr_step_us_per_point", "us"},
    {"nn.rsr_step_b1_us", "us"},
    {"nn.rsr_step_b1_samples", "count"},
    {"nn.rsr_step_share", "ratio"},
    {"harness.gen_late_p50_ms", "ms"},
    {"harness.gen_late_p99_ms", "ms"},
    {"harness.gen_late_samples", "count"},
    {"harness.descheduled_share", "ratio"},
    {"harness.trace_overhead_share", "ratio"},
    {"tail.verdict_p90_ms", "ms"},
    {"tail.alert_p99_ms", "ms"},
    {"tail.verdict_p99_ms", "ms"},
    {"tail.alert_samples", "count"},
    {"tail.verdict_samples", "count"},
};

constexpr int kSetupReps = 5;

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "oasd_perfbench: %s\nusage: oasd_perfbench --workload "
               "live|backfill|gps --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n",
               msg);
  std::exit(2);
}

RunArgs ParseArgs(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "live" && args.workload != "backfill" &&
      args.workload != "gps") {
    Usage("unknown workload");
  }
  if (args.work_dir.empty()) Usage("--work-dir is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  rl4oasd::SetLogLevel(rl4oasd::LogLevel::kWarning);
  const RunArgs args = ParseArgs(argc, argv);
  std::filesystem::create_directories(args.work_dir);

  Report report;
  const Setup setup =
      RunSetup(args, args.workload == "gps", kSetupReps, &report);
  if (setup.model == nullptr) {
    std::printf("%s\n", report.Json().c_str());
    return 1;
  }
  if (args.workload == "live") {
    RunLive(args, setup, &report);
  } else if (args.workload == "backfill") {
    RunBackfill(args, setup, &report);
  } else {
    RunGps(args, setup, &report);
  }

  if (!args.trace) {
    report.Metric("setup_s", setup.setup_s, "s");
    report.Metric("peak_rss_mb", VmHwmMb(), "MB");
    for (const MetricDef& m : kEndToEnd) {
      report.Check(report.Has(m.name),
                   std::string("end-to-end metric not reported: ") + m.name);
    }
  } else {
    report.Metric("core.fit_s", setup.fit_s, "s");
    report.Metric("core.preprocess_s", setup.phases.preprocess_s, "s");
    report.Metric("embed.skipgram_s", setup.phases.embed_s, "s");
    report.Metric("core.pretrain_rsr_s", setup.phases.pretrain_rsr_s, "s");
    report.Metric("core.pretrain_asd_s", setup.phases.pretrain_asd_s, "s");
    report.Metric("core.joint_s", setup.phases.joint_s, "s");
    report.Metric("io.model_save_s", setup.save_s, "s");
    report.Metric("io.model_load_s", setup.load_s, "s");
    report.Metric("io.model_bundle_kb", setup.bundle_kb, "kB");
    report.Metric("mapmatch.build_s", setup.matcher_build_s, "s");
    for (const MetricDef& m : kPerLayer) {
      if (!report.Has(m.name)) report.Metric(m.name, 0.0, m.unit);
    }
  }
  std::printf("%s\n", report.Json().c_str());
  return report.correct() ? 0 : 1;
}
