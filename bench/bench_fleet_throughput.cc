// Service-scale extension bench: fleet-monitor ingest throughput as ingest
// threads scale. The paper's efficiency study (Figure 3) measures one
// trajectory at a time; a deployment runs thousands of concurrent trips.
//
// Three sections:
//   1. Per-point ingest (Feed) sweeping 1 -> 8 threads: aggregate points/s
//      and p50/p99 per-point latency. With two-level locking the model step
//      runs under a per-trip lock, so scaling is bounded by cores, not by
//      shard collisions or a global stats mutex.
//   2. Batched ingest (FeedBatch) at the same thread counts: one shard-lock
//      acquisition per shard per batch instead of one per point.
//   3. Micro-batch sweep (`--batch` runs just this): single-thread batched
//      ingest with one point per trip per wave at batch width B in
//      {1, 8, 12, 32, 128}, points/s and us/point vs the scalar Feed
//      baseline. One thread, so any difference is the fused
//      (B x I) * (I x 4H) gate matmuls and the wave plumbing, not threading.
//   4. Per-point cost vs trip length: alert extraction is incremental
//      (O(1) amortized per point), so the cost of a 12800-segment trip's
//      points matches a 100-segment trip's — the pre-incremental monitor
//      re-postprocessed the whole trip on every run closure, which made
//      alert-heavy long trips quadratic.
//
// Flags: --batch (only the micro-batch sweep), --tiny (seconds-scale smoke
// workload; registered as a CTest target so the harness can't bit-rot).
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "serve/fleet.h"

using namespace rl4oasd;

namespace {

double Percentile(std::vector<int64_t>* ns, double p) {
  if (ns->empty()) return 0.0;
  const size_t k = std::min(ns->size() - 1,
                            static_cast<size_t>(p * static_cast<double>(ns->size())));
  std::nth_element(ns->begin(), ns->begin() + static_cast<ptrdiff_t>(k),
                   ns->end());
  return static_cast<double>((*ns)[k]) / 1e3;  // ns -> us
}

/// Replays `trips` through the monitor at batch width B: B concurrent trips,
/// one point per live trip per wave, one FeedBatch call per wave (B == 0
/// means scalar per-point Feed). Returns {points fed, seconds}.
std::pair<int64_t, double> ReplayAtWidth(const core::Rl4Oasd& model,
                                         const std::vector<const traj::LabeledTrajectory*>& trips,
                                         size_t width) {
  serve::FleetMonitor monitor(&model, {}, nullptr);
  int64_t fed = 0;
  Stopwatch sw;
  if (width == 0) {
    for (size_t i = 0; i < trips.size(); ++i) {
      const auto& t = trips[i]->traj;
      const auto vid = static_cast<int64_t>(i);
      if (!monitor.StartTrip(vid, t.sd(), t.start_time).ok()) continue;
      for (traj::EdgeId e : t.edges) {
        if (monitor.Feed(vid, e, t.start_time).ok()) ++fed;
      }
      (void)monitor.EndTrip(vid);
    }
    return {fed, sw.ElapsedSeconds()};
  }
  // Rolling window of `width` live trips: when one ends, the next starts,
  // so waves stay at full width until trips run out (the tail is ragged).
  struct Live {
    size_t trip;
    size_t pos = 0;
  };
  std::vector<Live> live;
  size_t next_trip = 0;
  auto refill = [&] {
    while (live.size() < width && next_trip < trips.size()) {
      const auto& t = trips[next_trip]->traj;
      if (monitor
              .StartTrip(static_cast<int64_t>(next_trip), t.sd(),
                         t.start_time)
              .ok()) {
        live.push_back({next_trip});
      }
      ++next_trip;
    }
  };
  std::vector<serve::FleetPoint> wave;
  refill();
  while (!live.empty()) {
    wave.clear();
    for (const Live& l : live) {
      const auto& t = trips[l.trip]->traj;
      wave.push_back({static_cast<int64_t>(l.trip), t.edges[l.pos],
                      t.start_time});
    }
    fed += static_cast<int64_t>(monitor.FeedBatch(wave));
    for (auto& l : live) ++l.pos;
    for (size_t i = live.size(); i-- > 0;) {
      if (live[i].pos == trips[live[i].trip]->traj.edges.size()) {
        (void)monitor.EndTrip(static_cast<int64_t>(live[i].trip));
        live.erase(live.begin() + static_cast<ptrdiff_t>(i));
      }
    }
    refill();
  }
  return {fed, sw.ElapsedSeconds()};
}

void RunBatchSweep(const core::Rl4Oasd& model,
                   const std::vector<const traj::LabeledTrajectory*>& trips) {
  printf("\n--- micro-batch sweep (single thread, one point per trip per "
         "wave) ---\n");
  printf("%-14s %14s %12s %10s\n", "Width", "points/s", "us/point",
         "vs scalar");
  const auto [base_fed, base_s] = ReplayAtWidth(model, trips, 0);
  const double base_rate = static_cast<double>(base_fed) / base_s;
  printf("%-14s %14.0f %12.3f %9.2fx\n", "Feed (scalar)", base_rate,
         base_s * 1e6 / static_cast<double>(base_fed), 1.0);
  for (const size_t width :
       {size_t{1}, size_t{8}, size_t{12}, size_t{32}, size_t{128}}) {
    const auto [fed, s] = ReplayAtWidth(model, trips, width);
    const double rate = static_cast<double>(fed) / s;
    printf("FeedBatch B=%-3zu %13.0f %12.3f %9.2fx\n", width, rate,
           s * 1e6 / static_cast<double>(fed), rate / base_rate);
  }
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("bench_fleet_throughput",
                "Fleet-monitor ingest throughput benchmarks");
  flags.AddBool("batch", false,
                "run only the micro-batch sweep (batched vs scalar ingest)");
  flags.AddBool("tiny", false,
                "seconds-scale smoke workload (CTest registration)");
  const Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    fprintf(stderr, "%s\n%s", st.message().c_str(), flags.Help().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    printf("%s", flags.Help().c_str());
    return 0;
  }
  const bool tiny = flags.GetBool("tiny");
  const bool batch_only = flags.GetBool("batch");

  printf("=== Fleet ingest throughput (threads vs points/s) ===\n\n");
  auto city = bench::MakeChengduLike(tiny ? 8 : 40);
  auto cfg = bench::TunedConfig();
  if (tiny) {
    cfg.pretrain_samples = 60;
    cfg.pretrain_epochs = 2;
    cfg.joint_samples = 80;
  }
  core::Rl4Oasd model(&city.net, cfg);
  model.Fit(city.train);

  // Pre-slice the replayable trips.
  std::vector<const traj::LabeledTrajectory*> trips;
  for (const auto& lt : city.test.trajs()) {
    if (lt.traj.edges.size() >= 2) trips.push_back(&lt);
  }
  int64_t total_points = 0;
  for (const auto* lt : trips) {
    total_points += static_cast<int64_t>(lt->traj.edges.size());
  }
  printf("fleet: %zu trips, %lld points, model trained on %zu trips\n\n",
         trips.size(), static_cast<long long>(total_points),
         city.train.size());

  if (batch_only) {
    RunBatchSweep(model, trips);
    return 0;
  }

  const std::vector<int> thread_counts = tiny ? std::vector<int>{1, 2}
                                              : std::vector<int>{1, 2, 4, 8};

  printf("--- per-point ingest (Feed) ---\n");
  printf("%-8s %14s %12s %12s %10s %9s\n", "Threads", "points/s", "p50 us",
         "p99 us", "alerts", "evicted");
  for (int threads : thread_counts) {
    serve::CollectingSink sink;
    serve::FleetMonitor monitor(&model, {}, &sink);
    std::vector<std::vector<int64_t>> lat(static_cast<size_t>(threads));
    Stopwatch sw;
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(threads));
    for (int th = 0; th < threads; ++th) {
      workers.emplace_back([&, th] {
        auto& samples = lat[static_cast<size_t>(th)];
        samples.reserve(static_cast<size_t>(
            total_points / threads + 1));
        Stopwatch point_sw;
        for (size_t i = static_cast<size_t>(th); i < trips.size();
             i += static_cast<size_t>(threads)) {
          const auto& t = trips[i]->traj;
          const auto vid = static_cast<int64_t>(i);
          if (!monitor.StartTrip(vid, t.sd(), t.start_time).ok()) continue;
          for (traj::EdgeId e : t.edges) {
            point_sw.Start();
            (void)monitor.Feed(vid, e, t.start_time);
            samples.push_back(point_sw.ElapsedNanos());
          }
          (void)monitor.EndTrip(vid);
        }
      });
    }
    for (auto& w : workers) w.join();
    const double s = sw.ElapsedSeconds();
    std::vector<int64_t> all;
    all.reserve(static_cast<size_t>(total_points));
    for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
    const double p50 = Percentile(&all, 0.50);
    const double p99 = Percentile(&all, 0.99);
    const auto stats = monitor.Stats();
    printf("%-8d %14.0f %12.2f %12.2f %10lld %9lld\n", threads,
           static_cast<double>(total_points) / s, p50, p99,
           static_cast<long long>(stats.alerts_emitted),
           static_cast<long long>(stats.trips_evicted));
  }

  printf("\n--- batched ingest (FeedBatch, 64-point batches) ---\n");
  printf("%-8s %14s %10s\n", "Threads", "points/s", "alerts");
  for (int threads : thread_counts) {
    serve::CollectingSink sink;
    serve::FleetMonitor monitor(&model, {}, &sink);
    Stopwatch sw;
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(threads));
    for (int th = 0; th < threads; ++th) {
      workers.emplace_back([&, th] {
        std::vector<serve::FleetPoint> batch;
        batch.reserve(64);
        for (size_t i = static_cast<size_t>(th); i < trips.size();
             i += static_cast<size_t>(threads)) {
          const auto& t = trips[i]->traj;
          const auto vid = static_cast<int64_t>(i);
          if (!monitor.StartTrip(vid, t.sd(), t.start_time).ok()) continue;
          for (traj::EdgeId e : t.edges) {
            batch.push_back({vid, e, t.start_time});
            if (batch.size() == 64) {
              (void)monitor.FeedBatch(batch);
              batch.clear();
            }
          }
          if (!batch.empty()) {
            (void)monitor.FeedBatch(batch);
            batch.clear();
          }
          (void)monitor.EndTrip(vid);
        }
      });
    }
    for (auto& w : workers) w.join();
    const double s = sw.ElapsedSeconds();
    printf("%-8d %14.0f %10zu\n", threads,
           static_cast<double>(total_points) / s, sink.NumAlerts());
  }

  RunBatchSweep(model, trips);

  // Long-trip scaling: replay one real trajectory's edges R times as a
  // single trip. Incremental alert extraction keeps us/point flat; the old
  // full-rescan extraction grew linearly with trip length (quadratic total).
  printf("\n--- per-point cost vs trip length (single thread) ---\n");
  printf("%-10s %14s %12s\n", "Length", "points/s", "us/point");
  const auto* longest = *std::max_element(
      trips.begin(), trips.end(), [](const auto* a, const auto* b) {
        return a->traj.edges.size() < b->traj.edges.size();
      });
  const auto lengths = tiny ? std::vector<size_t>{100, 800}
                            : std::vector<size_t>{100, 800, 3200, 12800};
  for (size_t length : lengths) {
    serve::FleetMonitor monitor(&model, {}, nullptr);
    const auto& edges = longest->traj.edges;
    if (!monitor
             .StartTrip(1, longest->traj.sd(), longest->traj.start_time)
             .ok()) {
      continue;
    }
    Stopwatch sw;
    for (size_t i = 0; i < length; ++i) {
      (void)monitor.Feed(1, edges[i % edges.size()],
                         longest->traj.start_time);
    }
    const double s = sw.ElapsedSeconds();
    (void)monitor.EndTrip(1);
    printf("%-10zu %14.0f %12.2f\n", length,
           static_cast<double>(length) / s,
           s * 1e6 / static_cast<double>(length));
  }
  return 0;
}
