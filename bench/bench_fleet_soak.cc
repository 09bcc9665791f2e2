// Soak / endurance bench for the async fleet pipeline: holds a very large
// number of concurrent trips live in one FleetMonitor and drives sustained
// Submit-path ingest through the self-batching shard workers, with eviction
// churn and async alert delivery running the whole time.
//
// Four sections (one long-lived monitor for 1-3; a small dedicated fleet
// for 4):
//   1. Fill: StartTrip up to --trips concurrent trips (default 1,000,000;
//      --tiny scales down to seconds). Reports fill rate and resident-set
//      growth per trip (VmRSS / VmHWM from /proc/self/status) against
//      --mem-ceiling-mb.
//   2. Sustain: --rounds passes of one point per live trip through
//      Submit(), sampled per-call for p50/p99/p99.9 ingest (staging)
//      latency. Quiesce() closes the section so points_submitted ==
//      points_processed is checkable.
//   3. Churn: --churn StartTrips beyond the cap, each forcing a
//      stalest-trip eviction while ingest continues. Reports evictions/s.
//      Note EvictStalest is an O(active) scan per admission (~100ms at 1M
//      trips on one core) — cap overflow is designed to be rare, and this
//      section is sized accordingly (the measured rate documents the cost).
//   4. Slow sink: a sink that burns --sink-delay-us per callback (default
//      1000us = the 1ms pathological subscriber), compared across
//      {no sink, sync delivery, async delivery} on the same replay. The
//      acceptance bar for the async pipeline is p99 ingest latency within
//      2x of the no-sink baseline; the sync column shows what the old
//      under-trip-lock delivery cost. Also reports the async queue's
//      enqueue->delivery latency percentiles.
//   5. Chaos: a dedicated fleet with the ingest guard in repair mode and
//      quarantine armed, fed a ChaosInjector-degraded replay (drops,
//      duplicates, reorders, skew, teleports) through the async Submit
//      path. Reports degraded-stream throughput, the guard's per-class
//      detections, and quarantine churn, and FAILS the bench if either
//      conservation identity breaks (trips: started == finished + evicted
//      + active; points: offered == processed + rejected +
//      quarantine-dropped).
//
// Flags: --tiny (seconds-scale smoke, registered as a ctest target),
// --json <path> (machine-readable record; CI uploads BENCH_soak.json),
// --trips/--rounds/--churn/--workers/--producers to resize the soak.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "serve/chaos.h"
#include "serve/fleet.h"
#include "serve/ingest_guard.h"

using namespace rl4oasd;

namespace {

double Percentile(std::vector<int64_t>* ns, double p) {
  if (ns->empty()) return 0.0;
  const size_t k = std::min(
      ns->size() - 1, static_cast<size_t>(p * static_cast<double>(ns->size())));
  std::nth_element(ns->begin(), ns->begin() + static_cast<ptrdiff_t>(k),
                   ns->end());
  return static_cast<double>((*ns)[k]) / 1e3;  // ns -> us
}

/// Resident-set numbers from /proc/self/status (MB). VmHWM is the process
/// high-water mark — the soak's "memory ceiling" measurement.
struct MemInfo {
  double rss_mb = 0.0;
  double hwm_mb = 0.0;
};

MemInfo ReadMem() {
  MemInfo m;
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return m;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmRSS: %ld kB", &kb) == 1) {
      m.rss_mb = static_cast<double>(kb) / 1024.0;
    } else if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      m.hwm_mb = static_cast<double>(kb) / 1024.0;
    }
  }
  std::fclose(f);
  return m;
}

/// A pathological subscriber: every callback burns a fixed delay, the way a
/// real sink stalls on a slow downstream (HTTP post, fsync, ...). OnTripEnd
/// is delayed alongside OnAlert so the stall fires deterministically once
/// per trip even on workloads where the detector emits few or no alerts
/// (the smoke-sized model detects nothing) — sink callbacks of every kind
/// ride the same delivery path and stall ingest the same way when run
/// under the trip lock.
class SlowSink : public serve::AlertSink {
 public:
  explicit SlowSink(int64_t delay_us) : delay_us_(delay_us) {}
  void OnAlert(const serve::Alert& /*alert*/) override { Stall(); }
  void OnTripEnd(int64_t /*vehicle_id*/,
                 const std::vector<uint8_t>& /*final_labels*/) override {
    Stall();
  }
  int64_t NumCallbacks() const {
    return callbacks_.load(std::memory_order_relaxed);
  }

 private:
  void Stall() {
    if (delay_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us_));
    }
    callbacks_.fetch_add(1, std::memory_order_relaxed);
  }

  const int64_t delay_us_;
  std::atomic<int64_t> callbacks_{0};
};

/// The replay workload: vehicle v runs test trajectory v % trips.size(),
/// looping its edge sequence point by point.
struct Workload {
  std::vector<const traj::LabeledTrajectory*> trips;

  const traj::MapMatchedTrajectory& TrajFor(int64_t vehicle) const {
    return trips[static_cast<size_t>(vehicle) % trips.size()]->traj;
  }
  traj::EdgeId EdgeFor(int64_t vehicle, int64_t round) const {
    const auto& edges = TrajFor(vehicle).edges;
    return edges[static_cast<size_t>(round) % edges.size()];
  }
};

struct SectionResult {
  int64_t points = 0;
  double seconds = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double max_us = 0.0;
};

/// Feeds `rounds` passes of one point per vehicle in [0, n) through the
/// Submit path with `producers` threads, timing every `sample_every`-th
/// call. Returns the latency percentiles over the sampled calls.
SectionResult SustainSubmit(serve::FleetMonitor* monitor, const Workload& wl,
                            int64_t n, int64_t rounds, int producers,
                            int64_t sample_every) {
  std::vector<std::vector<int64_t>> lat(static_cast<size_t>(producers));
  Stopwatch sw;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(producers));
  for (int th = 0; th < producers; ++th) {
    threads.emplace_back([&, th] {
      auto& samples = lat[static_cast<size_t>(th)];
      samples.reserve(static_cast<size_t>(
          n * rounds / (producers * sample_every) + 1));
      Stopwatch call_sw;
      int64_t k = 0;
      for (int64_t r = 0; r < rounds; ++r) {
        for (int64_t v = th; v < n; v += producers) {
          const serve::FleetPoint pt{v, wl.EdgeFor(v, r),
                                     wl.TrajFor(v).start_time};
          if (++k % sample_every == 0) {
            call_sw.Start();
            (void)monitor->Submit(pt);
            samples.push_back(call_sw.ElapsedNanos());
          } else {
            (void)monitor->Submit(pt);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  monitor->Quiesce();
  SectionResult out;
  out.points = n * rounds;
  out.seconds = sw.ElapsedSeconds();
  std::vector<int64_t> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  out.p50_us = Percentile(&all, 0.50);
  out.p99_us = Percentile(&all, 0.99);
  out.p999_us = Percentile(&all, 0.999);
  return out;
}

/// One slow-sink comparison leg: replays `n` trips end to end through the
/// synchronous Feed/EndTrip path (the cost under measurement is alert
/// *delivery*, so the ingest path is held fixed) and returns per-call
/// latency percentiles. EndTrip is timed alongside Feed because it is where
/// still-open anomalous runs flush their alerts — the sync delivery stall
/// concentrates there.
SectionResult ReplayFeed(const core::Rl4Oasd& model, const Workload& wl,
                         int64_t n, serve::FleetConfig cfg,
                         serve::AlertSink* sink,
                         std::vector<int64_t>* delivery_ns) {
  serve::FleetMonitor monitor(&model, cfg, sink);
  SectionResult out;
  std::vector<int64_t> lat;
  Stopwatch sw;
  Stopwatch call_sw;
  for (int64_t v = 0; v < n; ++v) {
    const auto& t = wl.TrajFor(v);
    if (!monitor.StartTrip(v, t.sd(), t.start_time).ok()) continue;
    for (traj::EdgeId e : t.edges) {
      call_sw.Start();
      (void)monitor.Feed(v, e, t.start_time);
      lat.push_back(call_sw.ElapsedNanos());
      ++out.points;
    }
    call_sw.Start();
    (void)monitor.EndTrip(v);
    lat.push_back(call_sw.ElapsedNanos());
  }
  monitor.Quiesce();
  out.seconds = sw.ElapsedSeconds();
  out.max_us = lat.empty() ? 0.0
                           : static_cast<double>(*std::max_element(
                                 lat.begin(), lat.end())) / 1e3;
  out.p50_us = Percentile(&lat, 0.50);
  out.p99_us = Percentile(&lat, 0.99);
  out.p999_us = Percentile(&lat, 0.999);
  if (delivery_ns != nullptr) {
    *delivery_ns = monitor.TakeAlertLatencySamplesNs();
  }
  return out;
}

struct SoakReport {
  int64_t trips = 0;
  double fill_s = 0.0;
  double fill_per_s = 0.0;
  MemInfo before;
  MemInfo after_fill;
  MemInfo final_mem;
  double bytes_per_trip = 0.0;
  SectionResult sustain;
  int64_t sustain_alerts = 0;
  int64_t sustain_delivered = 0;
  int64_t sustain_shed = 0;
  int64_t churn_starts = 0;
  int64_t churn_evictions = 0;
  double churn_s = 0.0;
  SectionResult nosink;
  SectionResult sync_slow;
  SectionResult async_slow;
  double delivery_p50_ms = 0.0;
  double delivery_p99_ms = 0.0;
  double delivery_p999_ms = 0.0;
  serve::ChaosCounts chaos;
  double chaos_s = 0.0;
  serve::FleetStats chaos_stats;
  bool chaos_conserved = true;
  double mem_ceiling_mb = 0.0;
  bool within_ceiling = true;
};

void WriteJson(const std::string& path, const SoakReport& r, bool tiny) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"fleet_soak\",\n");
  std::fprintf(f, "  \"tiny\": %s,\n", tiny ? "true" : "false");
  std::fprintf(f,
               "  \"fill\": {\"trips\": %lld, \"seconds\": %.4f, "
               "\"trips_per_s\": %.0f, \"bytes_per_trip\": %.0f},\n",
               static_cast<long long>(r.trips), r.fill_s, r.fill_per_s,
               r.bytes_per_trip);
  std::fprintf(f,
               "  \"sustain\": {\"points\": %lld, \"seconds\": %.4f, "
               "\"points_per_s\": %.0f, \"submit_p50_us\": %.3f, "
               "\"submit_p99_us\": %.3f, \"submit_p999_us\": %.3f, "
               "\"alerts\": %lld, \"delivered\": %lld, \"shed\": %lld},\n",
               static_cast<long long>(r.sustain.points), r.sustain.seconds,
               static_cast<double>(r.sustain.points) / r.sustain.seconds,
               r.sustain.p50_us, r.sustain.p99_us, r.sustain.p999_us,
               static_cast<long long>(r.sustain_alerts),
               static_cast<long long>(r.sustain_delivered),
               static_cast<long long>(r.sustain_shed));
  std::fprintf(f,
               "  \"churn\": {\"starts\": %lld, \"evictions\": %lld, "
               "\"seconds\": %.4f, \"evictions_per_s\": %.0f},\n",
               static_cast<long long>(r.churn_starts),
               static_cast<long long>(r.churn_evictions), r.churn_s,
               r.churn_s > 0.0
                   ? static_cast<double>(r.churn_evictions) / r.churn_s
                   : 0.0);
  std::fprintf(
      f,
      "  \"slow_sink\": {\"baseline_p99_us\": %.3f, \"sync_p99_us\": %.3f, "
      "\"async_p99_us\": %.3f, \"async_over_baseline\": %.3f,\n"
      "    \"baseline_max_us\": %.3f, \"sync_max_us\": %.3f, "
      "\"async_max_us\": %.3f,\n"
      "    \"delivery_p50_ms\": %.4f, \"delivery_p99_ms\": %.4f, "
      "\"delivery_p999_ms\": %.4f},\n",
      r.nosink.p99_us, r.sync_slow.p99_us, r.async_slow.p99_us,
      r.nosink.p99_us > 0.0 ? r.async_slow.p99_us / r.nosink.p99_us : 0.0,
      r.nosink.max_us, r.sync_slow.max_us, r.async_slow.max_us,
      r.delivery_p50_ms, r.delivery_p99_ms, r.delivery_p999_ms);
  std::fprintf(
      f,
      "  \"chaos\": {\"clean_points\": %lld, \"perturbed_points\": %lld, "
      "\"seconds\": %.4f, \"points_per_s\": %.0f,\n"
      "    \"dropped\": %lld, \"duplicated\": %lld, \"reordered\": %lld, "
      "\"skewed\": %lld, \"teleported\": %lld,\n"
      "    \"repaired\": %lld, \"rejected\": %lld, "
      "\"quarantine_dropped\": %lld, \"trips_quarantined\": %lld, "
      "\"trips_recovered\": %lld, \"quarantine_evictions\": %lld, "
      "\"conserved\": %s},\n",
      static_cast<long long>(r.chaos.input),
      static_cast<long long>(r.chaos.emitted), r.chaos_s,
      r.chaos_s > 0.0 ? static_cast<double>(r.chaos.emitted) / r.chaos_s : 0.0,
      static_cast<long long>(r.chaos.dropped),
      static_cast<long long>(r.chaos.duplicated),
      static_cast<long long>(r.chaos.reordered),
      static_cast<long long>(r.chaos.skewed),
      static_cast<long long>(r.chaos.teleported),
      static_cast<long long>(r.chaos_stats.points_repaired),
      static_cast<long long>(r.chaos_stats.points_rejected),
      static_cast<long long>(r.chaos_stats.points_quarantine_dropped),
      static_cast<long long>(r.chaos_stats.trips_quarantined),
      static_cast<long long>(r.chaos_stats.trips_recovered),
      static_cast<long long>(r.chaos_stats.quarantine_evictions),
      r.chaos_conserved ? "true" : "false");
  std::fprintf(f,
               "  \"memory\": {\"rss_after_fill_mb\": %.1f, \"hwm_mb\": %.1f, "
               "\"ceiling_mb\": %.1f, \"within_ceiling\": %s}\n}\n",
               r.after_fill.rss_mb, r.final_mem.hwm_mb, r.mem_ceiling_mb,
               r.within_ceiling ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("bench_fleet_soak",
                "Fleet soak: 1M+ concurrent trips, sustained async ingest, "
                "eviction churn, slow-sink alert delivery");
  flags.AddBool("tiny", false,
                "seconds-scale smoke workload (CTest registration)");
  flags.AddString("json", "", "write a machine-readable record to this path");
  flags.AddInt("trips", 0, "concurrent trips to hold live (0 = preset)");
  flags.AddInt("rounds", 0, "sustain passes over the fleet (0 = preset)");
  flags.AddInt("churn", 0, "over-cap StartTrips in the churn section");
  flags.AddInt("workers", 4, "ingest worker threads (clamped to shards)");
  flags.AddInt("producers", 2, "Submit-calling producer threads");
  flags.AddInt("sink-delay-us", 1000,
               "per-callback delay of the pathological sink (section 4)");
  flags.AddInt("mem-ceiling-mb", 0,
               "soak fails its ceiling check above this VmHWM (0 = preset)");
  const Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.message().c_str(), flags.Help().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  const bool tiny = flags.GetBool("tiny");
  const int64_t n_trips =
      flags.GetInt("trips") > 0 ? flags.GetInt("trips") : (tiny ? 2000 : 1000000);
  const int64_t rounds =
      flags.GetInt("rounds") > 0 ? flags.GetInt("rounds") : (tiny ? 3 : 4);
  const int64_t churn =
      flags.GetInt("churn") > 0 ? flags.GetInt("churn") : (tiny ? 300 : 500);
  const int producers = std::max(1, static_cast<int>(flags.GetInt("producers")));
  const int64_t sink_delay_us = flags.GetInt("sink-delay-us");
  const double ceiling_mb = flags.GetInt("mem-ceiling-mb") > 0
                                ? static_cast<double>(flags.GetInt("mem-ceiling-mb"))
                                : (tiny ? 2048.0 : 32768.0);
  // Sampling every call at 1M trips would cost more memory than the fleet;
  // the smoke run samples everything.
  const int64_t sample_every = tiny ? 1 : 16;

  std::printf("=== Fleet soak (%lld concurrent trips) ===\n\n",
              static_cast<long long>(n_trips));
  auto city = bench::MakeChengduLike(tiny ? 8 : 40);
  auto cfg = bench::TunedConfig();
  if (tiny) {
    cfg.pretrain_samples = 60;
    cfg.pretrain_epochs = 2;
    cfg.joint_samples = 80;
  }
  core::Rl4Oasd model(&city.net, cfg);
  model.Fit(city.train);

  Workload wl;
  for (const auto& lt : city.test.trajs()) {
    if (lt.traj.edges.size() >= 2) wl.trips.push_back(&lt);
  }

  SoakReport report;
  report.trips = n_trips;
  report.mem_ceiling_mb = ceiling_mb;
  report.before = ReadMem();

  serve::FleetConfig fleet_cfg;
  fleet_cfg.max_active_trips = static_cast<size_t>(n_trips);
  fleet_cfg.num_shards = tiny ? 16 : 64;
  fleet_cfg.ingest_workers = static_cast<size_t>(
      std::max<int64_t>(1, flags.GetInt("workers")));
  fleet_cfg.ingest_queue_capacity = 16384;
  fleet_cfg.async_alerts = true;
  fleet_cfg.alert_queue_capacity = 65536;
  serve::CollectingSink sink;
  serve::FleetMonitor monitor(&model, fleet_cfg, &sink);

  // --- 1. fill -------------------------------------------------------------
  {
    Stopwatch sw;
    for (int64_t v = 0; v < n_trips; ++v) {
      const auto& t = wl.TrajFor(v);
      (void)monitor.StartTrip(v, t.sd(), t.start_time);
    }
    report.fill_s = sw.ElapsedSeconds();
  }
  report.fill_per_s = static_cast<double>(n_trips) / report.fill_s;
  report.after_fill = ReadMem();
  report.bytes_per_trip = (report.after_fill.rss_mb - report.before.rss_mb) *
                          1024.0 * 1024.0 / static_cast<double>(n_trips);
  std::printf("--- fill ---\n");
  std::printf("%lld trips in %.2fs (%.0f trips/s), RSS %.1f MB -> %.1f MB "
              "(%.0f bytes/trip)\n\n",
              static_cast<long long>(n_trips), report.fill_s,
              report.fill_per_s, report.before.rss_mb,
              report.after_fill.rss_mb, report.bytes_per_trip);

  // --- 2. sustain ----------------------------------------------------------
  report.sustain =
      SustainSubmit(&monitor, wl, n_trips, rounds, producers, sample_every);
  {
    const auto stats = monitor.Stats();
    report.sustain_alerts = stats.alerts_emitted;
    report.sustain_delivered = stats.alerts_delivered;
    report.sustain_shed = stats.points_shed;
  }
  std::printf("--- sustain (Submit, %d producers, sampled 1/%lld) ---\n",
              producers, static_cast<long long>(sample_every));
  std::printf("%lld points in %.2fs (%.0f points/s)\n",
              static_cast<long long>(report.sustain.points),
              report.sustain.seconds,
              static_cast<double>(report.sustain.points) /
                  report.sustain.seconds);
  std::printf("submit latency us: p50 %.2f  p99 %.2f  p99.9 %.2f\n",
              report.sustain.p50_us, report.sustain.p99_us,
              report.sustain.p999_us);
  std::printf("alerts %lld (delivered %lld), shed %lld\n\n",
              static_cast<long long>(report.sustain_alerts),
              static_cast<long long>(report.sustain_delivered),
              static_cast<long long>(report.sustain_shed));

  // --- 3. churn ------------------------------------------------------------
  {
    const auto before = monitor.Stats();
    Stopwatch sw;
    for (int64_t i = 0; i < churn; ++i) {
      const int64_t v = n_trips + i;
      const auto& t = wl.TrajFor(v);
      if (monitor.StartTrip(v, t.sd(), t.start_time).ok()) {
        ++report.churn_starts;
        (void)monitor.Submit({v, wl.EdgeFor(v, 0), t.start_time});
      }
    }
    monitor.Quiesce();
    report.churn_s = sw.ElapsedSeconds();
    report.churn_evictions = monitor.Stats().trips_evicted - before.trips_evicted;
  }
  std::printf("--- churn (over-cap starts force stalest eviction) ---\n");
  std::printf("%lld starts, %lld evictions in %.2fs (%.0f evictions/s), "
              "active %zu (cap %lld)\n\n",
              static_cast<long long>(report.churn_starts),
              static_cast<long long>(report.churn_evictions), report.churn_s,
              report.churn_s > 0.0
                  ? static_cast<double>(report.churn_evictions) / report.churn_s
                  : 0.0,
              monitor.ActiveTrips(), static_cast<long long>(n_trips));

  // --- 4. slow sink --------------------------------------------------------
  // Small fleet: the sync leg pays sink_delay_us per alert *inline*, so its
  // duration is alerts x delay; keep that bounded even in the full soak.
  const int64_t slow_n = tiny ? 200 : 2000;
  serve::FleetConfig slow_cfg;
  slow_cfg.max_active_trips = static_cast<size_t>(slow_n) + 1;
  slow_cfg.num_shards = 16;
  slow_cfg.alert_queue_capacity = 65536;
  std::printf("--- slow sink (%lldus per callback) ---\n",
              static_cast<long long>(sink_delay_us));
  report.nosink = ReplayFeed(model, wl, slow_n, slow_cfg, nullptr, nullptr);
  {
    SlowSink slow(sink_delay_us);
    report.sync_slow = ReplayFeed(model, wl, slow_n, slow_cfg, &slow, nullptr);
  }
  std::vector<int64_t> delivery_ns;
  {
    SlowSink slow(sink_delay_us);
    auto async_cfg = slow_cfg;
    async_cfg.async_alerts = true;
    report.async_slow =
        ReplayFeed(model, wl, slow_n, async_cfg, &slow, &delivery_ns);
  }
  report.delivery_p50_ms = Percentile(&delivery_ns, 0.50) / 1e3;
  report.delivery_p99_ms = Percentile(&delivery_ns, 0.99) / 1e3;
  report.delivery_p999_ms = Percentile(&delivery_ns, 0.999) / 1e3;
  std::printf("%-22s %12s %12s %12s %12s\n", "delivery", "p50 us", "p99 us",
              "p99.9 us", "max us");
  std::printf("%-22s %12.2f %12.2f %12.2f %12.2f\n", "no sink (baseline)",
              report.nosink.p50_us, report.nosink.p99_us,
              report.nosink.p999_us, report.nosink.max_us);
  std::printf("%-22s %12.2f %12.2f %12.2f %12.2f\n", "sync (under trip lock)",
              report.sync_slow.p50_us, report.sync_slow.p99_us,
              report.sync_slow.p999_us, report.sync_slow.max_us);
  std::printf("%-22s %12.2f %12.2f %12.2f %12.2f\n", "async (delivery queue)",
              report.async_slow.p50_us, report.async_slow.p99_us,
              report.async_slow.p999_us, report.async_slow.max_us);
  const double ratio = report.nosink.p99_us > 0.0
                           ? report.async_slow.p99_us / report.nosink.p99_us
                           : 0.0;
  std::printf("async p99 over baseline: %.2fx (acceptance bar: <= 2x)\n",
              ratio);
  std::printf("async enqueue->delivery ms: p50 %.3f  p99 %.3f  p99.9 %.3f\n\n",
              report.delivery_p50_ms, report.delivery_p99_ms,
              report.delivery_p999_ms);

  // --- 5. chaos ------------------------------------------------------------
  // Degraded-stream soak: the guard repairs what it can, quarantines trips
  // that blow the malformed budget, and the conservation identities must
  // survive the async pipeline end to end.
  {
    const int64_t chaos_n = tiny ? 300 : 3000;
    serve::FleetConfig chaos_cfg;
    chaos_cfg.max_active_trips = static_cast<size_t>(chaos_n) + 1;
    chaos_cfg.num_shards = 16;
    chaos_cfg.ingest_workers = fleet_cfg.ingest_workers;
    chaos_cfg.ingest_queue_capacity = 16384;
    chaos_cfg.async_alerts = true;
    chaos_cfg.alert_queue_capacity = 65536;
    chaos_cfg.guard.duplicate_policy = serve::GuardPolicy::kRepair;
    chaos_cfg.guard.out_of_order_policy = serve::GuardPolicy::kRepair;
    chaos_cfg.guard.skew_policy = serve::GuardPolicy::kRepair;
    chaos_cfg.guard.dropout_policy = serve::GuardPolicy::kRepair;
    chaos_cfg.guard.teleport_policy = serve::GuardPolicy::kRepair;
    chaos_cfg.guard.malformed_budget = 8;
    serve::CollectingSink chaos_sink;
    serve::FleetMonitor chaos_monitor(&model, chaos_cfg, &chaos_sink);
    serve::ChaosSpec spec;
    spec.drop_prob = 0.02;
    spec.dup_prob = 0.03;
    spec.reorder_prob = 0.02;
    spec.skew_prob = 0.01;
    spec.teleport_prob = 0.01;
    spec.seed = 42;
    serve::ChaosInjector injector(spec, &city.net);
    std::vector<serve::FleetPoint> clean;
    Stopwatch sw;
    for (int64_t v = 0; v < chaos_n; ++v) {
      const auto& t = wl.TrajFor(v);
      if (!chaos_monitor.StartTrip(v, t.sd(), t.start_time).ok()) continue;
      clean.clear();
      double ts = t.start_time;
      for (traj::EdgeId e : t.edges) {
        clean.push_back({v, e, ts});
        ts += 2.0;
      }
      const std::vector<serve::FleetPoint> pts = injector.Perturb(clean);
      report.chaos += injector.counts();
      for (const serve::FleetPoint& p : pts) (void)chaos_monitor.Submit(p);
      (void)chaos_monitor.SubmitEndTrip(v);
    }
    chaos_monitor.Quiesce();
    report.chaos_s = sw.ElapsedSeconds();
    report.chaos_stats = chaos_monitor.Stats();
    const auto& cs = report.chaos_stats;
    const bool trips_ok =
        cs.trips_started ==
        cs.trips_finished + cs.trips_evicted +
            static_cast<int64_t>(chaos_monitor.ActiveTrips());
    const bool points_ok = cs.points_submitted - cs.points_shed ==
                           cs.points_processed + cs.points_rejected +
                               cs.points_quarantine_dropped;
    report.chaos_conserved = trips_ok && points_ok;
    std::printf("--- chaos (degraded stream, guard repair + quarantine) ---\n");
    std::printf("%lld clean -> %lld perturbed points in %.2fs (%.0f "
                "points/s)\n",
                static_cast<long long>(report.chaos.input),
                static_cast<long long>(report.chaos.emitted), report.chaos_s,
                report.chaos_s > 0.0
                    ? static_cast<double>(report.chaos.emitted) /
                          report.chaos_s
                    : 0.0);
    std::printf("injected: %lld dropped, %lld duplicated, %lld reordered, "
                "%lld skewed, %lld teleported\n",
                static_cast<long long>(report.chaos.dropped),
                static_cast<long long>(report.chaos.duplicated),
                static_cast<long long>(report.chaos.reordered),
                static_cast<long long>(report.chaos.skewed),
                static_cast<long long>(report.chaos.teleported));
    std::printf("guard: %lld repaired, %lld rejected, %lld "
                "quarantine-dropped; trips %lld quarantined, %lld "
                "recovered, %lld evicted\n",
                static_cast<long long>(cs.points_repaired),
                static_cast<long long>(cs.points_rejected),
                static_cast<long long>(cs.points_quarantine_dropped),
                static_cast<long long>(cs.trips_quarantined),
                static_cast<long long>(cs.trips_recovered),
                static_cast<long long>(cs.quarantine_evictions));
    std::printf("conservation: trips %s, points %s\n\n",
                trips_ok ? "OK" : "BROKEN", points_ok ? "OK" : "BROKEN");
  }

  // --- memory ceiling ------------------------------------------------------
  report.final_mem = ReadMem();
  report.within_ceiling = report.final_mem.hwm_mb <= ceiling_mb;
  std::printf("--- memory ---\n");
  std::printf("VmRSS %.1f MB, VmHWM %.1f MB, ceiling %.1f MB: %s\n",
              report.final_mem.rss_mb, report.final_mem.hwm_mb, ceiling_mb,
              report.within_ceiling ? "OK" : "EXCEEDED");

  if (!report.chaos_conserved) {
    std::fprintf(stderr, "chaos section: conservation identity BROKEN\n");
  }
  if (flags.IsSet("json")) WriteJson(flags.GetString("json"), report, tiny);
  return report.within_ceiling && report.chaos_conserved ? 0 : 1;
}
