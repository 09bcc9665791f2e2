// oasd_simulate: replays a trajectory dataset against a trained model bundle
// as a live fleet — concurrent trips, multi-threaded ingest, stale-trip
// eviction — and reports alerts and service throughput. This is the
// deployment-shaped counterpart of oasd_detect (which streams one
// trajectory at a time).
//
// Every mode runs one replay loop. Each replay thread keeps a rolling
// window of max(--batch, 1) live trips and feeds one point of every live
// trip per wave. A trip's stream is its clean edges at the paper's 2 s
// sampling rate, or under --matched-ingest the live GPS front end's output:
// noisy fixes sampled along the ground-truth route (seeded per vehicle),
// matched back to edges by the streaming map matcher. --chaos then perturbs
// the stream with the thread's seeded fault injector. The ingest mode only
// picks where a wave goes:
//
//   --batch 0   per-point Feed, one trip at a time;
//   --batch N   FeedBatch, so the wave's model steps fuse;
//   --async     SubmitBatch/SubmitEndTrip onto the monitor's self-batching
//               shard workers, with async alert delivery; Quiesce() drains
//               the pipeline before every snapshot and the summary.
//
// Durable serving: --snapshot-every N writes a fleet snapshot (live LSTM
// states, DL windows, RNG positions, counters, and the replay cursor) every
// N points; --resume-from restores one, regenerates each restored trip's
// stream and continues it at the point the snapshot recorded — the
// remaining alert stream is bit-identical to the uninterrupted run (both
// require --threads 1, the deterministic replay).
//
//   oasd_simulate --data-dir data --model data/model.rlmb --threads 4
//   oasd_simulate ... --async --ingest-workers 4
//   oasd_simulate ... --matched-ingest --gps-noise 15
//   oasd_simulate ... --threads 1 --snapshot-every 5000
//   oasd_simulate ... --threads 1 --resume-from data/fleet.snap
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/binary.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "core/rl4oasd.h"
#include "io/model_io.h"
#include "mapmatch/hmm_matcher.h"
#include "mapmatch/streaming_matcher.h"
#include "serve/chaos.h"
#include "serve/drift.h"
#include "serve/fleet.h"
#include "serve/ingest_guard.h"
#include "tools/tool_util.h"
#include "traj/gps_sampler.h"

namespace rl4oasd {
namespace {

/// Replay cursor persisted in the snapshot's user metadata, so a resumed
/// process knows which dataset trips were already started.
constexpr const char kCursorPrefix[] = "oasd_simulate cursor=";

std::string EncodeCursor(size_t next) {
  return kCursorPrefix + std::to_string(next);
}

/// Strict parse of EncodeCursor's output: the whole metadata string must be
/// prefix + digits. Anything else (foreign metadata, a mangled number)
/// rejects, so a resume never silently restarts from cursor 0 and re-feeds
/// trips that already completed.
bool DecodeCursor(const std::string& meta, size_t* next) {
  const size_t prefix_len = sizeof(kCursorPrefix) - 1;
  if (meta.rfind(kCursorPrefix, 0) != 0 || meta.size() == prefix_len) {
    return false;
  }
  const char* digits = meta.c_str() + prefix_len;
  if (*digits < '0' || *digits > '9') return false;
  char* end = nullptr;
  *next = static_cast<size_t>(std::strtoull(digits, &end, 10));
  return end != nullptr && *end == '\0';
}

/// One trip's replay stream and the start time StartTrip receives (the
/// first clean or matched point's; chaos may drop or move that point).
struct TripStream {
  double start_time = 0.0;
  std::vector<serve::FleetPoint> points;
};

int Main(int argc, char** argv) {
  FlagSet flags("oasd_simulate",
                "replay a dataset as a live fleet through a trained model");
  flags.AddString("data-dir", "data", "directory with network.bin/test.bin");
  flags.AddString("network", "", "override path to the road network");
  flags.AddString("input", "", "override path to the trajectory dataset");
  flags.AddString("model", "model.rlmb", "trained model bundle");
  flags.AddInt("threads", 4, "ingest threads");
  flags.AddInt("repeat", 1, "replay the dataset this many times");
  flags.AddInt("max-active", 100000, "active-trip cap (evicts stalest)");
  flags.AddInt("batch", 0,
               "live trips per replay thread; each wave feeds one point of "
               "every live trip through FeedBatch (SubmitBatch under "
               "--async) so the model steps fuse (0 = one trip at a time, "
               "through per-point Feed unless --async)");
  flags.AddBool("print-alerts", false, "print each alert as it fires");
  flags.AddBool("async", false,
                "stage ingest through the self-batching shard workers "
                "(SubmitBatch/SubmitEndTrip) with async alert delivery "
                "instead of feeding inline; --threads become producer "
                "threads");
  flags.AddInt("ingest-workers", 4,
               "ingest worker threads behind --async (clamped to the "
               "shard count)");
  flags.AddInt("snapshot-every", 0,
               "write a durable fleet snapshot every N points "
               "(0 = never; requires --threads 1)");
  flags.AddString("snapshot-path", "",
                  "snapshot output path (default <data-dir>/fleet.snap)");
  flags.AddString("resume-from", "",
                  "restore a fleet snapshot and continue the replay from "
                  "its cursor (requires --threads 1 and the same --model)");
  flags.AddInt("max-points", 0,
               "stop feeding after this many points, leaving in-flight "
               "trips live (0 = replay everything; requires --threads 1; "
               "pair with --snapshot-every to simulate a crash at a "
               "snapshot boundary)");
  flags.AddBool("adapt", false,
                "wrap the fleet in the self-updating drift adapter: a "
                "background worker watches alert/NRF rates, fine-tunes on "
                "harvested post-change trips, shadow-gates the candidate, "
                "and hot-swaps it in on promotion");
  flags.AddInt("adapt-window", 512,
               "drift-detector window size in points (with --adapt)");
  flags.AddInt("adapt-min-buffer", 256,
               "harvested trips required before a retrain cycle starts "
               "(with --adapt)");
  flags.AddBool("matched-ingest", false,
                "re-derive each trip's edge stream through the live GPS "
                "front end before ingest: noisy fixes are sampled from the "
                "ground-truth route (seeded per vehicle, so the stream is "
                "thread-count invariant) and matched back to edges by the "
                "streaming map matcher");
  flags.AddDouble("gps-noise", 10.0,
                  "GPS noise sigma in meters for --matched-ingest");
  flags.AddString(
      "chaos", "",
      "perturb the replay stream before ingest with seeded chaos, e.g. "
      "\"drop=0.01,dup=0.02,reorder=0.01,skew=0.005,teleport=0.001,seed=9\" "
      "(see serve/chaos.h for the full key set); also arms the ingest "
      "guard in repair mode with quarantine (malformed budget 8)");
  tools::ParseFlagsOrExit(&flags, argc, argv);

  const std::string data_dir = flags.GetString("data-dir");
  const int threads = std::max(1, static_cast<int>(flags.GetInt("threads")));
  const int repeat = std::max(1, static_cast<int>(flags.GetInt("repeat")));
  const size_t batch_size =
      static_cast<size_t>(std::max<int64_t>(0, flags.GetInt("batch")));
  const bool async = flags.GetBool("async");
  const bool adapt = flags.GetBool("adapt");
  const bool matched_ingest = flags.GetBool("matched-ingest");
  const double gps_noise = flags.GetDouble("gps-noise");
  const std::string chaos_arg = flags.GetString("chaos");
  const bool chaos = !chaos_arg.empty();
  const int64_t snapshot_every =
      std::max<int64_t>(0, flags.GetInt("snapshot-every"));
  const int64_t max_points = std::max<int64_t>(0, flags.GetInt("max-points"));
  const std::string snapshot_path = flags.GetString("snapshot-path").empty()
                                        ? data_dir + "/fleet.snap"
                                        : flags.GetString("snapshot-path");
  const std::string resume_path = flags.GetString("resume-from");
  const bool durable_mode =
      snapshot_every > 0 || max_points > 0 || !resume_path.empty();

  // The pairs the replay refuses, each for a cause outside the replay loop
  // (tools/README.md keeps the same table). Every other combination runs.
  const struct {
    bool refused;
    const char* why;
  } refusals[] = {
      {durable_mode && threads != 1,
       "--snapshot-every/--resume-from/--max-points require --threads 1 "
       "(the deterministic replay)"},
      {durable_mode && adapt,
       "--adapt cannot be combined with snapshot/resume — a hot-swap "
       "changes the serving model, and Restore fingerprint-guards the "
       "snapshot against the model it was taken with"},
      {durable_mode && chaos,
       "--chaos is incompatible with snapshot/resume/--max-points — the "
       "guard drops points, so a trip's position in its perturbed stream "
       "cannot be recovered from the points the snapshot recorded"},
      {async && adapt,
       "--async cannot be combined with --adapt — the drift adapter's "
       "harvest of asynchronously delivered trips is untested"},
  };
  for (const auto& r : refusals) {
    if (r.refused) {
      std::fprintf(stderr, "error: %s\n", r.why);
      return 1;
    }
  }

  const std::string net_path = flags.GetString("network").empty()
                                   ? data_dir + "/network.bin"
                                   : flags.GetString("network");
  const std::string input_path = flags.GetString("input").empty()
                                     ? data_dir + "/test.bin"
                                     : flags.GetString("input");

  const roadnet::RoadNetwork net = tools::LoadRoadNetworkOrExit(net_path);
  auto model =
      tools::ExitIfError(io::LoadModel(&net, flags.GetString("model")));
  const traj::Dataset input = tools::LoadDatasetOrExit(input_path);

  class Sink : public serve::AlertSink {
   public:
    explicit Sink(bool print) : print_(print) {}
    void OnAlert(const serve::Alert& alert) override {
      count_.fetch_add(1);
      if (print_) {
        std::printf("ALERT vehicle %lld segments [%d,%d)\n",
                    static_cast<long long>(alert.vehicle_id),
                    alert.range.begin, alert.range.end);
      }
    }
    void OnTripEvicted(int64_t vehicle_id, double /*trip_start_time*/,
                       const std::vector<uint8_t>& labels_so_far) override {
      evicted_.fetch_add(1);
      if (print_) {
        std::printf("EVICTED vehicle %lld after %zu segments\n",
                    static_cast<long long>(vehicle_id),
                    labels_so_far.size());
      }
    }
    int64_t count() const { return count_.load(); }
    int64_t evicted() const { return evicted_.load(); }

   private:
    bool print_;
    std::atomic<int64_t> count_{0};
    std::atomic<int64_t> evicted_{0};
  };
  Sink sink(flags.GetBool("print-alerts"));

  serve::ChaosSpec chaos_spec;
  if (chaos) {
    chaos_spec = tools::ExitIfError(serve::ParseChaosSpec(chaos_arg));
  }

  serve::FleetConfig fleet_cfg;
  fleet_cfg.max_active_trips =
      static_cast<size_t>(flags.GetInt("max-active"));
  if (chaos) {
    // A degraded stream is the point of the exercise: repair what is
    // repairable, quarantine trips that blow through the budget.
    serve::IngestGuardConfig& g = fleet_cfg.guard;
    g.duplicate_policy = serve::GuardPolicy::kRepair;
    g.out_of_order_policy = serve::GuardPolicy::kRepair;
    g.skew_policy = serve::GuardPolicy::kRepair;
    g.dropout_policy = serve::GuardPolicy::kRepair;
    g.teleport_policy = serve::GuardPolicy::kRepair;
    g.malformed_budget = 8;
  }
  if (async) {
    fleet_cfg.ingest_workers = static_cast<size_t>(
        std::max<int64_t>(1, flags.GetInt("ingest-workers")));
    fleet_cfg.async_alerts = true;
  }
  std::shared_ptr<const core::Rl4Oasd> shared_model = std::move(model);
  std::unique_ptr<serve::DriftAdapter> adapter;
  std::unique_ptr<serve::FleetMonitor> plain_monitor;
  if (adapt) {
    serve::DriftConfig drift_cfg;
    drift_cfg.window_points =
        static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("adapt-window")));
    drift_cfg.min_buffer_trips = static_cast<size_t>(
        std::max<int64_t>(1, flags.GetInt("adapt-min-buffer")));
    drift_cfg.max_buffer_trips =
        std::max<size_t>(drift_cfg.max_buffer_trips,
                         2 * drift_cfg.min_buffer_trips);
    drift_cfg.background = true;  // ingest threads never pay for a retrain
    adapter = std::make_unique<serve::DriftAdapter>(
        &net, shared_model, fleet_cfg, drift_cfg, &sink);
  } else {
    plain_monitor =
        std::make_unique<serve::FleetMonitor>(shared_model, fleet_cfg, &sink);
  }
  serve::FleetMonitor& monitor =
      adapt ? *adapter->monitor() : *plain_monitor;

  // The GPS front end for --matched-ingest: one immutable matcher shared by
  // every replay thread (each thread brings its own streaming scratch).
  std::unique_ptr<mapmatch::HmmMapMatcher> gps_matcher;
  if (matched_ingest) {
    gps_matcher = std::make_unique<mapmatch::HmmMapMatcher>(&net);
  }
  std::atomic<int64_t> matched_trips{0};
  std::atomic<int64_t> unmatched_trips{0};

  // Restored trips, keyed back to dataset positions via the deterministic
  // vid = rep * size + index assignment below.
  serve::FleetMonitor::RestoreInfo restored;
  size_t resume_cursor = 0;
  if (!resume_path.empty()) {
    auto reader = tools::ExitIfError(BinaryReader::OpenFile(resume_path));
    tools::ExitIfError(monitor.Restore(&reader, &restored));
    if (!DecodeCursor(restored.user_meta, &resume_cursor)) {
      std::fprintf(stderr,
                   "error: snapshot carries no oasd_simulate replay cursor "
                   "(metadata: \"%s\")\n",
                   restored.user_meta.c_str());
      return 1;
    }
    std::printf("resumed %zu live trips (cursor %zu) from %s\n",
                restored.trips.size(), resume_cursor, resume_path.c_str());
  }

  std::printf("replaying %zu trips x%d across %d threads%s...\n",
              input.size(), repeat, threads,
              async         ? " (async staged ingest)"
              : batch_size > 0 ? " (batched ingest)"
                               : "");

  Stopwatch sw;
  std::atomic<int64_t> points{0};
  std::vector<serve::ChaosCounts> chaos_by_thread(
      static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int th = 0; th < threads; ++th) {
    workers.emplace_back([&, th] {
      // This worker's assignments, in replay order.
      std::vector<std::pair<int64_t, const traj::MapMatchedTrajectory*>> todo;
      for (int rep = 0; rep < repeat; ++rep) {
        for (size_t i = static_cast<size_t>(th); i < input.size();
             i += static_cast<size_t>(threads)) {
          if (input[i].traj.edges.size() < 2) continue;
          todo.emplace_back(
              static_cast<int64_t>(rep) * static_cast<int64_t>(input.size()) +
                  static_cast<int64_t>(i),
              &input[i].traj);
        }
      }
      // One injector per worker, distinctly seeded, so the perturbed
      // stream is deterministic for a given (--chaos seed, --threads).
      std::unique_ptr<serve::ChaosInjector> injector;
      if (chaos) {
        serve::ChaosSpec spec = chaos_spec;
        spec.seed = chaos_spec.seed + static_cast<uint64_t>(th);
        injector = std::make_unique<serve::ChaosInjector>(spec, &net);
      }
      std::unique_ptr<mapmatch::StreamingMatcher> matcher;
      if (matched_ingest) {
        matcher =
            std::make_unique<mapmatch::StreamingMatcher>(gps_matcher.get());
      }
      // Builds one trip's stream. The GPS sampler is seeded per vehicle
      // (not per thread), so the matched stream does not depend on
      // --threads; nullopt when the fixes match nothing.
      auto make_stream = [&](int64_t vid, const traj::MapMatchedTrajectory& t)
          -> std::optional<TripStream> {
        const traj::MapMatchedTrajectory* route = &t;
        traj::MapMatchedTrajectory matched;
        if (matcher) {
          traj::GpsSamplerConfig gps_cfg;
          gps_cfg.noise_sigma_m = gps_noise;
          traj::GpsSampler sampler(
              &net, gps_cfg, /*seed=*/1234567u + static_cast<uint64_t>(vid));
          matcher->Reset(vid);
          for (const traj::RawPoint& pt : sampler.Sample(t).points) {
            matcher->MatchPoint(pt);
          }
          auto result = matcher->Finish();
          if (!result.ok() || result->edges.size() < 2) return std::nullopt;
          matched = std::move(result).value();
          route = &matched;
        }
        TripStream s{route->start_time, {}};
        s.points.reserve(route->edges.size());
        double ts = route->start_time;
        for (traj::EdgeId e : route->edges) {
          s.points.push_back({vid, e, ts});
          ts += 2.0;  // paper's sampling rate
        }
        if (injector) {
          s.points = injector->Perturb(s.points);
          chaos_by_thread[static_cast<size_t>(th)] += injector->counts();
        }
        return s;
      };
      auto end_trip = [&](int64_t vid) {
        if (async) {
          (void)monitor.SubmitEndTrip(vid);
        } else {
          (void)monitor.EndTrip(vid);
        }
      };

      // The rolling window: one point of every live trip per wave, so a
      // batched wave fuses the trips' model steps (a batch of one vehicle's
      // points would fall back to scalar one-point waves).
      struct Live {
        int64_t vid;
        std::vector<serve::FleetPoint> points;
        size_t pos = 0;
      };
      const size_t window = std::max<size_t>(batch_size, 1);
      std::vector<Live> live;
      size_t next = 0;
      if (!resume_path.empty()) {
        // Rebuild the window from the restored trips: each vid maps back to
        // its dataset trajectory (vid = rep * size + i), whose regenerated
        // stream continues at the point the snapshot recorded. The model is
        // fingerprint-guarded by Restore, but the dataset is not stamped —
        // validate every cursor against the regenerated stream so a resume
        // against the wrong (or regenerated) dataset fails cleanly instead
        // of indexing past it.
        next = resume_cursor;
        for (const auto& rt : restored.trips) {
          std::optional<TripStream> s = make_stream(
              rt.vehicle_id,
              input[static_cast<size_t>(rt.vehicle_id) % input.size()].traj);
          const size_t len = s ? s->points.size() : 0;
          if (rt.points_fed >= len || next > todo.size()) {
            std::fprintf(stderr,
                         "error: snapshot does not match the replay dataset "
                         "(vehicle %lld has %zu points of history, its "
                         "replay stream has %zu points; cursor %zu of %zu) "
                         "— resume with the dataset the snapshot was taken "
                         "from\n",
                         static_cast<long long>(rt.vehicle_id),
                         rt.points_fed, len, next, todo.size());
            std::exit(1);
          }
          live.push_back({rt.vehicle_id, std::move(s->points), rt.points_fed});
        }
      }
      auto refill = [&] {
        while (live.size() < window && next < todo.size()) {
          const auto& [vid, t] = todo[next++];
          std::optional<TripStream> s = make_stream(vid, *t);
          if (matcher) (s ? matched_trips : unmatched_trips).fetch_add(1);
          if (!s || !monitor.StartTrip(vid, t->sd(), s->start_time).ok()) {
            continue;
          }
          if (s->points.empty()) {
            end_trip(vid);  // chaos dropped every point
            continue;
          }
          live.push_back({vid, std::move(s->points)});
        }
      };
      int64_t fed_points = 0;
      int64_t next_snap = snapshot_every;
      std::vector<serve::FleetPoint> wave;
      wave.reserve(window);
      refill();
      while (!live.empty()) {
        wave.clear();
        for (const Live& l : live) wave.push_back(l.points[l.pos]);
        if (async) {
          (void)monitor.SubmitBatch(wave);
        } else if (batch_size == 0) {
          for (const serve::FleetPoint& p : wave) {
            (void)monitor.Feed(p.vehicle_id, p.edge, p.timestamp);
          }
        } else {
          (void)monitor.FeedBatch(wave);
        }
        fed_points += static_cast<int64_t>(wave.size());
        // Count points as fed, not at trip completion: a resumed run must
        // not claim the pre-crash history and a --max-points run must
        // count its live trips' points, or the points/s summary lies.
        points.fetch_add(static_cast<int64_t>(wave.size()));
        for (size_t k = live.size(); k-- > 0;) {
          if (++live[k].pos == live[k].points.size()) {
            end_trip(live[k].vid);
            live.erase(live.begin() + static_cast<ptrdiff_t>(k));
          }
        }
        refill();
        if (snapshot_every > 0 && fed_points >= next_snap) {
          next_snap += snapshot_every;
          // After refill, trips todo[0, next) are started or done, so the
          // cursor is exactly `next`; a resume restores the live window and
          // continues the replay from here. Staged points must land first,
          // or the snapshot would miss them.
          if (async) monitor.Quiesce();
          BinaryWriter w;
          tools::ExitIfError(monitor.Snapshot(&w, EncodeCursor(next)));
          tools::ExitIfError(w.WriteToFile(snapshot_path));
          std::printf("snapshot: %s (cursor %zu, %zu live trips)\n",
                      snapshot_path.c_str(), next, monitor.ActiveTrips());
        }
        if (max_points > 0 && fed_points >= max_points) {
          std::printf("stopping after %lld points (%zu trips still live)\n",
                      static_cast<long long>(fed_points),
                      monitor.ActiveTrips());
          break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  // Producers only staged work in async mode; the wall clock must cover the
  // drain, or points/s would count staged-not-processed points.
  if (async) monitor.Quiesce();
  const double elapsed = sw.ElapsedSeconds();

  const serve::FleetStats stats = monitor.Stats();
  std::printf("\nfleet summary (%.2fs wall):\n", elapsed);
  std::printf("  trips:      %lld started, %lld finished, %lld evicted\n",
              static_cast<long long>(stats.trips_started),
              static_cast<long long>(stats.trips_finished),
              static_cast<long long>(stats.trips_evicted));
  std::printf("  points:     %lld (%.0f points/s, %.2f us/point)\n",
              static_cast<long long>(stats.points_processed),
              static_cast<double>(points.load()) / elapsed,
              elapsed * 1e6 / static_cast<double>(std::max<int64_t>(
                                  1, points.load())));
  std::printf("  alerts:     %lld (%lld eviction notices)\n",
              static_cast<long long>(sink.count()),
              static_cast<long long>(sink.evicted()));
  if (async) {
    std::printf("  staging:    %lld submitted, %lld shed, %lld alerts "
                "delivered\n",
                static_cast<long long>(stats.points_submitted),
                static_cast<long long>(stats.points_shed),
                static_cast<long long>(stats.alerts_delivered));
  }
  if (matched_ingest) {
    std::printf("  matched:    %lld trips via the GPS front end, %lld "
                "unmatched/skipped (noise sigma %.1f m)\n",
                static_cast<long long>(matched_trips.load()),
                static_cast<long long>(unmatched_trips.load()), gps_noise);
  }
  if (chaos) {
    serve::ChaosCounts cc;
    for (const serve::ChaosCounts& c : chaos_by_thread) cc += c;
    std::printf("  chaos:      %lld clean -> %lld perturbed points "
                "(%lld dropped, %lld duplicated, %lld reordered, "
                "%lld skewed, %lld teleported, %lld gap events)\n",
                static_cast<long long>(cc.input),
                static_cast<long long>(cc.emitted),
                static_cast<long long>(cc.dropped),
                static_cast<long long>(cc.duplicated),
                static_cast<long long>(cc.reordered),
                static_cast<long long>(cc.skewed),
                static_cast<long long>(cc.teleported),
                static_cast<long long>(cc.drop_gaps));
    std::printf("  guard:      %lld repaired, %lld rejected, %lld "
                "quarantine-dropped; trips %lld quarantined, %lld "
                "recovered, %lld evicted\n",
                static_cast<long long>(stats.points_repaired),
                static_cast<long long>(stats.points_rejected),
                static_cast<long long>(stats.points_quarantine_dropped),
                static_cast<long long>(stats.trips_quarantined),
                static_cast<long long>(stats.trips_recovered),
                static_cast<long long>(stats.quarantine_evictions));
  }
  if (adapt) {
    // Ingest is done; wait for the background worker to drain the harvest
    // queue and resolve any in-flight retrain cycle so the summary is
    // complete rather than a mid-cycle snapshot.
    serve::DriftStatus ds = adapter->Status();
    while (ds.pending_trips > 0 ||
           ds.cycles_started >
               ds.promotions + ds.rejections + ds.cycle_errors) {
      std::this_thread::yield();
      ds = adapter->Status();
    }
    std::printf("  drift:      %llu events, %llu cycles (%llu promoted, "
                "%llu rejected, %llu errors)\n",
                static_cast<unsigned long long>(ds.drift_events),
                static_cast<unsigned long long>(ds.cycles_started),
                static_cast<unsigned long long>(ds.promotions),
                static_cast<unsigned long long>(ds.rejections),
                static_cast<unsigned long long>(ds.cycle_errors));
    std::printf("  harvest:    %llu trips (%llu buffered, %llu dropped)\n",
                static_cast<unsigned long long>(ds.trips_harvested),
                static_cast<unsigned long long>(ds.buffer_trips),
                static_cast<unsigned long long>(ds.buffer_evictions));
    std::printf("  serving:    model generation %llu",
                static_cast<unsigned long long>(ds.model_generation));
    if (ds.cycles_started > 0) {
      std::printf(" (last gate: live %.3f vs candidate %.3f)",
                  ds.last_live_score, ds.last_candidate_score);
    }
    std::printf("\n");
  }
  const std::string metrics =
      adapt ? adapter->DumpMetrics() : monitor.DumpMetrics();
  std::printf("\nmetrics:\n%s", metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace rl4oasd

int main(int argc, char** argv) { return rl4oasd::Main(argc, argv); }
