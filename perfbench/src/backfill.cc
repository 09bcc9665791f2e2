// `backfill`: closed loop on one thread. Synchronous FleetMonitor::FeedBatch
// at full micro_batch width over a rolling window of seeded trips (one point
// per trip per round; a finished trip's slot takes the next trip), the pool
// replayed until the timed window closes. ingest_workers = 0 and the sink
// only counts alerts, so this isolates per-point model cost at full GEMM
// fusion width with no queueing and no wake-ups.
//
// A round hands one FeedBatch wave to the monitor, then ends the trips whose
// last point it carried and admits their successors. The caller holds a
// point's answers (its alerts, and for a trip's last point the verdict) when
// the round completes, so a point's latency is its round's trip: in this
// closed loop latency and rate are one quantity, width / rate. The gated
// latencies are that quantity at the median slice rate; the rounds' own
// distribution is reported per layer (tail.*).
//
// The traced pass replays every wave into bench-owned
// core::OnlineDetector::Sessions (core.* spans) and core::RsrStreams
// (nn.* spans), and checks the shadow labels against the monitor's.
#include <optional>

#include "core/detector.h"
#include "eval/metrics.h"
#include "perfbench/src/harness.h"
#include "serve/fleet.h"

namespace perfbench {
namespace {

constexpr size_t kPoolTrips = 32768;
constexpr double kWarmupS = 0.5;

/// Bench-owned replay of the monitor's waves (traced pass only).
struct Shadow {
  std::optional<core::OnlineDetector::Session> session;
  core::RsrStream stream;
  traj::EdgeId prev = 0;
};

/// Counts alert deliveries (synchronous: on the feeding thread).
class AlertCounter : public serve::AlertSink {
 public:
  void OnAlert(const serve::Alert& /*alert*/) override { ++alerts; }
  int64_t alerts = 0;
};

struct PassResult {
  double f1 = 0.0;
  double points_per_s = 0.0;
  double cpu_us_per_point = 0.0;
  double round_ms = 0.0;  // width / points_per_s
  double descheduled_share = 0.0;
  // Mean rate over the window, shadow-replay time excluded (the traced
  // pass's comparable headline number).
  double mean_points_per_s = 0.0;
  int64_t points = 0;                // fed inside the timed window
  LatencySamples verdict_ms;
  LatencySamples alert_ms;
  serve::FleetStats stats;
  int64_t rnel_decided = 0;
  int64_t rnel_considered = 0;
};

PassResult RunPass(const Setup& setup,
                   const std::vector<traj::LabeledTrajectory>& pool,
                   double seconds, Tracer* tracer, Report* report) {
  const bool shadowed = tracer->enabled();
  const core::Rl4Oasd& model = *setup.model;
  serve::FleetConfig cfg;  // synchronous: ingest_workers = 0, sync delivery
  const size_t width = cfg.micro_batch;
  AlertCounter sink;
  serve::FleetMonitor monitor(&model, cfg, &sink);

  struct Slot {
    size_t trip = 0;
    size_t pos = 0;
    int64_t vid = -1;
  };
  std::vector<Slot> slots(width);
  std::vector<Shadow> shadows(width);
  // Trips started so far: pool index = next % pool size, pass = next / size.
  int64_t next = 0;
  auto start_trip = [&](size_t s) {
    Slot& slot = slots[s];
    slot = Slot{static_cast<size_t>(next) % pool.size(), 0, next};
    ++next;
    const auto& t = pool[slot.trip].traj;
    report->Attempt(1);
    const auto st = monitor.StartTrip(slot.vid, t.sd(), t.start_time);
    if (!st.ok()) report->Fail(1, "StartTrip: " + st.ToString());
    if (shadowed) {
      shadows[s].session.emplace(model.StartSession(t.sd(), t.start_time));
      shadows[s].stream = core::RsrStream(model.rsrnet().stream_state_size());
    }
  };
  for (size_t s = 0; s < width; ++s) start_trip(s);

  PassResult out;
  rl4oasd::eval::F1Evaluator f1;
  std::vector<uint64_t> first_hash(pool.size(), 0);
  size_t first_pass_left = pool.size();
  int64_t label_mismatches = 0;
  int64_t shadow_mismatches = 0;

  std::vector<serve::FleetPoint> wave(width);
  std::vector<core::OnlineDetector::Session*> sessions(width);
  std::vector<traj::EdgeId> edges(width);
  std::vector<uint8_t> nrf(width);
  std::vector<core::RsrStream*> streams(width);
  std::vector<int> shadow_labels(width);
  rl4oasd::nn::Matrix z, probs;
  Tracer off(false);

  const int64_t t_begin = NowNs();
  const int64_t window_start = t_begin + int64_t(kWarmupS * 1e9);
  const int64_t window_end = window_start + int64_t(seconds * 1e9);
  bool timing = false;
  int64_t cpu0 = 0, thread0 = 0, wall0 = 0;
  int64_t shadow_ns = 0;
  SliceRates slices(kRateSliceS);
  for (;;) {
    const int64_t now = NowNs();
    if (!timing && now >= window_start) {
      timing = true;
      cpu0 = ProcessCpuNs();
      thread0 = ThreadCpuNs();
      wall0 = now;
      slices.Start(now);
    }
    if (timing && now >= window_end && first_pass_left == 0) break;
    Tracer* tr = timing ? tracer : &off;
    for (size_t s = 0; s < width; ++s) {
      const Slot& slot = slots[s];
      const auto& t = pool[slot.trip].traj;
      wave[s] = serve::FleetPoint{slot.vid, t.edges[slot.pos],
                                  t.start_time + 2.0 * double(slot.pos)};
    }
    sink.alerts = 0;
    size_t fed;
    {
      ScopedSpan span(tr, kSpanFeedBatch, -1);
      fed = monitor.FeedBatch(wave);
    }
    report->Attempt(int64_t(width));
    report->Fail(int64_t(width - fed), "FeedBatch skipped points");

    if (shadowed) {
      const int64_t s0 = NowNs();
      const auto& net = *model.network();
      for (size_t s = 0; s < width; ++s) {
        Shadow& sh = shadows[s];
        const Slot& slot = slots[s];
        const auto& t = pool[slot.trip].traj;
        const traj::EdgeId e = wave[s].edge;
        sessions[s] = &*sh.session;
        edges[s] = e;
        streams[s] = &sh.stream;
        nrf[s] = slot.pos == 0 ? 0
                               : model.preprocessor().NormalRouteFeatureAt(
                                     t.sd(), t.start_time, sh.prev, e);
        if (slot.pos > 0 && timing) {
          ++out.rnel_considered;
          if (core::RnelDeterministicLabel(net, sh.prev,
                                           sh.session->labels().back(),
                                           e) >= 0) {
            ++out.rnel_decided;
          }
        }
        sh.prev = e;
      }
      {
        ScopedSpan span(tr, kSpanCoreFeedBatch, -1);
        model.detector().FeedBatch(sessions, edges, shadow_labels.data());
      }
      {
        ScopedSpan span(tr, kSpanNnStepBatch, -1);
        model.rsrnet().StepForwardBatch(edges, nrf, streams, &z, &probs);
      }
      if (timing) shadow_ns += NowNs() - s0;
    }

    int64_t verdicts = 0, lost = 0;
    for (size_t s = 0; s < width; ++s) {
      Slot& slot = slots[s];
      const auto& lt = pool[slot.trip];
      if (++slot.pos < lt.traj.edges.size()) continue;
      rl4oasd::Result<std::vector<uint8_t>> labels = std::vector<uint8_t>{};
      {
        ScopedSpan span(tr, kSpanEndTrip, slot.vid);
        labels = monitor.EndTrip(slot.vid);
      }
      report->Attempt(1);
      if (!labels.ok()) {
        report->Fail(1, "EndTrip: " + labels.status().ToString());
        ++lost;
      } else {
        ++verdicts;
        const uint64_t h = HashLabels(*labels);
        if (slot.vid < int64_t(pool.size())) {
          f1.Add(lt.labels, *labels);
          first_hash[slot.trip] = h;
          --first_pass_left;
        } else if (first_hash[slot.trip] != 0 && h != first_hash[slot.trip]) {
          ++label_mismatches;
        }
        if (shadowed) {
          const int64_t s0 = NowNs();
          std::vector<uint8_t> shadow_final;
          {
            ScopedSpan span(tr, kSpanCoreFinish, slot.vid);
            shadow_final = shadows[s].session->Finish();
          }
          if (shadow_final != *labels) ++shadow_mismatches;
          if (timing) shadow_ns += NowNs() - s0;
        }
      }
      start_trip(s);
    }
    const int64_t done = NowNs();
    if (timing) {
      const double round_ms = double(done - now) * 1e-6;
      for (int64_t k = 0; k < verdicts; ++k) out.verdict_ms.Add(done, round_ms);
      for (int64_t k = 0; k < lost; ++k) out.verdict_ms.Add(done, kInf);
      for (int64_t k = 0; k < sink.alerts; ++k) out.alert_ms.Add(done, round_ms);
      out.points += int64_t(fed);
      slices.Add(done, double(fed));
    }
  }
  const int64_t wall1 = NowNs();
  const int64_t cpu1 = ProcessCpuNs();
  const int64_t thread1 = ThreadCpuNs();
  // Trips still in flight when the window closed: end them uncounted.
  for (const Slot& slot : slots) {
    report->Attempt(1);
    if (!monitor.EndTrip(slot.vid).ok()) report->Fail(1, "EndTrip (drain)");
  }

  report->Check(label_mismatches == 0,
                "backfill: a replayed trip's labels differ from pass one");
  report->Check(shadow_mismatches == 0,
                "backfill: shadow session labels differ from the monitor's");
  out.f1 = f1.Compute().f1;
  out.points_per_s = slices.MedianRate();
  out.round_ms = 1e3 * double(width) / out.points_per_s;
  out.cpu_us_per_point = double(cpu1 - cpu0) * 1e-3 / double(out.points);
  out.descheduled_share =
      1.0 - double(thread1 - thread0) / double(wall1 - wall0);
  out.mean_points_per_s =
      double(out.points) / (double(wall1 - wall0 - shadow_ns) * 1e-9);
  out.stats = monitor.Stats();
  return out;
}

}  // namespace

void RunBackfill(const RunArgs& args, const Setup& setup, Report* report) {
  const auto pool = MakeTraffic(setup, args.seed, kPoolTrips);
  {
    // Reference check: the serving path labels a sample of trips exactly as
    // the offline detector does.
    serve::FleetConfig cfg;
    serve::FleetMonitor ref(setup.model.get(), cfg, nullptr);
    int64_t mismatches = 0;
    for (size_t i = 0; i < pool.size(); i += 64) {
      const auto& t = pool[i].traj;
      (void)ref.StartTrip(int64_t(i), t.sd(), t.start_time);
      for (size_t k = 0; k < t.edges.size(); ++k) {
        (void)ref.Feed(int64_t(i), t.edges[k], t.start_time + 2.0 * double(k));
      }
      auto labels = ref.EndTrip(int64_t(i));
      if (!labels.ok() || *labels != setup.model->Detect(t)) ++mismatches;
    }
    report->Check(mismatches == 0,
                  "backfill: monitor labels differ from Rl4Oasd::Detect");
  }

  Tracer untraced(false);
  PassResult e2e = RunPass(setup, pool, args.seconds, &untraced, report);
  if (!args.trace) {
    report->Metric("f1", e2e.f1, "ratio");
    report->Metric("points_per_s", e2e.points_per_s, "1/s");
    report->Metric("fixes_per_s", e2e.points_per_s, "1/s");
    report->Metric("cpu_us_per_point", e2e.cpu_us_per_point, "us");
    report->Metric("alert_p50_ms", e2e.round_ms, "ms");
    report->Metric("verdict_p50_ms", e2e.round_ms, "ms");
    return;
  }

  Tracer tracer(true, 1 << 20);
  PassResult tr = RunPass(setup, pool, args.seconds, &tracer, report);
  report->Check(tr.f1 == e2e.f1, "backfill: f1 differs between passes");
  const double points = double(tr.points);
  const double serve_us = tracer.TotalUs(kSpanFeedBatch) / points;
  const double core_us = tracer.TotalUs(kSpanCoreFeedBatch) / points;
  const double nn_us = tracer.TotalUs(kSpanNnStepBatch) / points;
  report->Metric("serve.feedbatch_us_per_point", serve_us, "us");
  report->Metric("serve.self_us_per_point", serve_us - core_us, "us");
  report->Metric("serve.end_trip_us_p50",
                 Percentile(tracer.DurationsUs(kSpanEndTrip), 0.5), "us");
  report->Metric("core.feedbatch_us_per_point", core_us, "us");
  report->Metric("core.rnel_decided_share",
                 double(tr.rnel_decided) / double(tr.rnel_considered), "ratio");
  report->Metric("core.finish_us_p50",
                 Percentile(tracer.DurationsUs(kSpanCoreFinish), 0.5), "us");
  report->Metric("core.finish_samples",
                 double(tracer.DurationsUs(kSpanCoreFinish).size()), "count");
  report->Metric("nn.rsr_step_us_per_point", nn_us, "us");
  report->Metric("nn.rsr_step_share", core_us > 0 ? nn_us / core_us : 0.0,
                 "ratio");
  report->Metric("harness.descheduled_share", e2e.descheduled_share, "ratio");
  report->Metric("harness.trace_overhead_share",
                 e2e.mean_points_per_s / tr.mean_points_per_s - 1.0, "ratio");
  ReportSharedLayers(e2e.alert_ms, e2e.verdict_ms, tr.stats,
                     MeasureGuardCheck(setup, pool), report);
  report->Check(tracer.Write(args.work_dir + "/backfill.spans.tsv"),
                "backfill: could not write the span dump");
}

}  // namespace perfbench
