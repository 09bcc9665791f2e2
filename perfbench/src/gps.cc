// `gps`: closed loop on one thread over raw fixes. A seeded GpsSampler
// (noise plus fix dropout, so the matcher's gap paths run) turns the seeded
// trips into fixes; each fix goes through StreamingMatcher::MatchPoint, one
// Finish per trip, then every matched edge through scalar
// FleetMonitor::Feed and the trip through EndTrip — the composition
// `oasd_simulate --matched-ingest` uses.
//
// The traced pass wraps every call of one trip in four (the trip's spans
// share its vehicle id) and replays every trip's matched edges into a
// bench-owned core::OnlineDetector::Session and core::RsrStream (B = 1), and
// checks the shadow labels against the monitor's point for point.
#include <optional>

#include "core/detector.h"
#include "eval/metrics.h"
#include "mapmatch/streaming_matcher.h"
#include "perfbench/src/harness.h"
#include "serve/fleet.h"
#include "traj/gps_sampler.h"

namespace perfbench {
namespace {

constexpr size_t kPoolTrips = 8192;
constexpr double kNoiseM = 15.0;
constexpr double kDropout = 0.15;
constexpr double kWarmupS = 0.5;
constexpr int64_t kTraceEvery = 4;       // traced pass: span 1 trip in 4
constexpr size_t kMatchCheckEvery = 32;  // streamed == batch matching sample

/// Alert sink for synchronous delivery that does no work beyond stamping
/// each OnAlert against `anchor_ns`, the start of the trip's last
/// MatchPoint.
class AlertStampSink : public serve::AlertSink {
 public:
  void OnAlert(const serve::Alert& /*alert*/) override {
    if (!timing) return;
    const int64_t now = NowNs();
    alert_ms.Add(now, double(now - anchor_ns) * 1e-6);
  }
  bool timing = false;
  int64_t anchor_ns = 0;
  LatencySamples alert_ms;
};

struct PassResult {
  double f1 = 0.0;
  double fixes_per_s = 0.0;
  double points_per_s = 0.0;
  double cpu_us_per_point = 0.0;
  double descheduled_share = 0.0;
  // Mean rate over the window, shadow-replay time excluded (the traced
  // pass's comparable headline number).
  double mean_fixes_per_s = 0.0;
  int64_t fixes = 0;                // inside the timed window
  int64_t matched_fixes = 0;
  int64_t points = 0;
  int64_t trips = 0;
  int64_t matched_trips = 0;
  LatencySamples verdict_ms;
  LatencySamples alert_ms;
  serve::FleetStats stats;
  int64_t rnel_decided = 0;
  int64_t rnel_considered = 0;
  // First-pass streamed matches of the sampled trips (index into the pool).
  std::vector<std::pair<size_t, traj::MapMatchedTrajectory>> sampled;
};

PassResult RunPass(const Setup& setup,
                   const std::vector<traj::LabeledTrajectory>& pool,
                   const std::vector<traj::RawTrajectory>& raws,
                   double seconds, Tracer* tracer, Report* report) {
  const bool shadowed = tracer->enabled();
  const core::Rl4Oasd& model = *setup.model;
  serve::FleetConfig cfg;  // synchronous, scalar Feed
  AlertStampSink sink;
  serve::FleetMonitor monitor(&model, cfg, &sink);
  mapmatch::StreamingMatcher matcher(setup.matcher.get());

  PassResult out;
  rl4oasd::eval::F1Evaluator f1;
  std::vector<uint64_t> first_hash(pool.size(), 0);
  int64_t replay_mismatches = 0;
  int64_t shadow_mismatches = 0;
  Tracer off(false);

  const int64_t t_begin = NowNs();
  const int64_t window_start = t_begin + int64_t(kWarmupS * 1e9);
  const int64_t window_end = window_start + int64_t(seconds * 1e9);
  bool timing = false;
  int64_t cpu0 = 0, thread0 = 0, wall0 = 0;
  int64_t shadow_ns = 0;
  SliceRates fix_slices(kRateSliceS);
  SliceRates point_slices(kRateSliceS);
  for (int64_t vid = 0;; ++vid) {
    const int64_t now = NowNs();
    if (!timing && now >= window_start) {
      timing = true;
      sink.timing = true;
      cpu0 = ProcessCpuNs();
      thread0 = ThreadCpuNs();
      wall0 = now;
      fix_slices.Start(now);
      point_slices.Start(now);
    }
    const bool first_pass = vid < int64_t(pool.size());
    if (timing && now >= window_end && !first_pass) break;
    const size_t idx = size_t(vid) % pool.size();
    const auto& lt = pool[idx];
    const auto& fixes = raws[idx].points;
    Tracer* tr = timing && vid % kTraceEvery == 0 ? tracer : &off;
    const int32_t root = tr->Begin(kSpanTrip, vid);

    matcher.Reset(vid);
    int64_t anchor = now;
    int64_t layers = 0;
    for (size_t k = 0; k < fixes.size(); ++k) {
      if (k + 1 == fixes.size()) anchor = NowNs();
      ScopedSpan span(tr, kSpanMatchPoint, vid, root);
      layers += matcher.MatchPoint(fixes[k]) ? 1 : 0;
    }
    sink.anchor_ns = anchor;
    rl4oasd::Result<traj::MapMatchedTrajectory> matched = [&] {
      ScopedSpan span(tr, kSpanMatchFinish, vid, root);
      return matcher.Finish();
    }();
    report->Attempt(1);
    bool ok = matched.ok() && matched->edges.size() >= 2;
    if (!ok) report->Fail(1, "no map match for trip " + std::to_string(vid));

    std::vector<int> pre_dl;  // labels Feed returned, for the shadow check
    rl4oasd::Result<std::vector<uint8_t>> labels = std::vector<uint8_t>{};
    if (ok) {
      const auto& edges = matched->edges;
      {
        ScopedSpan span(tr, kSpanStartTrip, vid, root);
        const auto st =
            monitor.StartTrip(vid, lt.traj.sd(), matched->start_time);
        report->Attempt(1);
        if (!st.ok()) report->Fail(1, "StartTrip: " + st.ToString());
      }
      report->Attempt(int64_t(edges.size()));
      for (size_t k = 0; k < edges.size(); ++k) {
        ScopedSpan span(tr, kSpanFeed, vid, root);
        auto label = monitor.Feed(vid, edges[k],
                                  matched->start_time + 2.0 * double(k));
        if (!label.ok()) {
          report->Fail(1, "Feed: " + label.status().ToString());
          ok = false;
        } else if (shadowed) {
          pre_dl.push_back(*label);
        }
      }
      {
        ScopedSpan span(tr, kSpanEndTrip, vid, root);
        labels = monitor.EndTrip(vid);
      }
      report->Attempt(1);
      if (!labels.ok()) {
        report->Fail(1, "EndTrip: " + labels.status().ToString());
        ok = false;
      }
    }
    const int64_t done = NowNs();
    tr->End(root);

    if (timing) {
      out.verdict_ms.Add(done, ok ? double(done - anchor) * 1e-6 : kInf);
      out.fixes += int64_t(fixes.size());
      out.matched_fixes += layers;
      out.trips += 1;
      out.matched_trips += ok ? 1 : 0;
      if (ok) out.points += int64_t(matched->edges.size());
      fix_slices.Add(done, double(fixes.size()));
      point_slices.Add(done, ok ? double(matched->edges.size()) : 0.0);
    }
    if (!ok) continue;

    uint64_t h = HashLabels(*labels);
    for (traj::EdgeId e : matched->edges) h = h * 31 + uint64_t(e);
    if (first_pass) {
      f1.Add(lt.labels, AlignLabels(lt.traj.edges, matched->edges, *labels));
      first_hash[idx] = h;
      if (idx % kMatchCheckEvery == 0) out.sampled.emplace_back(idx, *matched);
    } else if (first_hash[idx] != 0 && h != first_hash[idx]) {
      ++replay_mismatches;
    }

    if (shadowed) {
      const int64_t s0 = NowNs();
      const auto& edges = matched->edges;
      const auto sd = lt.traj.sd();
      const double start = matched->start_time;
      auto session = model.StartSession(sd, start);
      core::RsrStream stream(model.rsrnet().stream_state_size());
      std::array<float, 2> probs{};
      const auto& net = *model.network();
      for (size_t k = 0; k < edges.size(); ++k) {
        const uint8_t nrf =
            k == 0 ? 0
                   : model.preprocessor().NormalRouteFeatureAt(
                         sd, start, edges[k - 1], edges[k]);
        if (k > 0 && timing) {
          ++out.rnel_considered;
          if (core::RnelDeterministicLabel(net, edges[k - 1],
                                           session.labels().back(),
                                           edges[k]) >= 0) {
            ++out.rnel_decided;
          }
        }
        int label;
        {
          ScopedSpan span(tr, kSpanCoreFeed, vid);
          label = session.Feed(edges[k]);
        }
        {
          ScopedSpan span(tr, kSpanNnStep, vid);
          (void)model.rsrnet().StepForward(edges[k], nrf, &stream, &probs);
        }
        if (label != pre_dl[k]) ++shadow_mismatches;
      }
      std::vector<uint8_t> final_labels;
      {
        ScopedSpan span(tr, kSpanCoreFinish, vid);
        final_labels = session.Finish();
      }
      if (final_labels != *labels) ++shadow_mismatches;
      if (timing) shadow_ns += NowNs() - s0;
    }
  }
  const int64_t wall1 = NowNs();
  const int64_t cpu1 = ProcessCpuNs();
  const int64_t thread1 = ThreadCpuNs();

  report->Check(replay_mismatches == 0,
                "gps: a replayed trip matched or labeled differently");
  report->Check(shadow_mismatches == 0,
                "gps: shadow session labels differ from the monitor's");
  out.f1 = f1.Compute().f1;
  out.fixes_per_s = fix_slices.MedianRate();
  out.points_per_s = point_slices.MedianRate();
  out.cpu_us_per_point = double(cpu1 - cpu0) * 1e-3 / double(out.points);
  out.descheduled_share =
      1.0 - double(thread1 - thread0) / double(wall1 - wall0);
  out.mean_fixes_per_s =
      double(out.fixes) / (double(wall1 - wall0 - shadow_ns) * 1e-9);
  out.alert_ms = std::move(sink.alert_ms);
  out.stats = monitor.Stats();
  return out;
}

void Percentiles(Report* report, const std::string& name, const Tracer& t,
                 int32_t span, bool p99) {
  const std::vector<double> d = t.DurationsUs(span);
  report->Metric(name + "_us_p50", Percentile(d, 0.5), "us");
  if (p99) report->Metric(name + "_us_p99", Percentile(d, 0.99), "us");
  report->Metric(name + "_samples", double(d.size()), "count");
}

}  // namespace

void RunGps(const RunArgs& args, const Setup& setup, Report* report) {
  const auto pool = MakeTraffic(setup, args.seed, kPoolTrips);
  std::vector<traj::RawTrajectory> raws;
  {
    traj::GpsSamplerConfig gps;
    gps.noise_sigma_m = kNoiseM;
    gps.dropout_prob = kDropout;
    traj::GpsSampler sampler(&setup.city->net, gps, args.seed * 7919 + 3);
    raws.reserve(pool.size());
    for (const auto& lt : pool) raws.push_back(sampler.Sample(lt.traj));
  }

  Tracer untraced(false);
  PassResult e2e = RunPass(setup, pool, raws, args.seconds, &untraced, report);
  {
    // Output check: on a sample of trips the streamed Finish() equals batch
    // HmmMapMatcher::Match on the same fixes.
    int64_t mismatches = 0;
    for (const auto& [idx, streamed] : e2e.sampled) {
      auto batch = setup.matcher->Match(raws[idx]);
      if (!batch.ok() || batch->edges != streamed.edges ||
          batch->start_time != streamed.start_time) {
        ++mismatches;
      }
    }
    report->Check(!e2e.sampled.empty() && mismatches == 0,
                  "gps: streamed matching differs from HmmMapMatcher::Match");
  }
  if (!args.trace) {
    report->Metric("f1", e2e.f1, "ratio");
    report->Metric("points_per_s", e2e.points_per_s, "1/s");
    report->Metric("fixes_per_s", e2e.fixes_per_s, "1/s");
    report->Metric("cpu_us_per_point", e2e.cpu_us_per_point, "us");
    ReportLatencies(e2e.alert_ms, e2e.verdict_ms, report);
    return;
  }

  Tracer tracer(true, 1 << 22);
  PassResult tr = RunPass(setup, pool, raws, args.seconds, &tracer, report);
  report->Check(tr.f1 == e2e.f1, "gps: f1 differs between passes");
  Percentiles(report, "mapmatch.match_point", tracer, kSpanMatchPoint, true);
  Percentiles(report, "mapmatch.finish", tracer, kSpanMatchFinish, false);
  // Self time of the matcher's spans over the traced trips' wall time.
  report->Metric("mapmatch.busy_share",
                 (tracer.SelfUs(kSpanMatchPoint) +
                  tracer.SelfUs(kSpanMatchFinish)) / tracer.TotalUs(kSpanTrip),
                 "ratio");
  report->Metric("mapmatch.edges_per_fix",
                 double(tr.points) / double(tr.fixes), "ratio");
  report->Metric("mapmatch.matched_fix_share",
                 double(tr.matched_fixes) / double(tr.fixes), "ratio");
  report->Metric("mapmatch.matched_trip_share",
                 double(tr.matched_trips) / double(tr.trips), "ratio");
  report->Metric("serve.start_trip_us_p50",
                 Percentile(tracer.DurationsUs(kSpanStartTrip), 0.5), "us");
  Percentiles(report, "serve.feed", tracer, kSpanFeed, false);
  report->Metric("serve.end_trip_us_p50",
                 Percentile(tracer.DurationsUs(kSpanEndTrip), 0.5), "us");
  const std::vector<double> core_feed = tracer.DurationsUs(kSpanCoreFeed);
  const double serve_sum = tracer.TotalUs(kSpanFeed);
  const double core_sum = tracer.TotalUs(kSpanCoreFeed);
  const double nn_sum = tracer.TotalUs(kSpanNnStep);
  report->Metric("serve.self_us_per_point",
                 (serve_sum - core_sum) / double(core_feed.size()), "us");
  Percentiles(report, "core.feed", tracer, kSpanCoreFeed, false);
  Percentiles(report, "core.finish", tracer, kSpanCoreFinish, false);
  report->Metric("core.rnel_decided_share",
                 double(tr.rnel_decided) / double(tr.rnel_considered), "ratio");
  const std::vector<double> nn = tracer.DurationsUs(kSpanNnStep);
  report->Metric("nn.rsr_step_b1_us", Percentile(nn, 0.5), "us");
  report->Metric("nn.rsr_step_b1_samples", double(nn.size()), "count");
  report->Metric("nn.rsr_step_share", nn_sum / core_sum, "ratio");
  report->Metric("harness.descheduled_share", e2e.descheduled_share, "ratio");
  report->Metric("harness.trace_overhead_share",
                 e2e.mean_fixes_per_s / tr.mean_fixes_per_s - 1.0, "ratio");
  ReportSharedLayers(e2e.alert_ms, e2e.verdict_ms, tr.stats,
                     MeasureGuardCheck(setup, pool), report);
  report->Check(tracer.Write(args.work_dir + "/gps.spans.tsv"),
                "gps: could not write the span dump");
}

}  // namespace perfbench
