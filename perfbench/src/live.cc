// `live`: the async serving path, open loop. One generator thread (the main
// thread) sends pre-matched edge points of many concurrent vehicles on a
// fixed wall-clock schedule at one offered rate, through StartTrip ->
// Submit -> SubmitEndTrip, into a FleetMonitor with one ingest worker and
// async alert delivery (3 busy threads on a 4-vCPU budget). Trips are
// staggered so trip ends arrive at a steady rate; the schedule opens with
// the fleet already at its steady concurrency (trips begun "before" t = 0
// join mid-route), and timing starts after a warm-up. A seeded share of
// vehicles vanishes mid-trip; periodic EvictStale sweeps on the generator
// thread remove them. Latencies are timed from each event's due time, so
// generator stalls count.
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <malloc.h>
#include <mutex>

#include "common/rng.h"
#include "eval/metrics.h"
#include "perfbench/src/harness.h"
#include "serve/fleet.h"

namespace perfbench {
namespace {

constexpr double kRatePerS = 50000.0;    // offered points per second
constexpr double kPointGapS = 0.16;      // wall time between a trip's points
constexpr int64_t kTickNs = 250000;      // due times fall on a 250 us grid
constexpr double kSimStepS = 2.0;        // simulated time between them
constexpr double kSimOriginS = 8 * 3600.0;
constexpr double kVanishShare = 0.02;    // of trips that start at t >= 0
constexpr double kSweepPeriodS = 0.25;
constexpr double kTripTimeoutSimS = 30.0;  // 2.4 s of wall time
constexpr double kWarmupS = 1.0;
constexpr double kStatsPeriodS = 0.01;   // traced pass: Stats() sampling
constexpr size_t kIngestWorkers = 1;
constexpr int64_t kTraceEvery = 4;       // traced pass: span 1 vehicle in 4
constexpr size_t kDetectCheckEvery = 16;

double SimTime(int64_t due_ns) {
  return kSimOriginS + double(due_ns) * 1e-9 * (kSimStepS / kPointGapS);
}

/// One vehicle's trip on the schedule (the vehicle id is its index).
struct Trip {
  size_t traffic = 0;     // index into the generated trips
  int64_t due0_ns = 0;    // due time of point 0 (negative: begun before t=0)
  uint32_t first = 0;     // first point sent (> 0: joins mid-route)
  uint32_t sent_end = 0;  // one past the last point sent
  bool vanishes = false;  // stops sending after sent_end, never ends
  bool end_sent = false;  // the end marker is on the schedule
  int64_t PointDue(size_t j) const {
    return due0_ns + int64_t(double(j) * kPointGapS * 1e9);
  }
};

enum Kind : uint8_t { kStart, kPoint, kEnd, kSweep, kMark, kSample };

struct Event {
  int64_t due_ns;
  uint32_t trip;  // vehicle id (kMark: 0 = window open, 1 = close)
  uint32_t j;     // point index
  Kind kind;
};

struct Schedule {
  std::vector<traj::LabeledTrajectory> traffic;
  std::vector<Trip> trips;
  std::vector<Event> events;
  std::vector<int64_t> vanished;  // sorted vehicle ids
  int64_t window_start_ns = 0;
  int64_t window_end_ns = 0;
};

Schedule MakeSchedule(const Setup& setup, uint64_t seed, double seconds) {
  Schedule s;
  s.window_start_ns = int64_t(kWarmupS * 1e9);
  s.window_end_ns = s.window_start_ns + int64_t(seconds * 1e9);
  // A first draw sizes the trip-start rate from the mean route length.
  const double end_s = kWarmupS + seconds;
  s.traffic = MakeTraffic(setup, seed, 4096);
  double mean_len = 0.0;
  size_t max_len = 0;
  for (const auto& lt : s.traffic) {
    mean_len += double(lt.traj.edges.size());
    max_len = std::max(max_len, lt.traj.edges.size());
  }
  mean_len /= double(s.traffic.size());
  const double trips_per_s = kRatePerS / mean_len;
  const double lead_s = double(max_len) * kPointGapS;  // covers every route
  const size_t n = size_t((lead_s + end_s) * trips_per_s) + 1;
  s.traffic = MakeTraffic(setup, seed, n);

  rl4oasd::Rng rng(seed * 104729 + 17);
  const int64_t end_ns = s.window_end_ns;
  for (size_t k = 0; k < n; ++k) {
    const double t0 = -lead_s + (double(k) + rng.Uniform()) / trips_per_s;
    const bool vanish_draw = rng.Bernoulli(kVanishShare);
    const double vanish_u = rng.Uniform();
    Trip trip;
    trip.traffic = k;
    // Floor to the tick grid; kPointGapS is a whole number of ticks, so
    // every point of the trip falls on the grid too.
    const int64_t raw_ns = int64_t(std::floor(t0 * 1e9 / double(kTickNs)));
    trip.due0_ns = raw_ns * kTickNs;
    const size_t len = s.traffic[k].traj.edges.size();
    while (trip.first < len && trip.PointDue(trip.first) < 0) ++trip.first;
    if (trip.first == len || trip.PointDue(trip.first) >= end_ns) continue;
    trip.sent_end = uint32_t(len);
    trip.vanishes = trip.first == 0 && vanish_draw;
    if (trip.vanishes) {
      trip.sent_end = 1 + uint32_t(vanish_u * double(len - 2));
    }
    while (trip.sent_end > trip.first &&
           trip.PointDue(trip.sent_end - 1) >= end_ns) {
      --trip.sent_end;
    }
    trip.end_sent = !trip.vanishes && trip.sent_end == len;
    const uint32_t vid = uint32_t(s.trips.size());
    s.events.push_back(Event{trip.PointDue(trip.first), vid, 0, kStart});
    for (uint32_t j = trip.first; j < trip.sent_end; ++j) {
      s.events.push_back(Event{trip.PointDue(j), vid, j, kPoint});
    }
    if (trip.end_sent) {
      s.events.push_back(Event{trip.PointDue(len - 1), vid, 0, kEnd});
    }
    if (trip.vanishes) s.vanished.push_back(vid);
    s.trips.push_back(trip);
  }
  for (int64_t t = int64_t(kSweepPeriodS * 1e9); t < end_ns;
       t += int64_t(kSweepPeriodS * 1e9)) {
    s.events.push_back(Event{t, 0, 0, kSweep});
  }
  for (int64_t t = s.window_start_ns; t < end_ns;
       t += int64_t(kStatsPeriodS * 1e9)) {
    s.events.push_back(Event{t, 0, 0, kSample});
  }
  s.events.push_back(Event{s.window_start_ns, 0, 0, kMark});
  s.events.push_back(Event{end_ns, 1, 0, kMark});
  // Stable: a trip's start, points and end marker keep their order at equal
  // due times.
  std::stable_sort(s.events.begin(), s.events.end(),
                   [](const Event& a, const Event& b) {
                     return a.due_ns < b.due_ns;
                   });
  return s;
}

/// Records delivery times, final labels and evictions (called on the
/// monitor's delivery thread).
class LiveSink : public serve::AlertSink {
 public:
  /// Sized for `sched` up front (with room for one alert per trip), so that
  /// recording deliveries neither allocates nor grows the resident set.
  explicit LiveSink(const Schedule& sched)
      : end_ns_(sched.trips.size(), 0), labels_(sched.trips.size()) {
    for (size_t vid = 0; vid < sched.trips.size(); ++vid) {
      const Trip& trip = sched.trips[vid];
      labels_[vid].reserve(sched.traffic[trip.traffic].traj.edges.size());
    }
    ReserveResident(&alerts_, sched.trips.size());
    ReserveResident(&evicted_, sched.vanished.size());
  }

  void OnAlert(const serve::Alert& a) override {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    alerts_.push_back(Delivered{a.vehicle_id, a.position, now});
  }
  void OnTripEnd(int64_t vid, const std::vector<uint8_t>& labels) override {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    end_ns_[size_t(vid)] = now;
    labels_[size_t(vid)] = labels;
    ++ends_;
  }
  void OnTripEvicted(int64_t vid, double /*start*/,
                     const std::vector<uint8_t>& /*labels*/) override {
    std::lock_guard<std::mutex> lock(mu_);
    evicted_.push_back(vid);
  }

  struct Delivered {
    int64_t vid;
    size_t position;
    int64_t ns;
  };
  // Read only after FleetMonitor::Quiesce().
  const std::vector<int64_t>& end_ns() const { return end_ns_; }
  const std::vector<std::vector<uint8_t>>& labels() const { return labels_; }
  const std::vector<Delivered>& alerts() const { return alerts_; }
  std::vector<int64_t> evicted() const { return evicted_; }
  int64_t ends() const { return ends_; }

 private:
  std::mutex mu_;
  std::vector<int64_t> end_ns_;
  std::vector<std::vector<uint8_t>> labels_;
  std::vector<Delivered> alerts_;
  std::vector<int64_t> evicted_;
  int64_t ends_ = 0;
};

struct Snapshot {
  int64_t process_cpu = 0, gen_cpu = 0, gen_in_calls = 0;
  int64_t processed = 0;
};

struct PassResult {
  double f1 = 0.0;
  double cpu_us_per_point = 0.0;
  LatencySamples verdict_ms;
  LatencySamples alert_ms;
  serve::FleetStats stats;
  // Traced pass only.
  std::vector<double> late_ms;
  std::vector<double> sweep_ms;
  std::vector<double> evicted_per_sweep;
  std::vector<std::pair<double, double>> staging_backlog;  // (s, points)
  double delivery_backlog_max = 0.0;
  double rss_bytes_per_trip = 0.0;
};

void SleepUntil(int64_t t_ns) {
  timespec ts{};
  ts.tv_sec = t_ns / 1000000000;
  ts.tv_nsec = t_ns % 1000000000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// Pins the calling thread — and the threads it then spawns — to the last
/// CPU it may run on, restoring the previous mask on destruction.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) last = c;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(last, &one);
    pinned_ = last >= 0 && sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinToOneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

PassResult RunPass(const Setup& setup, const Schedule& sched, Tracer* tracer,
                   Report* report) {
  const bool traced = tracer->enabled();
  // All three threads (generator, ingest worker, delivery) share one vCPU:
  // on a shared VM, host CPU steal lands on cross-vCPU wake-ups, which made
  // the latency tail swing tenfold between runs of identical code.
  const PinToOneCpu pin;

  serve::FleetConfig cfg;
  cfg.ingest_workers = kIngestWorkers;
  cfg.async_alerts = true;
  cfg.overload_policy = serve::OverloadPolicy::kBlock;
  cfg.trip_timeout_s = kTripTimeoutSimS;
  LiveSink sink(sched);
  PassResult out;
  if (traced) {
    size_t late = 0, samples = 0;
    for (const Event& ev : sched.events) {
      late += ev.kind <= kEnd ? 1 : 0;
      samples += ev.kind == kSample ? 1 : 0;
    }
    ReserveResident(&out.late_ms, late);
    ReserveResident(&out.staging_backlog, samples);
  }
  // Every bench-side buffer the pass fills is resident by now (the tracer's
  // too, see RunLive), so the traced pass's RSS delta is the fleet's own.
  malloc_trim(0);
  const double rss0 = traced ? VmRssMb() : 0.0;
  int64_t started = 0, submitted = 0, end_markers = 0;
  {
    serve::FleetMonitor monitor(setup.model.get(), cfg, &sink);
    std::vector<bool> open(sched.trips.size(), false);
    Snapshot snap[2];
    int64_t gen_in_calls = 0;
    prctl(PR_SET_TIMERSLACK, 1UL);  // sleep to the due time, not 50 us past it
    const int64_t t0 = NowNs() + 1000000;
    size_t i = 0;
    const size_t n = sched.events.size();
    while (i < n) {
      const int64_t now = NowNs() - t0;
      if (sched.events[i].due_ns > now) {
        SleepUntil(t0 + sched.events[i].due_ns);
        continue;
      }
      const int64_t burst_cpu = ThreadCpuNs();
      for (; i < n && sched.events[i].due_ns <= now; ++i) {
        const Event& ev = sched.events[i];
        const Trip& trip = sched.trips[ev.trip];
        const int64_t vid = ev.trip;
        if (traced && ev.kind <= kEnd) {
          out.late_ms.push_back(double(NowNs() - t0 - ev.due_ns) * 1e-6);
        }
        Tracer* tr = vid % kTraceEvery == 0 ? tracer : nullptr;
        switch (ev.kind) {
          case kStart: {
            const auto& t = sched.traffic[trip.traffic].traj;
            const int32_t span = tr ? tr->Begin(kSpanStartTrip, vid) : -1;
            const auto st = monitor.StartTrip(
                vid, t.sd(), SimTime(trip.PointDue(trip.first)));
            if (tr) tr->End(span);
            report->Attempt(1);
            if (st.ok()) {
              ++started;
              open[size_t(vid)] = true;
            } else {
              report->Fail(1, "StartTrip: " + st.ToString());
            }
            break;
          }
          case kPoint: {
            const auto& t = sched.traffic[trip.traffic].traj;
            const int32_t span = tr ? tr->Begin(kSpanSubmit, vid) : -1;
            const auto st = monitor.Submit(serve::FleetPoint{
                vid, t.edges[ev.j], SimTime(trip.PointDue(ev.j))});
            if (tr) tr->End(span);
            report->Attempt(1);
            if (st.ok()) {
              ++submitted;
            } else {
              report->Fail(1, "Submit: " + st.ToString());
            }
            break;
          }
          case kEnd: {
            const int32_t span = tr ? tr->Begin(kSpanSubmitEnd, vid) : -1;
            const auto st = monitor.SubmitEndTrip(vid);
            if (tr) tr->End(span);
            report->Attempt(1);
            open[size_t(vid)] = false;
            if (st.ok()) {
              ++end_markers;
            } else {
              report->Fail(1, "SubmitEndTrip: " + st.ToString());
            }
            break;
          }
          case kSweep: {
            const int64_t s0 = NowNs();
            const int32_t span = tracer->Begin(kSpanEvictSweep, -1);
            const size_t evicted = monitor.EvictStale(SimTime(ev.due_ns));
            tracer->End(span);
            if (traced && ev.due_ns >= sched.window_start_ns) {
              out.sweep_ms.push_back(double(NowNs() - s0) * 1e-6);
              out.evicted_per_sweep.push_back(double(evicted));
            }
            break;
          }
          case kSample: {
            if (!traced) break;
            const serve::FleetStats st = monitor.Stats();
            out.staging_backlog.emplace_back(
                double(ev.due_ns) * 1e-9,
                double(st.points_submitted - st.points_processed));
            out.delivery_backlog_max =
                std::max(out.delivery_backlog_max,
                         double(st.alerts_emitted - st.alerts_delivered));
            const int64_t mid =
                (sched.window_start_ns + sched.window_end_ns) / 2;
            if (out.rss_bytes_per_trip == 0.0 && ev.due_ns >= mid) {
              out.rss_bytes_per_trip = (VmRssMb() - rss0) * 1048576.0 /
                                       double(monitor.ActiveTrips());
            }
            break;
          }
          case kMark: {
            Snapshot& m = snap[ev.trip];
            m.process_cpu = ProcessCpuNs();
            m.gen_cpu = ThreadCpuNs();
            m.gen_in_calls = gen_in_calls + (m.gen_cpu - burst_cpu);
            m.processed = monitor.Stats().points_processed;
            break;
          }
        }
      }
      gen_in_calls += ThreadCpuNs() - burst_cpu;
    }
    // Drain: end the trips the window cut short, then sweep out the
    // vanished vehicles the periodic sweeps had not reached yet.
    for (size_t vid = 0; vid < sched.trips.size(); ++vid) {
      if (!open[vid] || sched.trips[vid].vanishes) continue;
      report->Attempt(1);
      const auto st = monitor.SubmitEndTrip(int64_t(vid));
      if (!st.ok()) report->Fail(1, "SubmitEndTrip (drain): " + st.ToString());
      else ++end_markers;
    }
    monitor.Quiesce();
    (void)monitor.EvictStale(SimTime(sched.window_end_ns) +
                             100 * kTripTimeoutSimS);
    monitor.Quiesce();
    out.stats = monitor.Stats();

    const Snapshot& a = snap[0];
    const Snapshot& b = snap[1];
    const double gen_own =
        double((b.gen_cpu - a.gen_cpu) - (b.gen_in_calls - a.gen_in_calls));
    out.cpu_us_per_point = (double(b.process_cpu - a.process_cpu) - gen_own) *
                           1e-3 / double(b.processed - a.processed);

    // Conservation identities, exact after Quiesce.
    const serve::FleetStats& st = out.stats;
    report->Check(st.trips_started == started &&
                      st.trips_finished + st.trips_evicted == started &&
                      monitor.ActiveTrips() == 0,
                  "live: trip conservation (started == finished + evicted)");
    report->Check(st.points_submitted == submitted &&
                      st.points_processed == submitted && st.points_shed == 0,
                  "live: point conservation (submitted == processed)");
    report->Check(st.alerts_delivered == st.alerts_emitted &&
                      int64_t(sink.alerts().size()) == st.alerts_emitted &&
                      sink.ends() == st.trips_finished,
                  "live: every emitted alert and trip end was delivered");
    const int64_t ends_lost = end_markers - st.trips_finished;
    report->Fail(ends_lost, "trips whose end marker got no OnTripEnd");
    report->Fail(st.points_shed, "points shed");
    std::vector<int64_t> evicted = sink.evicted();
    std::sort(evicted.begin(), evicted.end());
    int64_t wrongly_evicted = 0;
    for (int64_t vid : evicted) {
      if (!sched.trips[size_t(vid)].vanishes) ++wrongly_evicted;
    }
    report->Fail(wrongly_evicted, "evictions of vehicles not set to vanish");
    report->Check(evicted == sched.vanished,
                  "live: evicted set differs from the seeded vanishing set");

    // Latencies from due times, over the timed window.
    const auto in_window = [&](int64_t due) {
      return due >= sched.window_start_ns && due < sched.window_end_ns;
    };
    rl4oasd::eval::F1Evaluator f1;
    int64_t f1_trips = 0;
    int64_t detect_mismatches = 0;
    for (size_t vid = 0; vid < sched.trips.size(); ++vid) {
      const Trip& trip = sched.trips[vid];
      if (!trip.end_sent) continue;
      const auto& lt = sched.traffic[trip.traffic];
      const int64_t due = trip.PointDue(lt.traj.edges.size() - 1);
      const int64_t end = sink.end_ns()[vid];
      if (in_window(due)) {
        out.verdict_ms.Add(due,
                           end == 0 ? kInf : double(end - t0 - due) * 1e-6);
        if (end == 0) out.alert_ms.Add(due, kInf);  // its alerts are lost too
      }
      if (trip.first != 0 || end == 0) continue;
      const auto& labels = sink.labels()[vid];
      f1.Add(lt.labels, labels);
      ++f1_trips;
      if (vid % kDetectCheckEvery == 0 &&
          labels != setup.model->Detect(lt.traj)) {
        ++detect_mismatches;
      }
    }
    report->Check(detect_mismatches == 0,
                  "live: delivered labels differ from Rl4Oasd::Detect");
    report->Check(f1_trips > 0,
                  "live: no trip ran start to end inside the schedule (f1 "
                  "has no support; run longer)");
    for (const auto& alert : sink.alerts()) {
      const Trip& trip = sched.trips[size_t(alert.vid)];
      const size_t sent = trip.sent_end - trip.first;
      // Runs closed by an eviction sweep or by the drain's EndTrip (trips
      // the window cut short) were not finalized by a scheduled event.
      if (trip.vanishes || (!trip.end_sent && alert.position >= sent)) continue;
      const size_t j = trip.first + std::min(alert.position, sent) - 1;
      const int64_t due = trip.PointDue(j);
      if (in_window(due)) {
        out.alert_ms.Add(due, double(alert.ns - t0 - due) * 1e-6);
      }
    }
    out.f1 = f1.Compute().f1;
  }
  return out;
}

/// Least-squares slope of (t, y) samples.
double Slope(const std::vector<std::pair<double, double>>& xy) {
  if (xy.size() < 2) return 0.0;
  double mx = 0, my = 0;
  for (const auto& [x, y] : xy) {
    mx += x;
    my += y;
  }
  mx /= double(xy.size());
  my /= double(xy.size());
  double num = 0, den = 0;
  for (const auto& [x, y] : xy) {
    num += (x - mx) * (y - my);
    den += (x - mx) * (x - mx);
  }
  return den > 0 ? num / den : 0.0;
}

}  // namespace

void RunLive(const RunArgs& args, const Setup& setup, Report* report) {
  const Schedule sched = MakeSchedule(setup, args.seed, args.seconds);
  Tracer untraced(false);
  PassResult e2e = RunPass(setup, sched, &untraced, report);
  if (!args.trace) {
    // Open loop: the wall-clock rate is the offered rate, so the throughput
    // metrics report serving capacity, points per second of serving CPU.
    report->Metric("f1", e2e.f1, "ratio");
    report->Metric("points_per_s", 1e6 / e2e.cpu_us_per_point, "1/s");
    report->Metric("fixes_per_s", 1e6 / e2e.cpu_us_per_point, "1/s");
    report->Metric("cpu_us_per_point", e2e.cpu_us_per_point, "us");
    ReportLatencies(e2e.alert_ms, e2e.verdict_ms, report);
    return;
  }

  Tracer tracer(true, sched.events.size() / kTraceEvery + 1024);
  tracer.TouchReserved();  // resident before the pass reads its RSS baseline
  PassResult tr = RunPass(setup, sched, &tracer, report);
  report->Check(tr.f1 == e2e.f1, "live: f1 differs between passes");
  const std::vector<double> submit = tracer.DurationsUs(kSpanSubmit);
  report->Metric("serve.submit_us_p50", Percentile(submit, 0.5), "us");
  report->Metric("serve.submit_us_p99", Percentile(submit, 0.99), "us");
  report->Metric("serve.submit_samples", double(submit.size()), "count");
  report->Metric("serve.start_trip_us_p50",
                 Percentile(tracer.DurationsUs(kSpanStartTrip), 0.5), "us");
  double backlog_mean = 0.0;
  for (const auto& [t, b] : tr.staging_backlog) backlog_mean += b;
  backlog_mean /= double(std::max<size_t>(1, tr.staging_backlog.size()));
  report->Metric("serve.staging_backlog_mean", backlog_mean, "count");
  report->Metric("serve.staging_backlog_slope", Slope(tr.staging_backlog),
                 "1/s");
  report->Metric("serve.delivery_backlog_max", tr.delivery_backlog_max,
                 "count");
  report->Metric("serve.evict_sweep_ms_p50", Percentile(tr.sweep_ms, 0.5),
                 "ms");
  report->Metric("serve.evict_sweep_samples", double(tr.sweep_ms.size()),
                 "count");
  double evicted = 0.0;
  for (double e : tr.evicted_per_sweep) evicted += e;
  const size_t sweeps = std::max<size_t>(1, tr.evicted_per_sweep.size());
  report->Metric("serve.evicted_per_sweep", evicted / double(sweeps), "count");
  report->Metric("serve.rss_bytes_per_trip", tr.rss_bytes_per_trip, "B");
  report->Metric("harness.gen_late_p50_ms", Percentile(tr.late_ms, 0.5), "ms");
  report->Metric("harness.gen_late_p99_ms", Percentile(tr.late_ms, 0.99), "ms");
  report->Metric("harness.gen_late_samples", double(tr.late_ms.size()),
                 "count");
  report->Metric("harness.trace_overhead_share",
                 tr.cpu_us_per_point / e2e.cpu_us_per_point - 1.0, "ratio");
  ReportSharedLayers(e2e.alert_ms, e2e.verdict_ms, tr.stats,
                     MeasureGuardCheck(setup, sched.traffic), report);
  report->Check(tracer.Write(args.work_dir + "/live.spans.tsv"),
                "live: could not write the span dump");
}

}  // namespace perfbench
