// Shared harness of the end-to-end benchmark: clocks, percentiles, the
// result report, the bench-side span tracer, the fixed set-up (city, trained
// and round-tripped model, map matcher) and the seeded traffic that every
// workload replays. The program is driven only through its public APIs; every
// timer here lives on the bench side of those calls.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/rl4oasd.h"
#include "mapmatch/hmm_matcher.h"
#include "serve/fleet.h"
#include "traj/generator.h"
#include "traj/types.h"

namespace perfbench {

namespace core = rl4oasd::core;
namespace mapmatch = rl4oasd::mapmatch;
namespace serve = rl4oasd::serve;
namespace traj = rl4oasd::traj;

inline constexpr double kInf = std::numeric_limits<double>::infinity();
/// Rates are medians over slices of kRateSliceS (SliceRates); latency
/// percentiles medians over groups of kLatencyGroup samples (LatencySamples).
inline constexpr double kRateSliceS = 0.25;
inline constexpr size_t kLatencyGroup = 200;

// -- Clocks and memory --------------------------------------------------------

int64_t NowNs();          // steady clock
int64_t ThreadCpuNs();    // CPU time of the calling thread
int64_t ProcessCpuNs();   // CPU time of every thread of the process
double VmHwmMb();         // resident-set high-water mark
double VmRssMb();         // current resident set

/// Reserves room for `n` elements of `v` and touches its pages, so that
/// filling it later neither reallocates nor grows the resident set.
template <typename T>
void ReserveResident(std::vector<T>* v, size_t n) {
  v->resize(n);
  v->clear();
}

/// Nearest-rank percentile (q in [0, 1]); +inf samples (lost work) sort last.
/// 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);

/// Median of per-slice rates: the timed window is cut into slices of equal
/// wall time and each slice's work/second is one sample, so a transient
/// deschedule moves one sample, not the reported value.
class SliceRates {
 public:
  explicit SliceRates(double slice_s) : slice_ns_(int64_t(slice_s * 1e9)) {}
  /// Opens the first slice at `now_ns`.
  void Start(int64_t now_ns);
  /// Adds `work` units completed at `now_ns`; closes slices as they fill.
  void Add(int64_t now_ns, double work);
  double MedianRate() const { return Percentile(rates_, 0.5); }

 private:
  int64_t slice_ns_;
  int64_t slice_start_ = 0;
  double slice_work_ = 0.0;
  std::vector<double> rates_;
};

/// Latency samples, each tagged with the instant it belongs to. The reported
/// percentile is the median over consecutive groups of kLatencyGroup samples
/// (in time order) of each group's percentile: a group holds 20 samples
/// beyond its p90, and a burst of host CPU steal that stalls a few groups
/// moves the tail of the distribution (reported per layer), not the gated
/// value.
class LatencySamples {
 public:
  void Add(int64_t at_ns, double value) { samples_.emplace_back(at_ns, value); }
  double MedianOfGroups(double q) const;
  std::vector<double> all() const;

 private:
  std::vector<std::pair<int64_t, double>> samples_;
};

// -- Result report ------------------------------------------------------------

/// Metrics, output checks and failure accounting of one run; renders the
/// result line run.py forwards.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  /// Records a violated output check (the run then reports correct=false).
  void Check(bool ok, const std::string& what);
  /// Operations attempted against the program, and those that failed.
  void Attempt(int64_t n) { attempted_ += n; }
  void Fail(int64_t n, const std::string& what);
  bool correct() const { return violations_.empty(); }
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> violations_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// -- Tracing ------------------------------------------------------------------

/// Span names, one per program call the bench wraps (plus the per-trip root).
enum SpanName : int32_t {
  kSpanTrip = 0,
  kSpanMatchPoint,
  kSpanMatchFinish,
  kSpanStartTrip,
  kSpanFeed,
  kSpanFeedBatch,
  kSpanEndTrip,
  kSpanSubmit,
  kSpanSubmitEnd,
  kSpanEvictSweep,
  kSpanCoreFeed,
  kSpanCoreFeedBatch,
  kSpanCoreFinish,
  kSpanNnStep,
  kSpanNnStepBatch,
  kNumSpanNames,
};
const char* SpanNameOf(int32_t name);

/// Bench-side spans (name, start, end, parent, trip) kept in memory and
/// written out when the run ends. Single-threaded: one tracer per thread.
/// Disabled tracers record nothing and cost one branch per call.
class Tracer {
 public:
  struct Span {
    int32_t name;
    int32_t parent;  // span id, -1 for a root
    int64_t trip;    // vehicle id the span belongs to
    int64_t start_ns;
    int64_t end_ns;
  };

  explicit Tracer(bool enabled, size_t reserve = 0);
  bool enabled() const { return enabled_; }
  /// Touches the pages of the reserved span buffer (before any span).
  void TouchReserved() { ReserveResident(&spans_, spans_.capacity()); }
  /// Opens a span and returns its id (-1 when disabled).
  int32_t Begin(int32_t name, int64_t trip, int32_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, parent, trip, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }

  /// Durations (us) of every span named `name`, and their sum.
  std::vector<double> DurationsUs(int32_t name) const;
  double TotalUs(int32_t name) const;
  /// Sum of self time (us) of spans named `name`: each span's duration minus
  /// the part its child spans cover.
  double SelfUs(int32_t name) const;
  /// Writes the spans as TSV (id, name, parent, trip, start_ns, end_ns).
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span over one program call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, int32_t name, int64_t trip, int32_t parent = -1)
      : t_(t), id_(t->Begin(name, trip, parent)) {}
  ~ScopedSpan() { t_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int32_t id_;
};

// -- Set-up and inputs --------------------------------------------------------

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // working files (model bundle, span dumps)
};

/// The program's set-up: the Chengdu-like city, Rl4Oasd::Fit with
/// TunedConfig, the io::SaveModel -> LoadModel round trip (the loaded model
/// is the one served) and, for raw-GPS workloads, the HMM matcher. The
/// training corpus is fixed (bench_util defaults); the workload seed only
/// shapes the traffic.
struct Setup {
  std::unique_ptr<rl4oasd::bench::CityData> city;
  std::unique_ptr<core::Rl4Oasd> model;
  std::unique_ptr<mapmatch::HmmMapMatcher> matcher;
  std::vector<traj::SdPairInfo> pairs;  // the city's SD pairs + normal routes
  // Medians over the set-up repetitions.
  double setup_s = 0.0;
  double fit_s = 0.0;
  core::Rl4Oasd::FitTimings phases;
  double save_s = 0.0;
  double load_s = 0.0;
  double bundle_kb = 0.0;
  double matcher_build_s = 0.0;
};

/// Runs the set-up `reps` times (timing every repetition) and keeps the last
/// one. Every repetition must produce a bit-identical bundle.
Setup RunSetup(const RunArgs& args, bool with_matcher, int reps,
               Report* report);

/// `n` labeled trips over the city's SD pairs, drawn like the generator's
/// own dataset (route popularity, anomaly ratio, detours) from a stream
/// seeded by `seed`: the same seed gives the same trips.
std::vector<traj::LabeledTrajectory> MakeTraffic(const Setup& setup,
                                                 uint64_t seed, size_t n);

/// Projects labels predicted over `matched` edges onto the ground-truth edge
/// sequence `truth` by a monotone edge-id alignment; ground-truth positions
/// with no matched counterpart are labeled normal.
std::vector<uint8_t> AlignLabels(const std::vector<traj::EdgeId>& truth,
                                 const std::vector<traj::EdgeId>& matched,
                                 const std::vector<uint8_t>& labels);

/// Per-call cost (ns) of serve::IngestGuard::Check over `trips` replayed as
/// clean 2 s-cadence streams on bench-owned guard state: the median of
/// per-trip means, the number of calls behind it, and how many of those
/// clean points the guard refused (must be 0).
struct GuardCost {
  double ns_p50 = 0.0;
  int64_t calls = 0;
  int64_t refused = 0;
};
GuardCost MeasureGuardCheck(const Setup& setup,
                            const std::vector<traj::LabeledTrajectory>& trips);

/// FNV-1a over a label sequence (replay determinism checks).
uint64_t HashLabels(const std::vector<uint8_t>& labels);

/// The latency end-to-end metrics: alert_p50_ms and verdict_p50_ms.
void ReportLatencies(const LatencySamples& alert_ms,
                     const LatencySamples& verdict_ms, Report* report);

/// The per-layer metrics every workload shares: latency tails and sample
/// counts, the monitor's counters, alerts per kpoint and the ingest guard's
/// cost over the workload's trips (which must all pass the guard).
void ReportSharedLayers(const LatencySamples& alert_ms,
                        const LatencySamples& verdict_ms,
                        const serve::FleetStats& stats, const GuardCost& guard,
                        Report* report);

// -- Workloads ----------------------------------------------------------------

void RunLive(const RunArgs& args, const Setup& setup, Report* report);
void RunBackfill(const RunArgs& args, const Setup& setup, Report* report);
void RunGps(const RunArgs& args, const Setup& setup, Report* report);

}  // namespace perfbench
