#include "perfbench/src/harness.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "io/model_io.h"
#include "serve/ingest_guard.h"

namespace perfbench {

namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

double StatusFieldMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

int64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }
int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
double VmHwmMb() { return StatusFieldMb("VmHWM"); }
double VmRssMb() { return StatusFieldMb("VmRSS"); }

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

void SliceRates::Start(int64_t now_ns) {
  slice_start_ = now_ns;
  slice_work_ = 0.0;
}

void SliceRates::Add(int64_t now_ns, double work) {
  slice_work_ += work;
  const int64_t elapsed = now_ns - slice_start_;
  if (elapsed < slice_ns_) return;
  rates_.push_back(slice_work_ / (static_cast<double>(elapsed) * 1e-9));
  Start(now_ns);
}

double LatencySamples::MedianOfGroups(double q) const {
  auto ordered = samples_;
  std::stable_sort(
      ordered.begin(), ordered.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  // A trailing partial group is dropped unless it is the only one.
  const size_t groups = std::max<size_t>(1, ordered.size() / kLatencyGroup);
  const size_t size = std::min(ordered.size(), kLatencyGroup);
  std::vector<double> per_group;
  for (size_t g = 0; g < groups && size > 0; ++g) {
    std::vector<double> group;
    for (size_t k = g * size; k < (g + 1) * size; ++k) {
      group.push_back(ordered[k].second);
    }
    per_group.push_back(Percentile(std::move(group), q));
  }
  return Percentile(std::move(per_group), 0.5);
}

std::vector<double> LatencySamples::all() const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const auto& s : samples_) out.push_back(s.second);
  return out;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

bool Report::Has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  violations_.push_back(what);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

void Report::Fail(int64_t n, const std::string& what) {
  if (n <= 0) return;
  failed_ += n;
  std::fprintf(stderr, "perfbench: %lld failed: %s\n",
               static_cast<long long>(n), what.c_str());
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    double v = metrics_[i].value;
    // JSON has no infinity: lost work that pushed a percentile to +inf is
    // rendered as an unmistakably huge value (and is counted as failed).
    if (!std::isfinite(v)) v = 1e300;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

const char* SpanNameOf(int32_t name) {
  static const char* const kNames[kNumSpanNames] = {
      "harness.trip",        "mapmatch.match_point", "mapmatch.finish",
      "serve.start_trip",    "serve.feed",           "serve.feed_batch",
      "serve.end_trip",      "serve.submit",         "serve.submit_end_trip",
      "serve.evict_stale",   "core.feed",            "core.feed_batch",
      "core.finish",         "nn.rsr_step",          "nn.rsr_step_batch",
  };
  return name >= 0 && name < kNumSpanNames ? kNames[name] : "?";
}

Tracer::Tracer(bool enabled, size_t reserve) : enabled_(enabled) {
  if (enabled_) spans_.reserve(reserve);
}

std::vector<double> Tracer::DurationsUs(int32_t name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(double(s.end_ns - s.start_ns) * 1e-3);
  }
  return out;
}

double Tracer::TotalUs(int32_t name) const {
  double total = 0.0;
  for (double d : DurationsUs(name)) total += d;
  return total;
}

double Tracer::SelfUs(int32_t name) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name == name) {
      total += double(s.end_ns - s.start_ns - child_ns[i]) * 1e-3;
    }
  }
  return total;
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tname\tparent\ttrip\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%d\t%lld\t%lld\t%lld\n", i, SpanNameOf(s.name),
                 s.parent, static_cast<long long>(s.trip),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

Setup RunSetup(const RunArgs& args, bool with_matcher, int reps,
               Report* report) {
  Setup s;
  s.city = std::make_unique<rl4oasd::bench::CityData>(
      rl4oasd::bench::MakeChengduLike());
  {
    // The city's generator, replayed to recover its SD pairs and normal
    // routes (input generation: outside setup_s).
    traj::TrajectoryGenerator gen(&s.city->net, s.city->generator_config);
    (void)gen.Generate();
    s.pairs = gen.pairs();
  }
  const std::string bundle =
      args.work_dir + "/model-" + std::to_string(getpid()) + ".rlmb";
  std::vector<double> total, fit, pre, emb, rsr, asd, joint, save, load, mm;
  uint64_t first_fingerprint = 0;
  for (int r = 0; r < reps; ++r) {
    s.model.reset();
    s.matcher.reset();
    const int64_t t0 = NowNs();
    core::Rl4Oasd trained(&s.city->net, rl4oasd::bench::TunedConfig());
    trained.Fit(s.city->train);
    const int64_t t1 = NowNs();
    const rl4oasd::Status saved = rl4oasd::io::SaveModel(trained, bundle);
    const int64_t t2 = NowNs();
    auto loaded = rl4oasd::io::LoadModel(&s.city->net, bundle);
    const int64_t t3 = NowNs();
    if (with_matcher) {
      s.matcher = std::make_unique<mapmatch::HmmMapMatcher>(&s.city->net);
    }
    const int64_t t4 = NowNs();
    report->Check(saved.ok(), "io::SaveModel: " + saved.ToString());
    report->Check(loaded.ok(), "io::LoadModel: " + loaded.status().ToString());
    if (!saved.ok() || !loaded.ok()) break;
    s.model = std::move(*loaded);
    const uint64_t fingerprint = rl4oasd::io::ModelFingerprint(*s.model);
    if (r == 0) first_fingerprint = fingerprint;
    report->Check(fingerprint == first_fingerprint,
                  "set-up repetition produced a different model bundle");
    const auto& ft = trained.fit_timings();
    total.push_back(double(t4 - t0) * 1e-9);
    fit.push_back(double(t1 - t0) * 1e-9);
    pre.push_back(ft.preprocess_s);
    emb.push_back(ft.embed_s);
    rsr.push_back(ft.pretrain_rsr_s);
    asd.push_back(ft.pretrain_asd_s);
    joint.push_back(ft.joint_s);
    save.push_back(double(t2 - t1) * 1e-9);
    load.push_back(double(t3 - t2) * 1e-9);
    mm.push_back(double(t4 - t3) * 1e-9);
  }
  std::error_code ec;
  if (s.model != nullptr) {
    s.bundle_kb = double(std::filesystem::file_size(bundle, ec)) / 1024.0;
  }
  std::filesystem::remove(bundle, ec);
  s.setup_s = Median(total);
  s.fit_s = Median(fit);
  s.phases.preprocess_s = Median(pre);
  s.phases.embed_s = Median(emb);
  s.phases.pretrain_rsr_s = Median(rsr);
  s.phases.pretrain_asd_s = Median(asd);
  s.phases.joint_s = Median(joint);
  s.save_s = Median(save);
  s.load_s = Median(load);
  s.matcher_build_s = with_matcher ? Median(mm) : 0.0;
  return s;
}

std::vector<traj::LabeledTrajectory> MakeTraffic(const Setup& setup,
                                                 uint64_t seed, size_t n) {
  traj::GeneratorConfig cfg = setup.city->generator_config;
  cfg.seed = Mix(seed, 1);
  // Never Generate()d: only its detour splicing (MakeTrajectory) is used,
  // over the city's own SD pairs, so the traffic matches the trained model.
  traj::TrajectoryGenerator gen(&setup.city->net, cfg);
  rl4oasd::Rng rng(Mix(seed, 2));
  std::vector<traj::LabeledTrajectory> out;
  out.reserve(n);
  while (out.size() < n) {
    const auto& info = setup.pairs[rng.UniformInt(setup.pairs.size())];
    const double start = rng.Uniform(0.0, 86400.0);
    const int route = static_cast<int>(
        rng.Categorical(gen.EffectivePopularity(info, start)));
    const bool anomalous = rng.Bernoulli(cfg.anomaly_ratio);
    auto lt = gen.MakeTrajectory(info, route, start, anomalous);
    if (!lt.has_value()) lt = gen.MakeTrajectory(info, route, start, false);
    lt->traj.id = static_cast<int64_t>(out.size());
    out.push_back(std::move(*lt));
  }
  return out;
}

std::vector<uint8_t> AlignLabels(const std::vector<traj::EdgeId>& truth,
                                 const std::vector<traj::EdgeId>& matched,
                                 const std::vector<uint8_t>& labels) {
  std::vector<uint8_t> out(truth.size(), 0);
  size_t next = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    for (size_t k = next; k < matched.size(); ++k) {
      if (matched[k] == truth[i]) {
        out[i] = labels[k];
        next = k + 1;
        break;
      }
    }
  }
  return out;
}

GuardCost MeasureGuardCheck(const Setup& setup,
                            const std::vector<traj::LabeledTrajectory>& trips) {
  const rl4oasd::serve::IngestGuard guard(rl4oasd::serve::IngestGuardConfig{},
                                          &setup.city->net);
  std::vector<double> per_trip;
  per_trip.reserve(trips.size());
  GuardCost cost;
  for (const auto& lt : trips) {
    rl4oasd::serve::IngestGuard::State state;
    state.mono_ts = lt.traj.start_time;
    double ts = lt.traj.start_time;
    const int64_t t0 = NowNs();
    for (traj::EdgeId e : lt.traj.edges) {
      cost.refused += guard.Check(&state, e, ts).accept ? 0 : 1;
      ts += 2.0;
    }
    const int64_t n = static_cast<int64_t>(lt.traj.edges.size());
    per_trip.push_back(double(NowNs() - t0) / double(n));
    cost.calls += n;
  }
  cost.ns_p50 = Percentile(std::move(per_trip), 0.5);
  return cost;
}

uint64_t HashLabels(const std::vector<uint8_t>& labels) {
  uint64_t h = 1469598103934665603ull;
  for (uint8_t l : labels) h = (h ^ l) * 1099511628211ull;
  return h ^ labels.size();
}

void ReportLatencies(const LatencySamples& alert_ms,
                     const LatencySamples& verdict_ms, Report* report) {
  report->Metric("alert_p50_ms", alert_ms.MedianOfGroups(0.5), "ms");
  report->Metric("verdict_p50_ms", verdict_ms.MedianOfGroups(0.5), "ms");
}

void ReportSharedLayers(const LatencySamples& alert_ms,
                        const LatencySamples& verdict_ms,
                        const serve::FleetStats& stats, const GuardCost& guard,
                        Report* report) {
  report->Metric("tail.verdict_p90_ms", verdict_ms.MedianOfGroups(0.9), "ms");
  report->Metric("tail.alert_p99_ms", Percentile(alert_ms.all(), 0.99), "ms");
  report->Metric("tail.verdict_p99_ms", Percentile(verdict_ms.all(), 0.99),
                 "ms");
  report->Metric("tail.alert_samples", double(alert_ms.all().size()), "count");
  report->Metric("tail.verdict_samples", double(verdict_ms.all().size()),
                 "count");
  report->Metric("serve.points_processed", double(stats.points_processed),
                 "count");
  report->Metric("serve.alerts_emitted", double(stats.alerts_emitted),
                 "count");
  report->Metric("serve.points_shed", double(stats.points_shed), "count");
  report->Metric("serve.trips_evicted", double(stats.trips_evicted), "count");
  report->Metric("core.alerts_per_kpoint",
                 1e3 * double(stats.alerts_emitted) /
                     double(stats.points_processed),
                 "1/kpoint");
  report->Check(guard.refused == 0, "ingest guard refused a clean point");
  report->Metric("serve.guard_check_ns_p50", guard.ns_p50, "ns");
  report->Metric("serve.guard_check_samples", double(guard.calls), "count");
}

}  // namespace perfbench
