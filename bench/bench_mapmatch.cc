// Map-matching hot-path bench: the Table V "MapMatch" stage in isolation.
// Times single-thread Match over a sampled GPS workload (plus a gap-heavy
// variant), sweeps MatchBatch worker counts, and measures streaming
// per-point cost. Every timed run doubles as an equivalence check — any
// divergence of the batch or streaming output from Match fails the bench
// with a nonzero exit, so the ctest smoke registration guards those
// exactness contracts too.
//
// Flags:
//   --tiny         small workload (seconds; registered with ctest)
//   --json <path>  machine-readable results — CI uploads BENCH_mapmatch.json
//   --threads <n>  max worker count for the MatchBatch sweep (default 8)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "mapmatch/hmm_matcher.h"
#include "mapmatch/streaming_matcher.h"
#include "traj/gps_sampler.h"

using namespace rl4oasd;

namespace {

struct Workload {
  std::string name;
  std::vector<traj::RawTrajectory> raws;
  size_t points = 0;
};

Workload SampleWorkload(const bench::CityData& city, const std::string& name,
                        size_t count, double dropout, uint64_t seed) {
  traj::GpsSamplerConfig gps;
  gps.dropout_prob = dropout;
  traj::GpsSampler sampler(&city.net, gps, seed);
  Workload w;
  w.name = name;
  for (size_t i = 0; i < std::min(count, city.train.size()); ++i) {
    auto raw = sampler.Sample(city.train[i].traj);
    if (raw.points.size() < 3) continue;
    w.points += raw.points.size();
    w.raws.push_back(std::move(raw));
  }
  return w;
}

bool SameResult(const Result<traj::MapMatchedTrajectory>& a,
                const Result<traj::MapMatchedTrajectory>& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) return a.status().code() == b.status().code();
  return a->edges == b->edges && a->start_time == b->start_time &&
         a->id == b->id;
}

struct StageResult {
  std::string workload;
  size_t trajs = 0;
  size_t points = 0;
  double match_s = 0.0;
  double streaming_s = 0.0;
  std::vector<std::pair<int, double>> batch;  // (threads, seconds)
  bool equal = true;
};

StageResult RunWorkload(const mapmatch::HmmMapMatcher& matcher,
                        const Workload& w, int max_threads) {
  StageResult r;
  r.workload = w.name;
  r.trajs = w.raws.size();
  r.points = w.points;

  // Match, single thread, scratch reused across calls.
  std::vector<Result<traj::MapMatchedTrajectory>> matched;
  matched.reserve(w.raws.size());
  mapmatch::HmmMapMatcher::Scratch scratch;
  Stopwatch match_sw;
  for (const auto& raw : w.raws) {
    matched.push_back(matcher.Match(raw, &scratch));
  }
  r.match_s = match_sw.ElapsedSeconds();

  // Batch sweep: 1, 2, 4, ... up to max_threads.
  for (int t = 1; t <= max_threads; t *= 2) {
    Stopwatch sw;
    auto batch = matcher.MatchBatch(w.raws, t);
    r.batch.emplace_back(t, sw.ElapsedSeconds());
    for (size_t i = 0; i < w.raws.size(); ++i) {
      if (!SameResult(batch[i], matched[i])) {
        std::fprintf(stderr,
                     "MISMATCH batch(threads=%d) vs Match: %s traj %zu\n", t,
                     w.name.c_str(), i);
        r.equal = false;
      }
    }
  }

  // Streaming: per-point feeding plus one Finish per trajectory.
  mapmatch::StreamingMatcher stream(&matcher);
  std::vector<Result<traj::MapMatchedTrajectory>> streamed;
  streamed.reserve(w.raws.size());
  Stopwatch stream_sw;
  for (const auto& raw : w.raws) {
    stream.Reset(raw.id);
    for (const auto& pt : raw.points) stream.MatchPoint(pt);
    streamed.push_back(stream.Finish());
  }
  r.streaming_s = stream_sw.ElapsedSeconds();
  for (size_t i = 0; i < w.raws.size(); ++i) {
    if (!SameResult(streamed[i], matched[i])) {
      std::fprintf(stderr, "MISMATCH streaming vs Match: %s traj %zu\n",
                   w.name.c_str(), i);
      r.equal = false;
    }
  }
  return r;
}

void PrintStage(const StageResult& r) {
  std::printf("--- workload %-10s (%zu trajs, %zu points) ---\n",
              r.workload.c_str(), r.trajs, r.points);
  std::printf("%-28s %10.3f s  (%8.1f traj/s)\n", "Match (1 thread)",
              r.match_s, r.trajs / r.match_s);
  for (const auto& [threads, secs] : r.batch) {
    std::printf("%-21s %2dT %10.3f s  (%8.1f traj/s)  vs Match %.2fx\n",
                "batch", threads, secs, r.trajs / secs, r.match_s / secs);
  }
  std::printf("%-28s %10.3f s  (%8.2f us/point)\n", "streaming",
              r.streaming_s, 1e6 * r.streaming_s / r.points);
  std::printf("%-28s %s\n\n", "outputs identical",
              r.equal ? "yes" : "NO (FAILURE)");
}

void WriteJson(const std::string& path, const std::vector<StageResult>& rows) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"mapmatch\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const StageResult& r = rows[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"trajs\": %zu, \"points\": %zu, "
                 "\"match_s\": %.4f, \"streaming_s\": %.4f, \"equal\": %s, "
                 "\"batch\": [",
                 r.workload.c_str(), r.trajs, r.points, r.match_s,
                 r.streaming_s, r.equal ? "true" : "false");
    for (size_t b = 0; b < r.batch.size(); ++b) {
      std::fprintf(f, "{\"threads\": %d, \"seconds\": %.4f}%s",
                   r.batch[b].first, r.batch[b].second,
                   b + 1 < r.batch.size() ? ", " : "");
    }
    std::fprintf(f, "]}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("bench_mapmatch",
                "Table V map-matching stage: Match, MatchBatch, streaming");
  flags.AddBool("tiny", false, "small workload for ctest");
  flags.AddString("json", "", "write machine-readable results to this path");
  flags.AddInt("threads", 8, "max worker count for the MatchBatch sweep");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 1;
  }
  if (flags.help_requested()) return 0;
  const bool tiny = flags.GetBool("tiny");
  const int max_threads = static_cast<int>(flags.GetInt("threads"));
  const size_t count = tiny ? 120 : 600;

  std::printf("=== Map matching: Table V stage attribution ===\n\n");
  auto city = bench::MakeChengduLike(/*num_pairs=*/tiny ? 12 : 40, /*seed=*/12);
  mapmatch::HmmMapMatcher matcher(&city.net);

  // "clean" is the Table V preprocessing workload (continuous GPS); "gappy"
  // adds 20% fix dropout so segment restarts and gap bridging are on the
  // timed and checked path as well.
  std::vector<StageResult> rows;
  rows.push_back(RunWorkload(
      matcher, SampleWorkload(city, "clean", count, 0.0, 5), max_threads));
  rows.push_back(RunWorkload(
      matcher, SampleWorkload(city, "gappy", count / 2, 0.2, 6), max_threads));
  for (const auto& r : rows) PrintStage(r);

  if (!flags.GetString("json").empty()) {
    WriteJson(flags.GetString("json"), rows);
  }
  for (const auto& r : rows) {
    if (!r.equal) return 1;  // exactness contract violated
  }
  return 0;
}
