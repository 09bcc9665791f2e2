// Microbenchmarks of the hot paths behind the paper's efficiency claims
// (google-benchmark): LSTM streaming step, policy action, the full
// per-point detector Feed, preprocessor lookups, discrete-Frechet row
// update, and bounded shortest paths — plus batch sweeps (B in {1, 8, 12,
// 16, 32, 128}; 12 is the live workload's typical wave width) of the
// GEMM-backed batched inference path at each layer (LSTM cell, RSRNet step,
// detector FeedBatch), and the batched policy head at B in 1–8 and 12 (the
// narrow GEMM tiles), reported per *point* so the batched rows read
// directly against their streaming counterparts.
#include <cstdio>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/detector.h"
#include "io/model_io.h"
#include "nn/lstm.h"
#include "roadnet/shortest_path.h"
#include "serve/fleet.h"

using namespace rl4oasd;

namespace {

struct MicroFixture {
  bench::CityData city = bench::MakeChengduLike(12);
  core::Rl4Oasd model{&city.net, [] {
                        auto cfg = bench::TunedConfig();
                        cfg.pretrain_samples = 80;
                        cfg.pretrain_epochs = 2;
                        cfg.joint_samples = 50;
                        return cfg;
                      }()};
  traj::MapMatchedTrajectory long_traj;

  MicroFixture() {
    model.Fit(city.train);
    for (const auto& lt : city.test.trajs()) {
      if (lt.traj.edges.size() > long_traj.edges.size()) long_traj = lt.traj;
    }
  }
};

MicroFixture& Fixture() {
  static MicroFixture f;
  return f;
}

void BM_LstmStreamingStep(benchmark::State& state) {
  auto& f = Fixture();
  core::RsrStream stream(f.model.rsrnet().config().hidden_dim);
  size_t i = 0;
  const auto& edges = f.long_traj.edges;
  for (auto _ : state) {
    auto z = f.model.rsrnet().StepForward(edges[i % edges.size()], 0, &stream,
                                          nullptr);
    benchmark::DoNotOptimize(z.data());
    ++i;
  }
}
BENCHMARK(BM_LstmStreamingStep);

void BM_PolicyAction(benchmark::State& state) {
  auto& f = Fixture();
  nn::Vec z(f.model.rsrnet().z_dim(), 0.1f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model.asdnet().GreedyAction(z.data(), 0));
  }
}
BENCHMARK(BM_PolicyAction);

void BM_DetectorPerPoint(benchmark::State& state) {
  auto& f = Fixture();
  const auto& t = f.long_traj;
  auto session = f.model.StartSession(t.sd(), t.start_time);
  size_t i = 0;
  for (auto _ : state) {
    if (i == t.edges.size()) {
      state.PauseTiming();
      session = f.model.StartSession(t.sd(), t.start_time);
      i = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(session.Feed(t.edges[i++]));
  }
}
BENCHMARK(BM_DetectorPerPoint);

void BM_TransitionFractionLookup(benchmark::State& state) {
  auto& f = Fixture();
  const auto& t = f.long_traj;
  size_t i = 1;
  for (auto _ : state) {
    if (i + 1 >= t.edges.size()) i = 1;
    benchmark::DoNotOptimize(f.model.preprocessor().TransitionFractionAt(
        t.sd(), t.start_time, t.edges[i - 1], t.edges[i]));
    ++i;
  }
}
BENCHMARK(BM_TransitionFractionLookup);

void BM_FrechetRow(benchmark::State& state) {
  auto& f = Fixture();
  baselines::CtssDetector ctss(&f.city.net);
  ctss.Fit(f.city.train);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctss.Scores(f.long_traj));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.long_traj.edges.size()));
}
BENCHMARK(BM_FrechetRow);

void BM_ShortestPathBetweenEdges(benchmark::State& state) {
  auto& f = Fixture();
  const auto& t = f.long_traj;
  for (auto _ : state) {
    benchmark::DoNotOptimize(roadnet::ShortestPathBetweenEdges(
        f.city.net, t.edges.front(), t.edges.back()));
  }
}
BENCHMARK(BM_ShortestPathBetweenEdges);

void BM_RsrTrainStep(benchmark::State& state) {
  auto& f = Fixture();
  const auto& t = f.long_traj;
  const auto nrf = f.model.preprocessor().NormalRouteFeatures(t);
  const auto noisy = f.model.preprocessor().NoisyLabels(t);
  // A scratch network so training does not perturb the shared fixture.
  auto cfg = f.model.rsrnet().config();
  core::RsrNet net(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.TrainStep(t.edges, nrf, noisy));
  }
}
BENCHMARK(BM_RsrTrainStep);

void BM_FleetFeed(benchmark::State& state) {
  // Per-point cost through the full service layer (shard lock + session +
  // run bookkeeping) vs the bare detector Feed above.
  auto& f = Fixture();
  serve::FleetMonitor monitor(&f.model, {}, nullptr);
  const auto& t = f.long_traj;
  (void)monitor.StartTrip(1, t.sd(), t.start_time);
  size_t i = 0;
  for (auto _ : state) {
    if (i == t.edges.size()) {
      state.PauseTiming();
      (void)monitor.EndTrip(1);
      (void)monitor.StartTrip(1, t.sd(), t.start_time);
      i = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(monitor.Feed(1, t.edges[i++], t.start_time));
  }
}
BENCHMARK(BM_FleetFeed);

/// The batch widths the batched rows sweep; 12 is the live workload's
/// typical fused wave.
void WaveWidths(benchmark::internal::Benchmark* b) {
  for (const int64_t width : {1, 8, 12, 16, 32, 128}) b->Arg(width);
}

void BM_LstmStepBatch(benchmark::State& state) {
  // Batched counterpart of BM_LstmStreamingStep: one fused (B x I) x
  // (I x 4H) step for B streams. items == points, so time-per-item is the
  // per-point cost to compare against the streaming row.
  Rng rng(3);
  auto& f = Fixture();
  const size_t embed = f.model.rsrnet().config().embed_dim;
  const size_t hidden = f.model.rsrnet().config().hidden_dim;
  const auto B = static_cast<size_t>(state.range(0));
  nn::Lstm lstm("micro", embed, hidden, &rng);
  nn::LstmBatchState batch_state(hidden, B);
  nn::Matrix x(B, embed, 0.1f);
  for (auto _ : state) {
    lstm.StepForwardBatch(x, &batch_state);
    benchmark::DoNotOptimize(batch_state.h.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(B));
}
BENCHMARK(BM_LstmStepBatch)->Apply(WaveWidths);

void BM_RsrStepBatch(benchmark::State& state) {
  // Full batched RSRNet streaming step: embedding gather, fused LSTM GEMMs,
  // state scatter, z assembly.
  auto& f = Fixture();
  const auto B = static_cast<size_t>(state.range(0));
  std::vector<core::RsrStream> streams(B);
  std::vector<core::RsrStream*> ptrs;
  ptrs.reserve(B);
  for (auto& s : streams) ptrs.push_back(&s);
  const auto& edges = f.long_traj.edges;
  std::vector<traj::EdgeId> batch_edges(B);
  std::vector<uint8_t> nrf(B, 0);
  nn::Matrix z;
  size_t i = 0;
  for (auto _ : state) {
    for (size_t b = 0; b < B; ++b) {
      batch_edges[b] = edges[(i + b) % edges.size()];
    }
    f.model.rsrnet().StepForwardBatch(batch_edges, nrf, ptrs, &z);
    benchmark::DoNotOptimize(z.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(B));
}
BENCHMARK(BM_RsrStepBatch)->Apply(WaveWidths);

void BM_DetectorFeedBatch(benchmark::State& state) {
  // Batched counterpart of BM_DetectorPerPoint: B concurrent sessions
  // advanced one segment per call through OnlineDetector::FeedBatch.
  auto& f = Fixture();
  const auto& t = f.long_traj;
  const auto B = static_cast<size_t>(state.range(0));
  std::vector<core::OnlineDetector::Session> sessions;
  std::vector<core::OnlineDetector::Session*> ptrs;
  auto reset = [&] {
    sessions.clear();
    ptrs.clear();
    for (size_t b = 0; b < B; ++b) {
      sessions.push_back(f.model.StartSession(t.sd(), t.start_time));
    }
    for (auto& s : sessions) ptrs.push_back(&s);
  };
  reset();
  std::vector<traj::EdgeId> edges(B);
  size_t i = 0;
  for (auto _ : state) {
    if (i == t.edges.size()) {
      state.PauseTiming();
      reset();
      i = 0;
      state.ResumeTiming();
    }
    std::fill(edges.begin(), edges.end(), t.edges[i++]);
    f.model.detector().FeedBatch(ptrs, edges);
    benchmark::DoNotOptimize(sessions.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(B));
}
BENCHMARK(BM_DetectorFeedBatch)->Apply(WaveWidths);

void BM_GemmKernel(benchmark::State& state) {
  // The raw blocked GEMM at the shape the recurrent step runs:
  // (B x I) * (I x 4H), B sample-major input rows times the k-major gate
  // weights.
  auto& f = Fixture();
  const size_t embed = f.model.rsrnet().config().embed_dim;
  const size_t hidden = f.model.rsrnet().config().hidden_dim;
  const auto B = static_cast<size_t>(state.range(0));
  nn::Matrix a(B, embed, 0.1f);
  nn::Matrix b(embed, 4 * hidden, 0.01f);
  nn::Matrix c;
  for (auto _ : state) {
    nn::MatMul(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(B));
  state.counters["MAC/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(4 * hidden * embed * B),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmKernel)->Apply(WaveWidths);

void BM_ActionProbsBatch(benchmark::State& state) {
  // Batched counterpart of BM_PolicyAction: the policy head over B states,
  // one GEMM whose n is the wave width, so the narrow widths run the
  // narrow register tiles.
  auto& f = Fixture();
  const auto B = static_cast<size_t>(state.range(0));
  nn::Matrix z(f.model.rsrnet().z_dim(), B, 0.1f);
  const std::vector<int> prev_labels(B, 0);
  nn::Matrix probs;
  for (auto _ : state) {
    f.model.asdnet().ActionProbsBatch(z, prev_labels, &probs);
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(B));
}
BENCHMARK(BM_ActionProbsBatch)->DenseRange(1, 8)->Arg(12);

void BM_ModelBundleSaveLoad(benchmark::State& state) {
  auto& f = Fixture();
  const std::string path = "/tmp/rl4oasd_micro_model.rlmb";
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::SaveModel(f.model, path).ok());
    auto loaded = io::LoadModel(&f.city.net, path);
    benchmark::DoNotOptimize(loaded.ok());
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_ModelBundleSaveLoad);

}  // namespace

BENCHMARK_MAIN();
