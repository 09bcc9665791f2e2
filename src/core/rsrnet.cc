#include "core/rsrnet.h"

#include <algorithm>

#include "common/logging.h"

namespace rl4oasd::core {

RsrNet::RsrNet(RsrNetConfig config)
    : config_(config),
      rng_(config.seed),
      tcf_embed_("rsr.tcf", config.num_edges, config.embed_dim, &rng_),
      nrf_embed_("rsr.nrf", 2, config.nrf_dim, &rng_),
      lstm_("rsr.lstm", config.embed_dim, config.hidden_dim, &rng_),
      head_("rsr.head", config.hidden_dim + config.nrf_dim, 2, &rng_) {
  RL4_CHECK_GT(config_.num_edges, 0u);
  tcf_embed_.RegisterParams(&registry_);
  nrf_embed_.RegisterParams(&registry_);
  lstm_.RegisterParams(&registry_);
  head_.RegisterParams(&registry_);
  nn::AdamConfig adam;
  adam.lr = config_.lr;
  optimizer_ = std::make_unique<nn::AdamOptimizer>(&registry_, adam);
}

void RsrNet::LoadTcfEmbeddings(const nn::Matrix& table) {
  RL4_CHECK_EQ(table.rows(), tcf_embed_.vocab());
  RL4_CHECK_GE(table.cols(), tcf_embed_.dim());
  for (size_t r = 0; r < table.rows(); ++r) {
    tcf_embed_.SetRow(r, table.Row(r));
  }
}

RsrForward RsrNet::ForwardImpl(const std::vector<traj::EdgeId>& edges,
                               const std::vector<uint8_t>& nrf,
                               std::vector<nn::LstmStepCache>* caches) const {
  RL4_CHECK_EQ(edges.size(), nrf.size());
  RsrForward out;
  const size_t n = edges.size();
  std::vector<const float*> inputs(n);
  for (size_t i = 0; i < n; ++i) {
    inputs[i] = tcf_embed_.Lookup(static_cast<size_t>(edges[i]));
  }
  std::vector<nn::LstmStepCache> steps = lstm_.Forward(inputs);
  out.z.resize(n);
  out.probs.resize(n);
  const size_t H = config_.hidden_dim;
  const size_t N = config_.nrf_dim;
  for (size_t i = 0; i < n; ++i) {
    out.z[i].resize(H + N);
    const nn::Vec& h = steps[i].h;
    std::copy(h.begin(), h.end(), out.z[i].begin());
    const float* nv = nrf_embed_.Lookup(nrf[i] ? 1 : 0);
    std::copy(nv, nv + N, out.z[i].begin() + H);
    float logits[2];
    head_.Forward(out.z[i].data(), logits);
    nn::SoftmaxInPlace(logits, 2);
    out.probs[i] = {logits[0], logits[1]};
  }
  if (caches != nullptr) *caches = std::move(steps);
  return out;
}

RsrForward RsrNet::Forward(const std::vector<traj::EdgeId>& edges,
                           const std::vector<uint8_t>& nrf) const {
  return ForwardImpl(edges, nrf, nullptr);
}

const RsrForward& RsrNet::ForwardCached(const std::vector<traj::EdgeId>& edges,
                                        const std::vector<uint8_t>& nrf,
                                        RsrTrainCache* cache) const {
  cache->fwd = ForwardImpl(edges, nrf, &cache->lstm_steps);
  return cache->fwd;
}

double RsrNet::Loss(const std::vector<traj::EdgeId>& edges,
                    const std::vector<uint8_t>& nrf,
                    const std::vector<uint8_t>& labels) const {
  RL4_CHECK_EQ(edges.size(), labels.size());
  if (edges.empty()) return 0.0;
  return Loss(Forward(edges, nrf), labels);
}

double RsrNet::Loss(const RsrForward& fwd,
                    const std::vector<uint8_t>& labels) const {
  RL4_CHECK_EQ(fwd.probs.size(), labels.size());
  if (labels.empty()) return 0.0;
  double loss = 0.0;
  for (size_t i = 0; i < labels.size(); ++i) {
    loss += nn::CrossEntropy(fwd.probs[i].data(), 2, labels[i] ? 1 : 0);
  }
  return loss / static_cast<double>(labels.size());
}

double RsrNet::TrainStep(const std::vector<traj::EdgeId>& edges,
                         const std::vector<uint8_t>& nrf,
                         const std::vector<uint8_t>& labels) {
  RsrTrainCache cache;
  ForwardCached(edges, nrf, &cache);
  return TrainStepCached(edges, nrf, labels, &cache);
}

double RsrNet::TrainStepCached(const std::vector<traj::EdgeId>& edges,
                               const std::vector<uint8_t>& nrf,
                               const std::vector<uint8_t>& labels,
                               RsrTrainCache* cache) {
  RL4_CHECK_EQ(edges.size(), labels.size());
  if (edges.empty()) return 0.0;
  RL4_CHECK(cache->valid());
  registry_.ZeroGrad();
  const double loss = ComputeGradients(edges, nrf, labels, cache->fwd,
                                       cache->lstm_steps, nullptr);
  cache->lstm_steps.clear();
  registry_.ClipGradNorm(config_.grad_clip);
  optimizer_->Step();
  lstm_.Repack();
  return loss;
}

double RsrNet::AccumulateGradients(const std::vector<traj::EdgeId>& edges,
                                   const std::vector<uint8_t>& nrf,
                                   const std::vector<uint8_t>& labels,
                                   nn::GradientSink* sink) {
  RL4_CHECK_EQ(edges.size(), labels.size());
  if (edges.empty()) return 0.0;
  RsrTrainCache cache;
  ForwardCached(edges, nrf, &cache);
  return ComputeGradients(edges, nrf, labels, cache.fwd, cache.lstm_steps,
                          sink);
}

void RsrNet::ApplyWorkerGradients(nn::GradientSink* sink) {
  sink->AddToParams();
  registry_.ClipGradNorm(config_.grad_clip);
  optimizer_->Step();
  lstm_.Repack();
  registry_.ZeroGrad();
  sink->Reset();
}

double RsrNet::ComputeGradients(const std::vector<traj::EdgeId>& edges,
                                const std::vector<uint8_t>& nrf,
                                const std::vector<uint8_t>& labels,
                                const RsrForward& fwd,
                                const std::vector<nn::LstmStepCache>& caches,
                                nn::GradientSink* sink) {
  const size_t n = edges.size();
  const size_t H = config_.hidden_dim;
  const size_t N = config_.nrf_dim;
  const float inv_n = 1.0f / static_cast<float>(n);
  float positive_weight = config_.positive_weight;
  if (positive_weight <= 0.0f) {
    size_t ones = 0;
    for (uint8_t l : labels) ones += l ? 1 : 0;
    positive_weight =
        ones == 0 ? 1.0f
                  : std::min(50.0f, static_cast<float>(n - ones) /
                                        static_cast<float>(ones));
  }
  // Timestep-packed head backward: one GEMM over all positions instead of
  // n rank-1 updates (bit-identical; see Linear::BackwardSeq). All scratch
  // is thread-local, so concurrent workers (each with its own sink) don't
  // interfere.
  static thread_local nn::Matrix z_seq;       // n x (H + N)
  static thread_local nn::Matrix d_logits;    // n x 2
  static thread_local nn::Matrix d_z_seq;     // n x (H + N)
  static thread_local nn::Matrix d_h_seq;     // n x H
  static thread_local nn::Matrix d_x_seq;     // n x embed_dim
  static thread_local std::vector<size_t> ids;
  z_seq.EnsureShape(n, H + N);
  d_logits.EnsureShape(n, 2);
  double loss = 0.0;
  const float s = config_.label_smoothing;
  for (size_t i = 0; i < n; ++i) {
    const size_t target = labels[i] ? 1 : 0;
    loss += nn::CrossEntropy(fwd.probs[i].data(), 2, target);
    // d logits = w * (p - smoothed onehot) / n, with anomalous positions
    // upweighted.
    const float w = inv_n * (target == 1 ? positive_weight : 1.0f);
    float soft[2] = {target == 0 ? 1.0f - s : s, target == 1 ? 1.0f - s : s};
    float* dl = d_logits.Row(i);
    dl[0] = (fwd.probs[i][0] - soft[0]) * w;
    dl[1] = (fwd.probs[i][1] - soft[1]) * w;
    std::copy(fwd.z[i].begin(), fwd.z[i].end(), z_seq.Row(i));
  }
  head_.BackwardSeq(z_seq, d_logits, &d_z_seq, sink);
  // Split the z gradient into the recurrent hidden part and the NRF
  // embedding part.
  d_h_seq.EnsureShape(n, H);
  for (size_t i = 0; i < n; ++i) {
    const float* dz = d_z_seq.Row(i);
    std::copy(dz, dz + H, d_h_seq.Row(i));
    nrf_embed_.AccumulateGrad(nrf[i] ? 1 : 0, dz + H, sink);
  }
  lstm_.BackwardSeq(caches, d_h_seq, &d_x_seq, sink);
  ids.resize(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<size_t>(edges[i]);
  tcf_embed_.AccumulateGradSeq(ids, d_x_seq, sink);
  return loss / static_cast<double>(n);
}

nn::Vec RsrNet::StepForward(traj::EdgeId edge, uint8_t nrf_bit,
                            RsrStream* stream,
                            std::array<float, 2>* probs) const {
  const size_t H = config_.hidden_dim;
  const size_t N = config_.nrf_dim;
  if (stream->state.h.size() != H) stream->state = nn::LstmState(H);
  lstm_.StepForward(tcf_embed_.Lookup(static_cast<size_t>(edge)),
                    &stream->state);
  nn::Vec z(H + N);
  std::copy(stream->state.h.begin(), stream->state.h.end(), z.begin());
  const float* nv = nrf_embed_.Lookup(nrf_bit ? 1 : 0);
  std::copy(nv, nv + N, z.begin() + H);
  if (probs != nullptr) {
    float logits[2];
    head_.Forward(z.data(), logits);
    nn::SoftmaxInPlace(logits, 2);
    (*probs) = {logits[0], logits[1]};
  }
  return z;
}

void RsrNet::StepForwardBatch(std::span<const traj::EdgeId> edges,
                              std::span<const uint8_t> nrf_bits,
                              std::span<RsrStream* const> streams,
                              nn::Matrix* z, nn::Matrix* probs) const {
  const size_t B = edges.size();
  RL4_CHECK_EQ(nrf_bits.size(), B);
  RL4_CHECK_EQ(streams.size(), B);
  const size_t H = config_.hidden_dim;
  const size_t N = config_.nrf_dim;

  // Gather: embedding rows and per-stream LSTM states (fresh streams are
  // sized here, like the scalar path). Scratch buffers are thread-local and
  // fully overwritten, so steady-state waves allocate nothing.
  static thread_local std::vector<size_t> ids;
  static thread_local std::vector<nn::LstmState*> states;
  static thread_local nn::Matrix x;  // B x embed_dim
  static thread_local nn::LstmBatchState batch_state;
  ids.resize(B);
  states.resize(B);
  for (size_t b = 0; b < B; ++b) {
    ids[b] = static_cast<size_t>(edges[b]);
    if (streams[b]->state.h.size() != H) streams[b]->state = nn::LstmState(H);
    states[b] = &streams[b]->state;
  }
  tcf_embed_.LookupBatch(ids, &x);
  batch_state.Gather(states, H);

  lstm_.StepForwardBatch(x, &batch_state);

  batch_state.Scatter(states);

  // z = [h; nrf], feature-major for the head and the policy: row b of the
  // hidden state fills the top H entries of column b, the NRF embedding the
  // rest.
  z->EnsureShape(H + N, B);
  float* zd = z->data();
  for (size_t b = 0; b < B; ++b) {
    const float* ht = batch_state.h.Row(b);
    for (size_t r = 0; r < H; ++r) zd[r * B + b] = ht[r];
    const float* nv = nrf_embed_.Lookup(nrf_bits[b] ? 1 : 0);
    for (size_t r = 0; r < N; ++r) zd[(H + r) * B + b] = nv[r];
  }
  if (probs != nullptr) {
    head_.ForwardBatch(*z, probs);
    nn::SoftmaxColumnsInPlace(probs);
  }
}

}  // namespace rl4oasd::core
