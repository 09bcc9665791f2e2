#include "baselines/seq_vae.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace rl4oasd::baselines {

const char* VaeVariantName(VaeVariant v) {
  switch (v) {
    case VaeVariant::kSae:
      return "SAE";
    case VaeVariant::kVsae:
      return "VSAE";
    case VaeVariant::kGmVsae:
      return "GM-VSAE";
    case VaeVariant::kSdVsae:
      return "SD-VSAE";
  }
  return "?";
}

SeqVaeDetector::SeqVaeDetector(const roadnet::RoadNetwork* net,
                               SeqVaeConfig config)
    : net_(net),
      config_(config),
      rng_(config.seed),
      edge_embed_("vae.embed", net->NumEdges(), config.embed_dim, &rng_),
      out_embed_("vae.out", net->NumEdges(), config.hidden_dim, &rng_),
      encoder_("vae.enc", config.embed_dim, config.hidden_dim, &rng_),
      decoder_("vae.dec", config.embed_dim, config.hidden_dim, &rng_),
      mu_head_("vae.mu", config.hidden_dim, config.latent_dim, &rng_),
      logvar_head_("vae.logvar", config.hidden_dim, config.latent_dim, &rng_),
      z_to_h0_("vae.zproj", config.latent_dim, config.embed_dim, &rng_),
      components_("vae.components", config.num_components,
                  config.latent_dim) {
  components_.UniformInit(&rng_, 0.5f);
  threshold_ = 1.5;
  edge_embed_.RegisterParams(&registry_);
  out_embed_.RegisterParams(&registry_);
  encoder_.RegisterParams(&registry_);
  decoder_.RegisterParams(&registry_);
  mu_head_.RegisterParams(&registry_);
  logvar_head_.RegisterParams(&registry_);
  z_to_h0_.RegisterParams(&registry_);
  registry_.Register(&components_);
  nn::AdamConfig adam;
  adam.lr = config_.lr;
  optimizer_ = std::make_unique<nn::AdamOptimizer>(&registry_, adam);
}

nn::Vec SeqVaeDetector::EncodeMu(
    const std::vector<traj::EdgeId>& edges) const {
  std::vector<const float*> inputs(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    inputs[i] = edge_embed_.Lookup(static_cast<size_t>(edges[i]));
  }
  auto caches = encoder_.Forward(inputs);
  nn::Vec mu(config_.latent_dim);
  mu_head_.Forward(caches.back().h.data(), mu.data());
  return mu;
}

nn::Vec SeqVaeDetector::ComponentMean(int k) const {
  nn::Vec m(config_.latent_dim);
  const float* row = components_.value.Row(static_cast<size_t>(k));
  std::copy(row, row + config_.latent_dim, m.begin());
  return m;
}

int SeqVaeDetector::NearestComponent(const nn::Vec& mu) const {
  int best = 0;
  double best_d = 1e300;
  for (int k = 0; k < config_.num_components; ++k) {
    const float* row = components_.value.Row(static_cast<size_t>(k));
    double d = 0.0;
    for (size_t i = 0; i < config_.latent_dim; ++i) {
      const double diff = mu[i] - row[i];
      d += diff * diff;
    }
    if (d < best_d) {
      best_d = d;
      best = k;
    }
  }
  return best;
}

std::vector<double> SeqVaeDetector::DecodeNll(
    const std::vector<traj::EdgeId>& edges, const nn::Vec& z) const {
  const size_t n = edges.size();
  std::vector<double> nll(n, 0.0);
  if (n < 2) return nll;
  // Latent injection: the decoder's first input is tanh(W z); subsequent
  // inputs are the embeddings of the previous observed edges.
  nn::Vec zproj(config_.embed_dim);
  z_to_h0_.Forward(z.data(), zproj.data());
  for (auto& v : zproj) v = std::tanh(v);
  nn::LstmState state(config_.hidden_dim);
  decoder_.StepForward(zproj.data(), &state);
  for (size_t i = 1; i < n; ++i) {
    decoder_.StepForward(
        edge_embed_.Lookup(static_cast<size_t>(edges[i - 1])), &state);
    const auto& succ = net_->NextEdges(edges[i - 1]);
    if (succ.empty()) continue;
    double max_logit = -1e30;
    std::vector<double> logits(succ.size());
    int obs = -1;
    for (size_t s = 0; s < succ.size(); ++s) {
      logits[s] = nn::Dot(state.h.data(),
                          out_embed_.Lookup(static_cast<size_t>(succ[s])),
                          config_.hidden_dim);
      max_logit = std::max(max_logit, logits[s]);
      if (succ[s] == edges[i]) obs = static_cast<int>(s);
    }
    if (obs < 0) {
      nll[i] = 10.0;  // transition not on the graph
      continue;
    }
    double zsum = 0.0;
    for (double logit : logits) zsum += std::exp(logit - max_logit);
    nll[i] = -(logits[obs] - max_logit - std::log(zsum));
  }
  return nll;
}

double SeqVaeDetector::TrainStep(const std::vector<traj::EdgeId>& edges) {
  const size_t n = edges.size();
  if (n < 3) return 0.0;
  const size_t H = config_.hidden_dim;
  const size_t L = config_.latent_dim;
  const bool variational = config_.variant != VaeVariant::kSae;

  // ---- Encoder forward.
  std::vector<const float*> enc_inputs(n);
  for (size_t i = 0; i < n; ++i) {
    enc_inputs[i] = edge_embed_.Lookup(static_cast<size_t>(edges[i]));
  }
  auto enc_caches = encoder_.Forward(enc_inputs);
  const nn::Vec& h_enc = enc_caches.back().h;
  nn::Vec mu(L), logvar(L, 0.0f), eps(L, 0.0f), z(L);
  mu_head_.Forward(h_enc.data(), mu.data());
  if (variational) {
    logvar_head_.Forward(h_enc.data(), logvar.data());
    for (size_t i = 0; i < L; ++i) {
      eps[i] = static_cast<float>(rng_.Gaussian());
      z[i] = mu[i] + std::exp(0.5f * logvar[i]) * eps[i];
    }
  } else {
    z = mu;
  }

  // KL target: nearest mixture component (GM variants) or standard normal.
  nn::Vec m(L, 0.0f);
  int comp = -1;
  if (variational) {
    if (config_.variant == VaeVariant::kGmVsae ||
        config_.variant == VaeVariant::kSdVsae) {
      comp = NearestComponent(mu);
      m = ComponentMean(comp);
    }
  }

  // ---- Decoder forward (sequence mode for BPTT).
  nn::Vec zproj_pre(config_.embed_dim), zproj(config_.embed_dim);
  z_to_h0_.Forward(z.data(), zproj_pre.data());
  for (size_t i = 0; i < zproj.size(); ++i) {
    zproj[i] = std::tanh(zproj_pre[i]);
  }
  std::vector<const float*> dec_inputs(n);
  dec_inputs[0] = zproj.data();
  for (size_t i = 1; i < n; ++i) {
    dec_inputs[i] = edge_embed_.Lookup(static_cast<size_t>(edges[i - 1]));
  }
  auto dec_caches = decoder_.Forward(dec_inputs);

  // ---- Reconstruction loss + gradient into decoder hiddens / out embeds.
  registry_.ZeroGrad();
  double loss = 0.0;
  nn::Matrix d_h(n, H);
  const float inv_steps = 1.0f / static_cast<float>(n - 1);
  for (size_t i = 1; i < n; ++i) {
    const auto& succ = net_->NextEdges(edges[i - 1]);
    if (succ.empty()) continue;
    const nn::Vec& h = dec_caches[i].h;
    double max_logit = -1e30;
    std::vector<double> logits(succ.size());
    int obs = -1;
    for (size_t s = 0; s < succ.size(); ++s) {
      logits[s] = nn::Dot(
          h.data(), out_embed_.Lookup(static_cast<size_t>(succ[s])), H);
      max_logit = std::max(max_logit, logits[s]);
      if (succ[s] == edges[i]) obs = static_cast<int>(s);
    }
    if (obs < 0) continue;
    double zsum = 0.0;
    for (double logit : logits) zsum += std::exp(logit - max_logit);
    loss -= (logits[obs] - max_logit - std::log(zsum)) * inv_steps;
    nn::Vec grad_row(H);
    for (size_t s = 0; s < succ.size(); ++s) {
      const double p = std::exp(logits[s] - max_logit) / zsum;
      const float g =
          static_cast<float>(p - (static_cast<int>(s) == obs ? 1.0 : 0.0)) *
          inv_steps;
      const float* out_v = out_embed_.Lookup(static_cast<size_t>(succ[s]));
      float* dh = d_h.Row(i);
      for (size_t d = 0; d < H; ++d) {
        dh[d] += g * out_v[d];
        grad_row[d] = g * h[d];
      }
      out_embed_.AccumulateGrad(static_cast<size_t>(succ[s]),
                                grad_row.data());
    }
  }

  // ---- Decoder backward.
  nn::Matrix d_dec_x;
  decoder_.BackwardSeq(dec_caches, d_h, &d_dec_x);
  for (size_t i = 1; i < n; ++i) {
    edge_embed_.AccumulateGrad(static_cast<size_t>(edges[i - 1]),
                               d_dec_x.Row(i));
  }
  // d zproj -> through tanh -> z_to_h0_ -> d z.
  nn::Vec d_zproj_pre(config_.embed_dim);
  for (size_t i = 0; i < d_zproj_pre.size(); ++i) {
    d_zproj_pre[i] = d_dec_x(0, i) * (1.0f - zproj[i] * zproj[i]);
  }
  nn::Vec d_z(L, 0.0f);
  z_to_h0_.Backward(z.data(), d_zproj_pre.data(), d_z.data());

  // ---- KL term and gradients into mu / logvar / components.
  nn::Vec d_mu(L, 0.0f), d_logvar(L, 0.0f);
  for (size_t i = 0; i < L; ++i) {
    d_mu[i] = d_z[i];  // z = mu + std * eps
    if (variational) {
      d_logvar[i] = d_z[i] * eps[i] * 0.5f * std::exp(0.5f * logvar[i]);
    }
  }
  if (variational) {
    const float klw = config_.kl_weight;
    double kl = 0.0;
    float* d_comp =
        comp >= 0 ? components_.grad.Row(static_cast<size_t>(comp)) : nullptr;
    for (size_t i = 0; i < L; ++i) {
      const float diff = mu[i] - m[i];
      kl += 0.5 * (std::exp(logvar[i]) + diff * diff - 1.0f - logvar[i]);
      d_mu[i] += klw * diff;
      d_logvar[i] += klw * 0.5f * (std::exp(logvar[i]) - 1.0f);
      if (d_comp != nullptr) d_comp[i] += klw * (-diff);
    }
    loss += klw * kl;
  }

  // ---- Encoder backward.
  nn::Vec d_h_enc(H, 0.0f);
  mu_head_.Backward(h_enc.data(), d_mu.data(), d_h_enc.data());
  if (variational) {
    logvar_head_.Backward(h_enc.data(), d_logvar.data(), d_h_enc.data());
  }
  nn::Matrix d_h_encoder(n, H);
  std::copy(d_h_enc.begin(), d_h_enc.end(), d_h_encoder.Row(n - 1));
  nn::Matrix d_enc_x;
  encoder_.BackwardSeq(enc_caches, d_h_encoder, &d_enc_x);
  for (size_t i = 0; i < n; ++i) {
    edge_embed_.AccumulateGrad(static_cast<size_t>(edges[i]),
                               d_enc_x.Row(i));
  }

  registry_.ClipGradNorm(config_.grad_clip);
  optimizer_->Step();
  // DecodeNll steps the decoder through StepForward, which reads its
  // packed weight copy (the encoder only runs the sequence Forward).
  decoder_.Repack();
  return loss;
}

void SeqVaeDetector::Fit(const traj::Dataset& train) {
  std::vector<size_t> order =
      rng_.SampleWithoutReplacement(train.size(),
                                    std::min(train.size(),
                                             config_.max_train_trajs));
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.Shuffle(&order);
    for (size_t idx : order) {
      TrainStep(train[idx].traj.edges);
    }
  }
  // Component assignment per SD pair (SD-VSAE's SD module).
  if (config_.variant == VaeVariant::kGmVsae ||
      config_.variant == VaeVariant::kSdVsae) {
    std::unordered_map<traj::SdPair, std::vector<int>, traj::SdPairHash>
        votes;
    std::vector<int> global_votes(config_.num_components, 0);
    for (size_t idx : order) {
      const auto& t = train[idx].traj;
      if (t.edges.size() < 2) continue;
      const int k = NearestComponent(EncodeMu(t.edges));
      auto& v = votes[t.sd()];
      v.resize(config_.num_components, 0);
      v[k] += 1;
      global_votes[k] += 1;
    }
    sd_component_.clear();
    for (const auto& [sd, v] : votes) {
      sd_component_[sd] = static_cast<int>(
          std::distance(v.begin(), std::max_element(v.begin(), v.end())));
    }
    global_best_component_ = static_cast<int>(std::distance(
        global_votes.begin(),
        std::max_element(global_votes.begin(), global_votes.end())));
  }
}

std::vector<double> SeqVaeDetector::Scores(
    const traj::MapMatchedTrajectory& t) const {
  const auto& edges = t.edges;
  if (edges.size() < 2) return std::vector<double>(edges.size(), 0.0);
  switch (config_.variant) {
    case VaeVariant::kSae:
    case VaeVariant::kVsae: {
      // Encoder pass then decoder pass ("scans the trajectory twice").
      return DecodeNll(edges, EncodeMu(edges));
    }
    case VaeVariant::kGmVsae: {
      // Decode under every normal-route category; keep the best-generated
      // likelihood per point.
      std::vector<double> best;
      for (int k = 0; k < config_.num_components; ++k) {
        auto nll = DecodeNll(edges, ComponentMean(k));
        if (best.empty()) {
          best = std::move(nll);
        } else {
          for (size_t i = 0; i < best.size(); ++i) {
            best[i] = std::min(best[i], nll[i]);
          }
        }
      }
      return best;
    }
    case VaeVariant::kSdVsae: {
      // One decoding pass under the SD-selected component.
      auto it = sd_component_.find(t.sd());
      const int k =
          it == sd_component_.end() ? global_best_component_ : it->second;
      return DecodeNll(edges, ComponentMean(k));
    }
  }
  return std::vector<double>(edges.size(), 0.0);
}

}  // namespace rl4oasd::baselines
