#include "nn/stacked.h"

#include <utility>

#include "common/logging.h"

namespace rl4oasd::nn {

class StackedRnn::Cache : public RecurrentNet::SeqCache {
 public:
  explicit Cache(std::vector<std::unique_ptr<SeqCache>> layers)
      : layers_(std::move(layers)) {}

  size_t size() const override { return layers_.back()->size(); }
  const Vec& h(size_t t) const override { return layers_.back()->h(t); }

  const std::vector<std::unique_ptr<SeqCache>>& layers() const {
    return layers_;
  }

 private:
  std::vector<std::unique_ptr<SeqCache>> layers_;
};

StackedRnn::StackedRnn(RnnKind kind, const std::string& name,
                       size_t input_dim, size_t hidden_dim, size_t layers,
                       rl4oasd::Rng* rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  RL4_CHECK_GE(layers, 1u);
  cores_.reserve(layers);
  for (size_t l = 0; l < layers; ++l) {
    const size_t in = l == 0 ? input_dim : hidden_dim;
    cores_.push_back(MakeRecurrentNet(
        kind, name + ".l" + std::to_string(l), in, hidden_dim, rng));
  }
}

void StackedRnn::StepRows(size_t batch, const float* x, size_t ldx, float* h,
                          float* c, size_t ld) const {
  const size_t H = hidden_dim_;
  for (size_t l = 0; l < cores_.size(); ++l) {
    cores_[l]->StepRows(batch, x, ldx, h + l * H, c + l * H, ld);
    x = h + l * H;  // feeds the next layer
    ldx = ld;
  }
}

std::unique_ptr<RecurrentNet::SeqCache> StackedRnn::Forward(
    const std::vector<const float*>& inputs) const {
  std::vector<std::unique_ptr<SeqCache>> layer_caches;
  layer_caches.reserve(cores_.size());
  std::vector<const float*> layer_inputs = inputs;
  for (const auto& core : cores_) {
    auto cache = core->Forward(layer_inputs);
    layer_inputs.clear();
    layer_inputs.reserve(cache->size());
    for (size_t t = 0; t < cache->size(); ++t) {
      layer_inputs.push_back(cache->h(t).data());
    }
    layer_caches.push_back(std::move(cache));
  }
  return std::make_unique<Cache>(std::move(layer_caches));
}

void StackedRnn::Backward(const SeqCache& cache, const std::vector<Vec>& d_h,
                          std::vector<Vec>* d_x) {
  const auto& stacked = static_cast<const Cache&>(cache);
  RL4_CHECK_EQ(stacked.layers().size(), cores_.size());
  std::vector<Vec> grad = d_h;
  for (size_t l = cores_.size(); l-- > 0;) {
    std::vector<Vec> d_in;
    std::vector<Vec>* sink = (l == 0) ? d_x : &d_in;
    cores_[l]->Backward(*stacked.layers()[l], grad, sink);
    if (l > 0) grad = std::move(d_in);
  }
}

void StackedRnn::BackwardSeq(const SeqCache& cache, const Matrix& d_h,
                             Matrix* d_x, GradientSink* sink) {
  const auto& stacked = static_cast<const Cache&>(cache);
  RL4_CHECK_EQ(stacked.layers().size(), cores_.size());
  // Inter-layer gradients ping-pong between two scratch matrices (the
  // cores never read their d_x output, so input/output must be distinct
  // buffers, never the same one).
  static thread_local Matrix grad_a;
  static thread_local Matrix grad_b;
  const Matrix* grad = &d_h;
  Matrix* spare = &grad_a;
  for (size_t l = cores_.size(); l-- > 0;) {
    Matrix* out = (l == 0) ? d_x : spare;
    cores_[l]->BackwardSeq(*stacked.layers()[l], *grad, out, sink);
    if (l > 0) {
      spare = (out == &grad_a) ? &grad_b : &grad_a;
      grad = out;
    }
  }
}

void StackedRnn::RegisterParams(ParameterRegistry* registry) {
  for (const auto& core : cores_) {
    core->RegisterParams(registry);
  }
}

void StackedRnn::Repack() {
  for (const auto& core : cores_) {
    core->Repack();
  }
}

}  // namespace rl4oasd::nn
