#include "nn/stacked.h"

#include <cstring>
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

void StackedRnn::StepForward(const float* x, RnnState* state) const {
  const size_t H = hidden_dim_;
  const size_t L = cores_.size();
  RL4_CHECK_EQ(state->h.size(), L * H);
  Vec input(x, x + input_dim_);
  RnnState layer_state(H);
  for (size_t l = 0; l < L; ++l) {
    std::memcpy(layer_state.h.data(), state->h.data() + l * H,
                H * sizeof(float));
    std::memcpy(layer_state.c.data(), state->c.data() + l * H,
                H * sizeof(float));
    cores_[l]->StepForward(input.data(), &layer_state);
    std::memcpy(state->h.data() + l * H, layer_state.h.data(),
                H * sizeof(float));
    std::memcpy(state->c.data() + l * H, layer_state.c.data(),
                H * sizeof(float));
    input = layer_state.h;  // feeds the next layer
  }
  // Expose the top layer's hidden output where single-layer consumers read
  // it: the last H entries already hold it (layer L-1's slice).
}

void StackedRnn::StepForwardBatch(const Matrix& x,
                                  RnnBatchState* state) const {
  const size_t H = hidden_dim_;
  const size_t L = cores_.size();
  const size_t B = x.cols();
  RL4_CHECK_EQ(state->h.rows(), L * H);
  RL4_CHECK_EQ(state->h.cols(), B);
  // Layer slices are full-width row blocks, so each (H x B) layer state is
  // one contiguous chunk of the packed matrices. Each layer's output is
  // swapped (O(1)) into `carry` to feed the next layer; the state matrices
  // get it via the write-back memcpy, so no full input copies are made.
  // Thread-local scratch (fully rewritten per layer), so steady-state
  // waves allocate nothing.
  static thread_local RnnBatchState layer_state;
  static thread_local Matrix carry;
  layer_state.h.EnsureShape(H, B);
  layer_state.c.EnsureShape(H, B);
  const Matrix* input = &x;
  const size_t block = H * B;
  for (size_t l = 0; l < L; ++l) {
    std::memcpy(layer_state.h.data(), state->h.Row(l * H),
                block * sizeof(float));
    std::memcpy(layer_state.c.data(), state->c.Row(l * H),
                block * sizeof(float));
    cores_[l]->StepForwardBatch(*input, &layer_state);
    std::memcpy(state->h.Row(l * H), layer_state.h.data(),
                block * sizeof(float));
    std::memcpy(state->c.Row(l * H), layer_state.c.data(),
                block * sizeof(float));
    if (l + 1 < L) {
      std::swap(carry, layer_state.h);  // feeds the next layer
      layer_state.h.EnsureShape(H, B);  // swap may leave a stale shape
      input = &carry;
    }
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
