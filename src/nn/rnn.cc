#include "nn/rnn.h"

#include <cstring>

#include "common/logging.h"
#include "nn/gru.h"
#include "nn/lstm.h"

namespace rl4oasd::nn {

void RnnBatchState::Gather(std::span<const RnnState* const> states,
                           size_t state_size) {
  const size_t batch = states.size();
  h.EnsureShape(batch, state_size);
  c.EnsureShape(batch, state_size);
  for (size_t b = 0; b < batch; ++b) {
    RL4_CHECK_EQ(states[b]->h.size(), state_size);
    std::memcpy(h.Row(b), states[b]->h.data(), state_size * sizeof(float));
    std::memcpy(c.Row(b), states[b]->c.data(), state_size * sizeof(float));
  }
}

void RnnBatchState::Scatter(std::span<RnnState* const> states) const {
  const size_t batch = states.size();
  RL4_CHECK_EQ(batch, h.rows());
  const size_t state_size = h.cols();
  for (size_t b = 0; b < batch; ++b) {
    RL4_CHECK_EQ(states[b]->h.size(), state_size);
    std::memcpy(states[b]->h.data(), h.Row(b), state_size * sizeof(float));
    std::memcpy(states[b]->c.data(), c.Row(b), state_size * sizeof(float));
  }
}

void RecurrentNet::StepForwardBatch(const Matrix& x,
                                    RnnBatchState* state) const {
  const size_t B = x.rows();
  const size_t S = state_size();
  RL4_CHECK_EQ(x.cols(), input_dim());
  RL4_CHECK_EQ(state->h.rows(), B);
  RL4_CHECK_EQ(state->h.cols(), S);
  RL4_CHECK_EQ(state->c.rows(), B);
  RL4_CHECK_EQ(state->c.cols(), S);
  StepRows(B, x.data(), x.cols(), state->h.data(), state->c.data(), S);
}

namespace {

class LstmNet : public RecurrentNet {
 public:
  LstmNet(const std::string& name, size_t input_dim, size_t hidden_dim,
          rl4oasd::Rng* rng)
      : lstm_(name + ".lstm", input_dim, hidden_dim, rng) {}

  class Cache : public SeqCache {
   public:
    explicit Cache(std::vector<LstmStepCache> steps)
        : steps_(std::move(steps)) {}
    size_t size() const override { return steps_.size(); }
    const Vec& h(size_t t) const override { return steps_[t].h; }
    const std::vector<LstmStepCache>& steps() const { return steps_; }

   private:
    std::vector<LstmStepCache> steps_;
  };

  size_t input_dim() const override { return lstm_.input_dim(); }
  size_t hidden_dim() const override { return lstm_.hidden_dim(); }

  void StepRows(size_t batch, const float* x, size_t ldx, float* h, float* c,
                size_t ld) const override {
    lstm_.StepRows(batch, x, ldx, h, c, ld);
  }

  std::unique_ptr<SeqCache> Forward(
      const std::vector<const float*>& inputs) const override {
    return std::make_unique<Cache>(lstm_.Forward(inputs));
  }

  void Backward(const SeqCache& cache, const std::vector<Vec>& d_h,
                std::vector<Vec>* d_x) override {
    lstm_.Backward(static_cast<const Cache&>(cache).steps(), d_h, d_x);
  }

  void BackwardSeq(const SeqCache& cache, const Matrix& d_h, Matrix* d_x,
                   GradientSink* sink) override {
    lstm_.BackwardSeq(static_cast<const Cache&>(cache).steps(), d_h, d_x,
                      sink);
  }

  void RegisterParams(ParameterRegistry* registry) override {
    lstm_.RegisterParams(registry);
  }

  void Repack() override { lstm_.Repack(); }

 private:
  Lstm lstm_;
};

class GruNet : public RecurrentNet {
 public:
  GruNet(const std::string& name, size_t input_dim, size_t hidden_dim,
         rl4oasd::Rng* rng)
      : gru_(name + ".gru", input_dim, hidden_dim, rng) {}

  class Cache : public SeqCache {
   public:
    explicit Cache(std::vector<GruStepCache> steps)
        : steps_(std::move(steps)) {}
    size_t size() const override { return steps_.size(); }
    const Vec& h(size_t t) const override { return steps_[t].h; }
    const std::vector<GruStepCache>& steps() const { return steps_; }

   private:
    std::vector<GruStepCache> steps_;
  };

  size_t input_dim() const override { return gru_.input_dim(); }
  size_t hidden_dim() const override { return gru_.hidden_dim(); }

  void StepRows(size_t batch, const float* x, size_t ldx, float* h,
                float* /*c*/, size_t ld) const override {
    gru_.StepRows(batch, x, ldx, h, ld);
  }

  std::unique_ptr<SeqCache> Forward(
      const std::vector<const float*>& inputs) const override {
    return std::make_unique<Cache>(gru_.Forward(inputs));
  }

  void Backward(const SeqCache& cache, const std::vector<Vec>& d_h,
                std::vector<Vec>* d_x) override {
    gru_.Backward(static_cast<const Cache&>(cache).steps(), d_h, d_x);
  }

  void BackwardSeq(const SeqCache& cache, const Matrix& d_h, Matrix* d_x,
                   GradientSink* sink) override {
    gru_.BackwardSeq(static_cast<const Cache&>(cache).steps(), d_h, d_x,
                     sink);
  }

  void RegisterParams(ParameterRegistry* registry) override {
    gru_.RegisterParams(registry);
  }

 private:
  Gru gru_;
};

}  // namespace

const char* RnnKindName(RnnKind kind) {
  switch (kind) {
    case RnnKind::kLstm:
      return "lstm";
    case RnnKind::kGru:
      return "gru";
  }
  return "unknown";
}

std::unique_ptr<RecurrentNet> MakeRecurrentNet(RnnKind kind,
                                               const std::string& name,
                                               size_t input_dim,
                                               size_t hidden_dim,
                                               rl4oasd::Rng* rng) {
  switch (kind) {
    case RnnKind::kLstm:
      return std::make_unique<LstmNet>(name, input_dim, hidden_dim, rng);
    case RnnKind::kGru:
      return std::make_unique<GruNet>(name, input_dim, hidden_dim, rng);
  }
  RL4_CHECK(false) << "unknown RnnKind";
  return nullptr;
}

}  // namespace rl4oasd::nn
