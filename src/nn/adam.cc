#include "nn/adam.h"

#include <cmath>

namespace rl4oasd::nn {

AdamOptimizer::AdamOptimizer(ParameterRegistry* registry, AdamConfig config)
    : registry_(registry), config_(config) {}

void AdamOptimizer::Step() {
  ++t_;
  const float b1 = config_.beta1;
  const float b2 = config_.beta2;
  const float bias1 = 1.0f - std::pow(b1, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(b2, static_cast<float>(t_));
  const auto& params = registry_->params();
  // The moments start at zero on the first step, so a model that only
  // serves (loaded, cloned, restored) never allocates them.
  if (m_.empty()) {
    m_.reserve(params.size());
    v_.reserve(params.size());
    for (const Parameter* p : params) {
      m_.emplace_back(p->value.rows(), p->value.cols());
      v_.emplace_back(p->value.rows(), p->value.cols());
    }
    active_rows_.resize(params.size());
  }
  for (size_t k = 0; k < params.size(); ++k) {
    Parameter* p = params[k];
    auto update_row = [&](float* w, const float* g, float* m, float* v,
                          size_t n) {
      for (size_t i = 0; i < n; ++i) {
        float gi = g[i] + config_.weight_decay * w[i];
        m[i] = b1 * m[i] + (1.0f - b1) * gi;
        v[i] = b2 * v[i] + (1.0f - b2) * gi * gi;
        const float mhat = m[i] / bias1;
        const float vhat = v[i] / bias2;
        w[i] -= config_.lr * mhat / (std::sqrt(vhat) + config_.eps);
      }
    };
    // Row-sparse parameters (embedding tables): a row whose gradient is
    // zero AND whose moments are zero is an exact fixed point of the
    // update when weight decay is off (m and v stay 0, the step is
    // lr * 0 / (sqrt(0) + eps) = 0, and w - 0.0f == w for every float), so
    // only rows ever touched since this optimizer started need work. The
    // active set is sticky: once a row has nonzero moments they decay
    // multiplicatively and must keep updating every step.
    if (p->row_sparse && config_.weight_decay == 0.0f) {
      auto& active = active_rows_[k];
      if (active.empty()) active.resize(p->touched_bits.size(), 0);
      const size_t cols = p->value.cols();
      for (size_t wd = 0; wd < active.size(); ++wd) {
        active[wd] |= p->touched_bits[wd];
      }
      ForEachSetRow(active, [&](size_t r) {
        update_row(p->value.Row(r), p->grad.Row(r), m_[k].Row(r),
                   v_[k].Row(r), cols);
      });
    } else {
      update_row(p->value.data(), p->grad.data(), m_[k].data(), v_[k].data(),
                 p->value.size());
    }
  }
}

}  // namespace rl4oasd::nn
