#include "nn/gru.h"

#include <cmath>

#include "common/logging.h"

namespace rl4oasd::nn {

Gru::Gru(std::string name, size_t input_dim, size_t hidden_dim,
         rl4oasd::Rng* rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      wx_(name + ".wx", 3 * hidden_dim, input_dim),
      wh_(name + ".wh", 3 * hidden_dim, hidden_dim),
      b_(name + ".b", 1, 3 * hidden_dim) {
  wx_.XavierInit(rng);
  wh_.XavierInit(rng);
  // Positive update-gate bias starts the network close to h = h_prev
  // (identity), the GRU analogue of the LSTM forget-bias trick.
  for (size_t i = 0; i < hidden_dim_; ++i) {
    b_.value(0, i) = 1.0f;
  }
}

void Gru::ComputeGates(const float* x, const float* h_prev, float* gates,
                       float* q) const {
  // Pre-activations from the input path for all three blocks. Recurrent
  // contributions are summed as their own product chains and added once —
  // the association of the sequence Forward's GEMM input projection, so the
  // streaming and sequence paths agree bit-for-bit.
  MatVec(wx_.value, x, gates);
  FinishGates(h_prev, gates, q);
}

void Gru::FinishGates(const float* h_prev, float* gates, float* q) const {
  const size_t H = hidden_dim_;
  // z and r blocks: (Wx x + b) + U h_prev, then sigmoid.
  for (size_t r = 0; r < 2 * H; ++r) {
    gates[r] = Sigmoid(gates[r] + b_.value(0, r) +
                       Dot(wh_.value.Row(r), h_prev, H));
  }
  // q = r ⊙ h_prev feeds the candidate's recurrent term.
  for (size_t i = 0; i < H; ++i) q[i] = gates[H + i] * h_prev[i];
  // n block: (Wx x + b) + Un q, then tanh.
  for (size_t r = 2 * H; r < 3 * H; ++r) {
    gates[r] = Tanh(gates[r] + b_.value(0, r) +
                         Dot(wh_.value.Row(r), q, H));
  }
}

void Gru::StepForwardBatch(const Matrix& x, GruBatchState* state) const {
  RL4_CHECK_EQ(x.cols(), input_dim_);
  RL4_CHECK_EQ(state->h.rows(), x.rows());
  RL4_CHECK_EQ(state->h.cols(), hidden_dim_);
  StepRows(x.rows(), x.data(), input_dim_, state->h.data(), hidden_dim_);
}

void Gru::StepRows(size_t batch, const float* x, size_t ldx, float* h,
                   size_t ld) const {
  const size_t H = hidden_dim_;
  // Thread-local scratch, fully rewritten per row.
  static thread_local Vec gates;
  static thread_local Vec q;
  gates.resize(3 * H);
  q.resize(H);
  for (size_t s = 0; s < batch; ++s) {
    float* hs = h + s * ld;
    ComputeGates(x + s * ldx, hs, gates.data(), q.data());
    const float* z = gates.data();
    const float* n = gates.data() + 2 * H;
    for (size_t i = 0; i < H; ++i) {
      hs[i] = (1.0f - z[i]) * n[i] + z[i] * hs[i];
    }
  }
}

std::vector<GruStepCache> Gru::Forward(
    const std::vector<const float*>& inputs) const {
  const size_t H = hidden_dim_;
  const size_t T = inputs.size();
  std::vector<GruStepCache> caches(T);
  if (T == 0) return caches;
  // Input projection for all timesteps in one GEMM (see Lstm::Forward).
  static thread_local Matrix xf;   // I x T
  static thread_local Matrix wxx;  // 3H x T
  xf.EnsureShape(input_dim_, T);
  for (size_t t = 0; t < T; ++t) {
    const float* x = inputs[t];
    float* col = xf.data() + t;
    for (size_t r = 0; r < input_dim_; ++r) col[r * T] = x[r];
  }
  MatMul(wx_.value, xf, &wxx);
  Vec h_prev(H, 0.0f);
  for (size_t t = 0; t < T; ++t) {
    GruStepCache& cache = caches[t];
    cache.x.assign(inputs[t], inputs[t] + input_dim_);
    cache.gates.resize(3 * H);
    cache.q.resize(H);
    const float* wcol = wxx.data() + t;
    for (size_t r = 0; r < 3 * H; ++r) cache.gates[r] = wcol[r * T];
    FinishGates(h_prev.data(), cache.gates.data(), cache.q.data());
    cache.h.resize(H);
    const float* z = cache.gates.data();
    const float* n = cache.gates.data() + 2 * H;
    for (size_t i = 0; i < H; ++i) {
      cache.h[i] = (1.0f - z[i]) * n[i] + z[i] * h_prev[i];
    }
    h_prev = cache.h;
  }
  return caches;
}

void Gru::Backward(const std::vector<GruStepCache>& caches,
                   const std::vector<Vec>& d_h, std::vector<Vec>* d_x) {
  RL4_CHECK_EQ(caches.size(), d_h.size());
  const size_t H = hidden_dim_;
  const size_t T = caches.size();
  if (d_x != nullptr) {
    d_x->assign(T, Vec(input_dim_, 0.0f));
  }
  Vec dh_next(H, 0.0f);   // recurrent gradient from step t+1
  Vec d_gates(3 * H);     // pre-activation gradients [dz, dr, dn]
  Vec d_q(H);
  const Vec zero(H, 0.0f);
  for (size_t t = T; t-- > 0;) {
    const GruStepCache& cache = caches[t];
    const float* h_prev = (t == 0) ? zero.data() : caches[t - 1].h.data();
    const float* z = cache.gates.data();
    const float* r = cache.gates.data() + H;
    const float* n = cache.gates.data() + 2 * H;

    // dn (pre-activation) and the direct h_prev path through the blend.
    Vec dh_prev(H, 0.0f);
    for (size_t i = 0; i < H; ++i) {
      const float dh = d_h[t][i] + dh_next[i];
      const float dz = dh * (h_prev[i] - n[i]);
      const float dn = dh * (1.0f - z[i]);
      dh_prev[i] = dh * z[i];
      d_gates[i] = dz * z[i] * (1.0f - z[i]);
      d_gates[2 * H + i] = dn * (1.0f - n[i] * n[i]);
    }
    // d_q = Un^T dn_pre; then dr = d_q ⊙ h_prev and dh_prev += d_q ⊙ r.
    std::fill(d_q.begin(), d_q.end(), 0.0f);
    for (size_t row = 0; row < H; ++row) {
      const float g = d_gates[2 * H + row];
      const float* w = wh_.value.Row(2 * H + row);
      for (size_t c = 0; c < H; ++c) d_q[c] += w[c] * g;
    }
    for (size_t i = 0; i < H; ++i) {
      const float dr = d_q[i] * h_prev[i];
      d_gates[H + i] = dr * r[i] * (1.0f - r[i]);
      dh_prev[i] += d_q[i] * r[i];
    }

    // Parameter gradients. wx and b take the full 3H gate-gradient block;
    // wh splits: z/r rows pair with h_prev, n rows pair with q.
    OuterAccum(&wx_.grad, d_gates.data(), cache.x.data());
    float* db = b_.grad.Row(0);
    for (size_t i = 0; i < 3 * H; ++i) db[i] += d_gates[i];
    for (size_t row = 0; row < 2 * H; ++row) {
      const float g = d_gates[row];
      float* w = wh_.grad.Row(row);
      for (size_t c = 0; c < H; ++c) w[c] += g * h_prev[c];
    }
    for (size_t row = 0; row < H; ++row) {
      const float g = d_gates[2 * H + row];
      float* w = wh_.grad.Row(2 * H + row);
      for (size_t c = 0; c < H; ++c) w[c] += g * cache.q[c];
    }

    // Input gradient.
    if (d_x != nullptr) {
      MatTransVecAccum(wx_.value, d_gates.data(), (*d_x)[t].data());
    }

    // Recurrent gradient into step t-1: the blend path (dh_prev) plus the
    // z and r pre-activation paths through Uz/Ur.
    std::fill(dh_next.begin(), dh_next.end(), 0.0f);
    if (t > 0) {
      for (size_t row = 0; row < 2 * H; ++row) {
        const float g = d_gates[row];
        const float* w = wh_.value.Row(row);
        for (size_t c = 0; c < H; ++c) dh_next[c] += w[c] * g;
      }
      for (size_t i = 0; i < H; ++i) dh_next[i] += dh_prev[i];
    }
  }
}

void Gru::BackwardSeq(const std::vector<GruStepCache>& caches,
                      const Matrix& d_h, Matrix* d_x, GradientSink* sink) {
  const size_t H = hidden_dim_;
  const size_t I = input_dim_;
  const size_t T = caches.size();
  RL4_CHECK_EQ(d_h.rows(), T);
  if (T == 0) {
    if (d_x != nullptr) d_x->EnsureShape(0, I);
    return;
  }
  RL4_CHECK_EQ(d_h.cols(), H);
  Matrix* wx_g = sink != nullptr ? sink->Find(&wx_) : &wx_.grad;
  Matrix* wh_g = sink != nullptr ? sink->Find(&wh_) : &wh_.grad;
  Matrix* b_g = sink != nullptr ? sink->Find(&b_) : &b_.grad;
  if (sink != nullptr) {
    sink->TouchAll(&wx_);
    sink->TouchAll(&wh_);
    sink->TouchAll(&b_);
  }

  // Timestep-packed layouts, reversed-time columns/rows so the GEMM
  // product chains replay the per-step descending-t accumulation order
  // (see Lstm::BackwardSeq). wh splits: z/r rows pair with h_prev (all T
  // steps; t = 0 pairs with the zero state, exactly as the per-step loop
  // does), n rows pair with q.
  static thread_local Matrix dg;          // 3H x T, column j <-> t = T-1-j
  static thread_local Matrix dg_t;        // T x 3H, row t
  static thread_local Matrix x_rev;       // T x I, row j <-> x at t = T-1-j
  static thread_local Matrix h_prev_rev;  // T x H, row j <-> h_prev at t
  static thread_local Matrix q_rev;       // T x H, row j <-> q at t = T-1-j
  dg.EnsureShape(3 * H, T);
  dg_t.EnsureShape(T, 3 * H);
  x_rev.EnsureShape(T, I);
  h_prev_rev.EnsureShape(T, H);
  q_rev.EnsureShape(T, H);

  Vec dh_next(H, 0.0f);
  Vec d_q(H);
  Vec dh_prev(H);
  const Vec zero(H, 0.0f);
  for (size_t t = T; t-- > 0;) {
    const GruStepCache& cache = caches[t];
    const size_t j = T - 1 - t;
    const float* h_prev = (t == 0) ? zero.data() : caches[t - 1].h.data();
    const float* z = cache.gates.data();
    const float* r = cache.gates.data() + H;
    const float* n = cache.gates.data() + 2 * H;
    float* d_gates = dg_t.Row(t);
    const float* dht = d_h.Row(t);

    // dz / dn (pre-activation) and the direct h_prev path through the
    // blend — the exact per-step math.
    for (size_t i = 0; i < H; ++i) {
      const float dh = dht[i] + dh_next[i];
      const float dz = dh * (h_prev[i] - n[i]);
      const float dn = dh * (1.0f - z[i]);
      dh_prev[i] = dh * z[i];
      d_gates[i] = dz * z[i] * (1.0f - z[i]);
      d_gates[2 * H + i] = dn * (1.0f - n[i] * n[i]);
    }
    // d_q = Un^T dn_pre; then dr = d_q ⊙ h_prev and dh_prev += d_q ⊙ r.
    std::fill(d_q.begin(), d_q.end(), 0.0f);
    for (size_t row = 0; row < H; ++row) {
      const float g = d_gates[2 * H + row];
      const float* w = wh_.value.Row(2 * H + row);
      for (size_t c = 0; c < H; ++c) d_q[c] += w[c] * g;
    }
    for (size_t i = 0; i < H; ++i) {
      const float dr = d_q[i] * h_prev[i];
      d_gates[H + i] = dr * r[i] * (1.0f - r[i]);
      dh_prev[i] += d_q[i] * r[i];
    }

    // Scatter into the reversed-time layouts.
    {
      float* col = dg.data() + j;
      for (size_t row = 0; row < 3 * H; ++row) col[row * T] = d_gates[row];
    }
    std::copy(cache.x.begin(), cache.x.end(), x_rev.Row(j));
    std::copy(h_prev, h_prev + H, h_prev_rev.Row(j));
    std::copy(cache.q.begin(), cache.q.end(), q_rev.Row(j));

    // Bias gradient in the per-step order.
    float* db = b_g->Row(0);
    for (size_t i = 0; i < 3 * H; ++i) db[i] += d_gates[i];

    // Recurrent gradient into step t-1 (per-step code).
    std::fill(dh_next.begin(), dh_next.end(), 0.0f);
    if (t > 0) {
      for (size_t row = 0; row < 2 * H; ++row) {
        const float g = d_gates[row];
        const float* w = wh_.value.Row(row);
        for (size_t c = 0; c < H; ++c) dh_next[c] += w[c] * g;
      }
      for (size_t i = 0; i < H; ++i) dh_next[i] += dh_prev[i];
    }
  }

  // Weight gradients as GEMMs: wx over all gates, wh split per pairing.
  Gemm(dg.data(), 3 * H, T, T, x_rev.data(), I, I, wx_g->data(), I,
       /*accumulate=*/true);
  Gemm(dg.data(), 2 * H, T, T, h_prev_rev.data(), H, H, wh_g->data(), H,
       /*accumulate=*/true);
  Gemm(dg.Row(2 * H), H, T, T, q_rev.data(), H, H, wh_g->Row(2 * H), H,
       /*accumulate=*/true);
  // d_x = DG_t * Wx.
  if (d_x != nullptr) {
    d_x->EnsureShape(T, I);
    Gemm(dg_t.data(), T, 3 * H, 3 * H, wx_.value.data(), I, I, d_x->data(),
         I, /*accumulate=*/false);
  }
}

}  // namespace rl4oasd::nn
