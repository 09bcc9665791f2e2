#include "nn/lstm.h"

#include <cmath>
#include <cstring>

#include "nn/kernels.h"

namespace rl4oasd::nn {

void LstmBatchState::Gather(std::span<const LstmState* const> states,
                            size_t hidden) {
  const size_t batch = states.size();
  h.EnsureShape(batch, hidden);
  c.EnsureShape(batch, hidden);
  for (size_t b = 0; b < batch; ++b) {
    RL4_CHECK_EQ(states[b]->h.size(), hidden);
    std::memcpy(h.Row(b), states[b]->h.data(), hidden * sizeof(float));
    std::memcpy(c.Row(b), states[b]->c.data(), hidden * sizeof(float));
  }
}

void LstmBatchState::Scatter(std::span<LstmState* const> states) const {
  const size_t batch = states.size();
  RL4_CHECK_EQ(batch, h.rows());
  const size_t hidden = h.cols();
  for (size_t b = 0; b < batch; ++b) {
    RL4_CHECK_EQ(states[b]->h.size(), hidden);
    std::memcpy(states[b]->h.data(), h.Row(b), hidden * sizeof(float));
    std::memcpy(states[b]->c.data(), c.Row(b), hidden * sizeof(float));
  }
}

Lstm::Lstm(std::string name, size_t input_dim, size_t hidden_dim,
           rl4oasd::Rng* rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      wx_(name + ".wx", 4 * hidden_dim, input_dim),
      wh_(name + ".wh", 4 * hidden_dim, hidden_dim),
      b_(name + ".b", 1, 4 * hidden_dim) {
  wx_.XavierInit(rng);
  wh_.XavierInit(rng);
  // Forget-gate bias of 1.0 is the standard trick for gradient flow early in
  // training.
  for (size_t i = 0; i < hidden_dim_; ++i) {
    b_.value(0, hidden_dim_ + i) = 1.0f;
  }
  Repack();
}

namespace {

/// dst = src^T (dst is reshaped; every element rewritten).
void TransposeInto(const Matrix& src, Matrix* dst) {
  dst->EnsureShape(src.cols(), src.rows());
  for (size_t r = 0; r < src.rows(); ++r) {
    const float* row = src.Row(r);
    for (size_t c = 0; c < src.cols(); ++c) (*dst)(c, r) = row[c];
  }
}

/// In-place activations of one stream's 4H gate pre-activations: [i, f]
/// sigmoid, [g] tanh, [o] sigmoid. The one activation body: Forward and
/// every StepRows variant inline it.
RL4_ALWAYS_INLINE void ActivateGates(float* gates, size_t H) {
  for (size_t i = 0; i < H; ++i) gates[i] = Sigmoid(gates[i]);
  for (size_t i = H; i < 2 * H; ++i) gates[i] = Sigmoid(gates[i]);
  for (size_t i = 2 * H; i < 3 * H; ++i) gates[i] = Tanh(gates[i]);
  for (size_t i = 3 * H; i < 4 * H; ++i) gates[i] = Sigmoid(gates[i]);
}

/// Everything one StepRows call reads and writes.
struct StepOperands {
  size_t batch;
  size_t input_dim;
  size_t hidden_dim;
  const float* x;     // batch x input_dim
  const float* wx_t;  // input_dim x 4H
  const float* wh_t;  // hidden_dim x 4H
  const float* bias;  // 4H
  float* gates;       // batch x 4H scratch
  float* h;           // batch x H, updated in place
  float* c;           // batch x H, updated in place
};

/// The streaming step body, compiled by each variant wrapper below at its
/// own vector width (WIDE is its GEMM tile). gates = (X Wx^T + b) +
/// H_prev Wh^T against the k-major copies: row b holds stream b's 4H
/// pre-activations, each the same ascending-k chain, in the same
/// association, as the sequence Forward. The recurrent GEMM reads every h
/// row before the cell update overwrites any. Every elementwise operation
/// is one IEEE operation per lane, so the width never changes a value.
template <size_t WIDE>
RL4_ALWAYS_INLINE void StepBody(const StepOperands& op) {
  const size_t H = op.hidden_dim;
  const size_t h4 = 4 * H;
  internal::GemmLoop<WIDE>(op.x, op.batch, op.input_dim, op.input_dim, op.wx_t,
                           h4, h4, op.gates, h4, /*accumulate=*/false);
  for (size_t s = 0; s < op.batch; ++s) {
    float* g = op.gates + s * h4;
    for (size_t r = 0; r < h4; ++r) g[r] += op.bias[r];
  }
  internal::GemmLoop<WIDE>(op.h, op.batch, H, H, op.wh_t, h4, h4, op.gates, h4,
                           /*accumulate=*/true);
  for (size_t s = 0; s < op.batch; ++s) {
    float* g = op.gates + s * h4;
    ActivateGates(g, H);
    const float* ig = g;
    const float* fg = g + H;
    const float* gg = g + 2 * H;
    const float* og = g + 3 * H;
    float* hs = op.h + s * H;
    float* cs = op.c + s * H;
    for (size_t i = 0; i < H; ++i) {
      cs[i] = fg[i] * cs[i] + ig[i] * gg[i];
      hs[i] = og[i] * Tanh(cs[i]);
    }
  }
}

#ifdef RL4_NN_X86_VARIANTS
__attribute__((target("avx2"))) void StepAvx2(const StepOperands& op) {
  StepBody<internal::kAvx2Tile>(op);
}

__attribute__((target("avx512f"))) void StepAvx512f(const StepOperands& op) {
  StepBody<internal::kAvx512fTile>(op);
}
#endif

}  // namespace

void Lstm::Repack() {
  TransposeInto(wx_.value, &wx_t_);
  TransposeInto(wh_.value, &wh_t_);
}

void Lstm::StepForwardBatch(const Matrix& x, LstmBatchState* state) const {
  const size_t B = x.rows();
  RL4_CHECK_EQ(x.cols(), input_dim_);
  RL4_CHECK_EQ(state->h.rows(), B);
  RL4_CHECK_EQ(state->h.cols(), hidden_dim_);
  RL4_CHECK_EQ(state->c.rows(), B);
  RL4_CHECK_EQ(state->c.cols(), hidden_dim_);
  StepRows(B, x.data(), state->h.data(), state->c.data());
}

void Lstm::StepRowsOn(internal::Isa isa, size_t batch, const float* x, float* h,
                      float* c) const {
  RL4_CHECK(internal::IsaAvailable(isa)) << internal::IsaName(isa);
  // Thread-local scratch, fully rewritten: no per-step allocation.
  static thread_local Matrix gates;  // batch x 4H
  gates.EnsureShape(batch, 4 * hidden_dim_);
  StepOperands op;
  op.batch = batch;
  op.input_dim = input_dim_;
  op.hidden_dim = hidden_dim_;
  op.x = x;
  op.wx_t = wx_t_.data();
  op.wh_t = wh_t_.data();
  op.bias = b_.value.Row(0);
  op.gates = gates.data();
  op.h = h;
  op.c = c;
  switch (isa) {
#ifdef RL4_NN_X86_VARIANTS
    case internal::Isa::kAvx512f:
      StepAvx512f(op);
      return;
    case internal::Isa::kAvx2:
      StepAvx2(op);
      return;
#endif
    default:
      StepBody<internal::kBaselineTile>(op);
  }
}

std::vector<LstmStepCache> Lstm::Forward(
    const std::vector<const float*>& inputs) const {
  const size_t H = hidden_dim_;
  const size_t T = inputs.size();
  std::vector<LstmStepCache> caches(T);
  if (T == 0) return caches;
  // Input projection for all timesteps in one GEMM: pack the inputs
  // feature-major (I x T) and compute Wx * X as (4H x T). Each element is
  // the same ascending-k chain StepRows' GEMM runs per step, so the gates
  // are bit-identical to stepping StepForward. The recurrent term runs as
  // StepRows' 1-row GEMM over a k-major copy of Wh (H x 4H) built here, per
  // call, rather than Repack's wh_t_, so the forward reads the parameters
  // as they are now: finite-difference checks perturb wh_ in place without
  // a Repack.
  static thread_local Matrix xf;    // I x T
  static thread_local Matrix wxx;   // 4H x T
  static thread_local Matrix wh_t;  // H x 4H
  xf.EnsureShape(input_dim_, T);
  for (size_t t = 0; t < T; ++t) {
    const float* x = inputs[t];
    float* col = xf.data() + t;
    for (size_t r = 0; r < input_dim_; ++r) col[r * T] = x[r];
  }
  MatMul(wx_.value, xf, &wxx);
  TransposeInto(wh_.value, &wh_t);
  const float* bias = b_.value.Row(0);
  Vec h_prev(H, 0.0f);
  Vec c_prev(H, 0.0f);
  for (size_t t = 0; t < T; ++t) {
    LstmStepCache& cache = caches[t];
    cache.x.assign(inputs[t], inputs[t] + input_dim_);
    cache.gates.resize(4 * H);
    // gates = (Wx x + b) + Wh h_prev: the recurrent chain is summed on its
    // own and added once, StepRows' association.
    const float* wcol = wxx.data() + t;
    for (size_t r = 0; r < 4 * H; ++r) {
      cache.gates[r] = wcol[r * T] + bias[r];
    }
    Gemm(h_prev.data(), 1, H, H, wh_t.data(), 4 * H, 4 * H,
         cache.gates.data(), 4 * H, /*accumulate=*/true);
    ActivateGates(cache.gates.data(), H);
    cache.c_prev = c_prev;
    cache.c.resize(H);
    cache.tanh_c.resize(H);
    cache.h.resize(H);
    const float* ig = cache.gates.data();
    const float* fg = cache.gates.data() + H;
    const float* gg = cache.gates.data() + 2 * H;
    const float* og = cache.gates.data() + 3 * H;
    for (size_t i = 0; i < H; ++i) {
      cache.c[i] = fg[i] * c_prev[i] + ig[i] * gg[i];
      cache.tanh_c[i] = Tanh(cache.c[i]);
      cache.h[i] = og[i] * cache.tanh_c[i];
    }
    h_prev = cache.h;
    c_prev = cache.c;
  }
  return caches;
}

void Lstm::BackwardSeq(const std::vector<LstmStepCache>& caches,
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

  // Timestep-packed gradient matrices. dg holds the pre-activation gate
  // gradients twice: column j = T-1-t of the (4H x T) layout drives the
  // weight-gradient GEMMs, whose ascending k accumulates every element in
  // descending t, the order of a per-step BPTT; row t of the (T x 4H)
  // layout drives the input-gradient GEMM. Thread-local scratch: fully
  // rewritten, steady state allocates nothing.
  static thread_local Matrix dg;       // 4H x T, column j <-> t = T-1-j
  static thread_local Matrix dg_t;     // T x 4H, row t
  static thread_local Matrix x_rev;    // T x I, row j <-> x at t = T-1-j
  static thread_local Matrix h_prev_rev;  // (T-1) x H, row j <-> h_{T-2-j}
  dg.EnsureShape(4 * H, T);
  dg_t.EnsureShape(T, 4 * H);
  x_rev.EnsureShape(T, I);
  if (T > 1) h_prev_rev.EnsureShape(T - 1, H);

  // The gate-gradient recursion is inherently sequential (dh/dc of step t
  // feed step t-1) and runs step by step; only the parameter and input
  // gradients are deferred to the GEMMs below.
  Vec dc_next(H, 0.0f);
  Vec dh_next(H, 0.0f);
  for (size_t t = T; t-- > 0;) {
    const LstmStepCache& cache = caches[t];
    const size_t j = T - 1 - t;
    float* d_gates = dg_t.Row(t);
    const float* ig = cache.gates.data();
    const float* fg = cache.gates.data() + H;
    const float* gg = cache.gates.data() + 2 * H;
    const float* og = cache.gates.data() + 3 * H;
    const float* dht = d_h.Row(t);
    for (size_t i = 0; i < H; ++i) {
      const float dh = dht[i] + dh_next[i];
      const float dc = dh * og[i] * (1.0f - cache.tanh_c[i] * cache.tanh_c[i]) +
                       dc_next[i];
      const float di = dc * gg[i];
      const float df = dc * cache.c_prev[i];
      const float dgv = dc * ig[i];
      const float dout = dh * cache.tanh_c[i];
      d_gates[i] = di * ig[i] * (1.0f - ig[i]);
      d_gates[H + i] = df * fg[i] * (1.0f - fg[i]);
      d_gates[2 * H + i] = dgv * (1.0f - gg[i] * gg[i]);
      d_gates[3 * H + i] = dout * og[i] * (1.0f - og[i]);
      dc_next[i] = dc * fg[i];
    }
    // Scatter into the reversed-time layouts for the post-loop GEMMs.
    {
      float* col = dg.data() + j;
      for (size_t r = 0; r < 4 * H; ++r) col[r * T] = d_gates[r];
    }
    std::copy(cache.x.begin(), cache.x.end(), x_rev.Row(j));
    if (t > 0) {
      const Vec& hp = caches[t - 1].h;
      std::copy(hp.begin(), hp.end(), h_prev_rev.Row(j));
    }
    // Bias gradient: element-wise accumulation in the per-step order.
    float* db = b_g->Row(0);
    for (size_t i = 0; i < 4 * H; ++i) db[i] += d_gates[i];
    // Recurrent hidden gradient for step t-1 (same per-step matvec).
    std::fill(dh_next.begin(), dh_next.end(), 0.0f);
    if (t > 0) {
      MatTransVecAccum(wh_.value, d_gates, dh_next.data());
    }
  }

  // dWx += DG * X^T and dWh += DG[:, :T-1] * Hprev^T as single GEMMs.
  Gemm(dg.data(), 4 * H, T, T, x_rev.data(), I, I, wx_g->data(), I,
       /*accumulate=*/true);
  if (T > 1) {
    Gemm(dg.data(), 4 * H, T - 1, T, h_prev_rev.data(), H, H, wh_g->data(),
         H, /*accumulate=*/true);
  }
  // d_x = DG_t * Wx in one GEMM (rows are independent chains, so forward
  // row order is fine).
  if (d_x != nullptr) {
    d_x->EnsureShape(T, I);
    Gemm(dg_t.data(), T, 4 * H, 4 * H, wx_.value.data(), I, I, d_x->data(),
         I, /*accumulate=*/false);
  }
}

}  // namespace rl4oasd::nn
