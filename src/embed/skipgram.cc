#include "embed/skipgram.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>

#include "common/logging.h"
#include "common/mutex.h"
#include "nn/sgns.h"

namespace rl4oasd::embed {

using roadnet::EdgeId;

SkipGramTrainer::SkipGramTrainer(const roadnet::RoadNetwork* net, size_t dim,
                                 SkipGramConfig config)
    : net_(net), dim_(dim), config_(config), rng_(config.seed) {
  // A window of 0 would draw UniformInt(0) and a negative one never ends;
  // the model-bundle reader rejects the same values by key.
  RL4_CHECK_GE(dim_, size_t{1});
  RL4_CHECK_GE(config_.window, 1);
  RL4_CHECK_GE(config_.walk_length, 1);
  RL4_CHECK_GE(config_.negatives, 0);
  RL4_CHECK_GE(config_.epochs, 0);
  RL4_CHECK_GE(config_.random_walks_per_edge, 0);
  const size_t n = net->NumEdges();
  in_.Resize(n, dim_);
  out_.Resize(n, dim_);
  aux_w_.Resize(3, dim_);
  const float scale = 0.5f / static_cast<float>(dim_);
  for (size_t i = 0; i < in_.size(); ++i) {
    in_.data()[i] = static_cast<float>(rng_.Uniform(-scale, scale));
  }
  for (size_t i = 0; i < aux_w_.size(); ++i) {
    aux_w_.data()[i] = static_cast<float>(rng_.Uniform(-scale, scale));
  }
  unigram_.assign(n, 1.0);
}

std::vector<std::vector<EdgeId>> SkipGramTrainer::BuildCorpus(
    const traj::Dataset& dataset) {
  std::vector<std::vector<EdgeId>> corpus;
  corpus.reserve(dataset.size() +
                 net_->NumEdges() * config_.random_walks_per_edge);
  // Travel semantics: the trajectories themselves.
  for (const auto& lt : dataset.trajs()) {
    if (lt.traj.edges.size() >= 2) corpus.push_back(lt.traj.edges);
  }
  // Topology: random walks on the edge graph.
  for (int w = 0; w < config_.random_walks_per_edge; ++w) {
    for (EdgeId start = 0;
         start < static_cast<EdgeId>(net_->NumEdges()); ++start) {
      std::vector<EdgeId> walk{start};
      EdgeId cur = start;
      for (int s = 1; s < config_.walk_length; ++s) {
        const auto& next = net_->NextEdges(cur);
        if (next.empty()) break;
        cur = next[rng_.UniformInt(next.size())];
        walk.push_back(cur);
      }
      if (walk.size() >= 2) corpus.push_back(std::move(walk));
    }
  }
  // Unigram counts (smoothed to 0.75 power, word2vec-style).
  std::fill(unigram_.begin(), unigram_.end(), 0.0);
  for (const auto& seq : corpus) {
    for (EdgeId e : seq) unigram_[e] += 1.0;
  }
  for (double& u : unigram_) u = std::pow(u + 1.0, 0.75);
  return corpus;
}

namespace {

/// One unit of the trainer's work, fixed by the random stream alone. With
/// targets it is a (center, context) pair: its targets are the context, then
/// the kept negatives in draw order. With none it is the auxiliary step of
/// the center's token, which follows the token's pairs.
struct Plan {
  EdgeId center = 0;
  uint32_t count = 0;     // targets
  bool distinct = false;  // no target repeats
  double lr = 0.0;
};

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// A bounded single-producer single-consumer ring of plans. The producer
/// publishes its progress every kPublishBatch plans and the consumer retires
/// its own at the same stride, so the two threads share a cache line about
/// once per batch rather than once per plan. A side that finds nothing to do
/// spins kSpins times, then blocks on a condition variable until the other
/// side has made a wake batch of progress (a quarter of the ring) or the
/// stream ends: under a one-CPU affinity mask or an oversubscribed host the
/// threads take turns in long runs instead of spinning against each other.
/// Each side publishes all of its progress before it blocks, so both can
/// never wait at once.
class PlanRing {
 public:
  explicit PlanRing(size_t max_targets)
      : stride_(max_targets),
        slots_(SlotsFor(max_targets)),
        wake_batch_(slots_ / 4),
        plans_(slots_),
        targets_(slots_ * stride_) {}

  // ---- Producer side ----

  /// The next slot to fill, once the ring has room; `*targets` receives its
  /// target array. Push publishes it.
  Plan* Claim(EdgeId** targets) {
    if (written_ - retired_view_ == slots_) {
      retired_view_ = retired_.load(std::memory_order_acquire);
      if (written_ - retired_view_ == slots_) {
        Publish();
        retired_view_ = Await(retired_, written_ - slots_ + wake_batch_,
                              &producer_wake_at_);
      }
    }
    const size_t slot = written_ & (slots_ - 1);
    *targets = &targets_[slot * stride_];
    return &plans_[slot];
  }

  void Push() {
    if (++written_ % kPublishBatch == 0) Publish();
  }

  /// Publishes the last plans and ends the stream.
  void Close() {
    common::MutexLock lock(&mu_);
    published_.store(written_, std::memory_order_seq_cst);
    closed_.store(true, std::memory_order_seq_cst);
    cv_.NotifyAll();
  }

  // ---- Consumer side ----

  /// The next plan in stream order, or nullptr once the stream has ended.
  /// The plan and its `*targets` stay valid until the next call, which
  /// retires them.
  const Plan* Pop(const EdgeId** targets) {
    if (read_ == published_view_) {
      published_view_ = published_.load(std::memory_order_acquire);
      if (read_ == published_view_) {
        Retire();
        published_view_ =
            Await(published_, read_ + wake_batch_, &consumer_wake_at_);
        if (read_ == published_view_) return nullptr;
      }
    }
    if (read_ % kPublishBatch == 0) Retire();
    // The producer wrote the coming slots on its own core: ask for them a
    // few plans early so the cross-core transfer overlaps this plan's work.
    const size_t ahead = (read_ + kPrefetchPlans) & (slots_ - 1);
    __builtin_prefetch(&plans_[ahead]);
    __builtin_prefetch(&targets_[ahead * stride_]);
    const size_t slot = read_++ & (slots_ - 1);
    *targets = &targets_[slot * stride_];
    return &plans_[slot];
  }

 private:
  static constexpr uint64_t kPublishBatch = 32;
  static constexpr uint64_t kPrefetchPlans = 8;
  static constexpr int kSpins = 64;
  static constexpr uint64_t kNever = ~uint64_t{0};

  /// Slots: the largest power of two up to 1,024 whose plans and targets
  /// fit in 96 KiB, below glibc's default 128 KiB mmap threshold; at least
  /// 64, which outgrows 96 KiB only past ~370 negatives per pair. Freeing an
  /// mmapped block raises glibc's dynamic threshold to its size, which then
  /// changes where every later large allocation of the process lands.
  static size_t SlotsFor(size_t max_targets) {
    const size_t slot_bytes = sizeof(Plan) + max_targets * sizeof(EdgeId);
    size_t slots = 1024;
    while (slots > 64 && slots * slot_bytes > 96 * 1024) slots /= 2;
    return slots;
  }

  void Publish() {
    published_.store(written_, std::memory_order_seq_cst);
    if (written_ >= consumer_wake_at_.load(std::memory_order_seq_cst)) {
      common::MutexLock lock(&mu_);
      cv_.NotifyAll();
    }
  }

  void Retire() {
    retired_.store(read_, std::memory_order_seq_cst);
    if (read_ >= producer_wake_at_.load(std::memory_order_seq_cst)) {
      common::MutexLock lock(&mu_);
      cv_.NotifyAll();
    }
  }

  /// Waits until `counter` reaches `target` or the stream is closed, and
  /// returns the counter's value. The waiter stores its target in `wake_at`
  /// before its last check, and the other side stores its counter before
  /// reading `wake_at` (all sequentially consistent), so at least one of
  /// them sees the other: no wake-up is lost.
  uint64_t Await(const std::atomic<uint64_t>& counter, uint64_t target,
                 std::atomic<uint64_t>* wake_at) {
    for (int spin = 0; spin < kSpins; ++spin) {
      const uint64_t value = counter.load(std::memory_order_acquire);
      if (value >= target || closed_.load(std::memory_order_acquire)) {
        return counter.load(std::memory_order_acquire);
      }
      CpuRelax();
    }
    common::MutexLock lock(&mu_);
    wake_at->store(target, std::memory_order_seq_cst);
    uint64_t value;
    while ((value = counter.load(std::memory_order_seq_cst)) < target &&
           !closed_.load(std::memory_order_seq_cst)) {
      cv_.Wait(&mu_);
    }
    wake_at->store(kNever, std::memory_order_relaxed);
    return counter.load(std::memory_order_acquire);
  }

  const size_t stride_;
  const size_t slots_;
  const uint64_t wake_batch_;
  std::vector<Plan> plans_;
  std::vector<EdgeId> targets_;

  // Written by the producer.
  alignas(64) std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> producer_wake_at_{kNever};
  uint64_t written_ = 0;
  uint64_t retired_view_ = 0;
  // Written by the consumer.
  alignas(64) std::atomic<uint64_t> retired_{0};
  std::atomic<uint64_t> consumer_wake_at_{kNever};
  uint64_t read_ = 0;
  uint64_t published_view_ = 0;

  alignas(64) std::atomic<bool> closed_{false};
  common::Mutex mu_;
  common::CondVar cv_;
};

/// The trainer's random stream, in the order one thread would draw it: per
/// epoch a shuffle of the corpus, per token its learning rate and window,
/// per (center, context) pair its negatives through `sampler` (a draw equal
/// to the center or the context is skipped). Reads no trained vector.
void StreamPlans(const SkipGramConfig& config,
                 const CategoricalSampler& sampler,
                 std::vector<std::vector<EdgeId>>* corpus, Rng* rng,
                 PlanRing* ring) {
  size_t total_tokens = 0;
  for (const auto& seq : *corpus) total_tokens += seq.size();
  const size_t total_steps =
      std::max<size_t>(1, total_tokens * config.epochs);
  size_t step_count = 0;
  EdgeId* targets = nullptr;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng->Shuffle(corpus);
    for (const auto& seq : *corpus) {
      for (size_t i = 0; i < seq.size(); ++i) {
        const double progress =
            static_cast<double>(step_count++) / total_steps;
        const double lr =
            std::max(config.min_lr, config.lr * (1.0 - progress));
        const int win = 1 + static_cast<int>(rng->UniformInt(
                                static_cast<uint64_t>(config.window)));
        const EdgeId center = seq[i];
        for (int d = -win; d <= win; ++d) {
          if (d == 0) continue;
          const int64_t j = static_cast<int64_t>(i) + d;
          if (j < 0 || j >= static_cast<int64_t>(seq.size())) continue;
          const EdgeId context = seq[j];
          Plan* plan = ring->Claim(&targets);
          uint32_t count = 0;
          targets[count++] = context;
          for (int k = 0; k < config.negatives; ++k) {
            const EdgeId neg = static_cast<EdgeId>(sampler.Sample(rng));
            if (neg == context || neg == center) continue;
            targets[count++] = neg;
          }
          // The context never equals a kept negative, so only negatives
          // can repeat.
          bool distinct = true;
          for (uint32_t t = 2; t < count && distinct; ++t) {
            distinct = std::find(targets + 1, targets + t, targets[t]) ==
                       targets + t;
          }
          *plan = Plan{center, count, distinct, lr};
          ring->Push();
        }
        *ring->Claim(&targets) = Plan{center, 0, true, lr};
        ring->Push();
      }
    }
  }
  ring->Close();
}

}  // namespace

void SkipGramTrainer::UpdateAux(EdgeId center, double lr) {
  const size_t dim = dim_;
  float* v_in = in_.Row(center);
  float logits[3];
  nn::MatVec(aux_w_, v_in, logits);
  nn::SoftmaxInPlace(logits, 3);
  const int target = static_cast<int>(net_->edge(center).road_class);
  const float scale = static_cast<float>(lr * config_.aux_weight);
  for (int c = 0; c < 3; ++c) {
    const float g = (logits[c] - (c == target ? 1.0f : 0.0f)) * scale;
    float* w = aux_w_.Row(c);
    for (size_t d = 0; d < dim; ++d) {
      const float gin = g * w[d];
      w[d] -= g * v_in[d];
      v_in[d] -= gin;
    }
  }
}

nn::Matrix SkipGramTrainer::Train(const traj::Dataset& dataset) {
  auto corpus = BuildCorpus(dataset);
  RL4_CHECK(!corpus.empty());
  // unigram_ is fixed for the rest of training; the sampler replays
  // rng_.Categorical(unigram_) draw for draw.
  const CategoricalSampler sampler(unigram_);
  const size_t max_targets = static_cast<size_t>(config_.negatives) + 1;
  PlanRing ring(max_targets);
  // The random stream reads no trained vector, so a second thread draws it
  // ahead into the ring while this one applies the plans in stream order:
  // every update sees exactly the vectors it saw when one thread drew and
  // trained in turn, and rng_ ends where it did.
  std::thread producer(
      [&] { StreamPlans(config_, sampler, &corpus, &rng_, &ring); });
  std::vector<float*> rows(max_targets);
  std::vector<float> scratch(nn::SgnsScratchFloats(dim_, max_targets));
  const EdgeId* targets = nullptr;
  while (const Plan* plan = ring.Pop(&targets)) {
    if (plan->count == 0) {
      UpdateAux(plan->center, plan->lr);
      continue;
    }
    for (uint32_t t = 0; t < plan->count; ++t) rows[t] = out_.Row(targets[t]);
    nn::SgnsPairUpdate(in_.Row(plan->center), rows.data(), plan->count,
                       plan->distinct, static_cast<float>(plan->lr), dim_,
                       scratch.data());
  }
  producer.join();
  return in_;
}

}  // namespace rl4oasd::embed
