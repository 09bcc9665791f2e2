// Deterministic pseudo-random number generation. All stochastic components
// (data generation, network init, policy sampling, negative sampling) draw
// from an explicitly seeded Rng so experiments are bit-reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rl4oasd {

/// xoshiro256** PRNG seeded via SplitMix64. Fast, high-quality, and
/// deterministic across platforms (unlike std::mt19937 distributions).
class Rng {
 public:
  /// Complete generator state: the xoshiro256** words plus the Box-Muller
  /// spare. Exporting mid-stream and importing into any Rng resumes the
  /// draw sequence exactly where it left off — the piece of per-session
  /// state that makes stochastic detection snapshot/restorable.
  struct State {
    uint64_t s[4] = {0, 0, 0, 0};
    bool has_spare_gaussian = false;
    double spare_gaussian = 0.0;
  };

  explicit Rng(uint64_t seed = 42) { Seed(seed); }

  /// Re-seeds the generator; identical seeds replay identical streams.
  void Seed(uint64_t seed);

  /// Captures the full generator state (stream position included).
  State ExportState() const;

  /// Replaces the generator state with a previously exported one.
  void ImportState(const State& state);

  /// Uniform 64-bit value.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller.
  double Gaussian();

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// True with probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Samples an index in [0, weights.size()) proportional to weights.
  /// Non-positive weights are treated as zero; if all are zero, samples
  /// uniformly. O(weights.size()) per draw — for repeated draws from a
  /// fixed weight vector use CategoricalSampler, which replays this exact
  /// draw sequence in O(1) expected time per draw.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = UniformInt(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (reservoir when k < n, otherwise
  /// the identity permutation shuffled).
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t s_[4];
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

/// Repeated categorical sampling from a FIXED weight vector, bit-identical
/// to calling rng.Categorical(weights) (same indices, same RNG consumption)
/// but O(1) expected per draw instead of O(n).
///
/// Why the results match exactly: Categorical's subtractive scan
/// (r -= w_i until r < w_i) is a monotone step function of the drawn
/// uniform, and its floating-point value stays within a provable error band
/// of the real prefix sums. When the draw lands farther than `guard_` from
/// the two bracketing precomputed prefix sums, the prefix-sum index
/// (upper_bound of r) and the scan's index are necessarily equal; in the
/// astronomically rare near-boundary case (probability ~n^2 * 2^-50 per
/// draw) the sampler replays the original scan verbatim. Negative-sampling
/// loops (skip-gram) are the intended user.
///
/// The upper_bound itself runs over a guide table (Chen & Asau's indexed
/// search): n equal-width buckets over [0, total), and per bucket the range
/// of prefix-sum positions its draws can resolve to. The table is built by
/// evaluating the same monotone bucket function on the prefix sums that a
/// draw evaluates on r, so the range provably contains upper_bound's answer
/// — no rounding slack — and the search inside it returns exactly the
/// whole-array answer. A bucket holds one or two prefix sums on average,
/// resolved by a branch-free count over a fixed window; a dominated weight
/// vector crowds thousands into one, which a binary search keeps at
/// O(log n). The guard check doubles as a check of
/// the search: only the true bracket passes it, so a search error could
/// cost a scan but never change an index.
class CategoricalSampler {
 public:
  explicit CategoricalSampler(const std::vector<double>& weights);

  /// Draws one index; consumes the RNG exactly like Rng::Categorical.
  size_t Sample(Rng* rng) const;

  double total() const { return total_; }

 private:
  /// Bucket of a value in [0, total_]: monotone non-decreasing, so a draw
  /// r and a prefix sum compare the same way as their buckets do whenever
  /// the buckets differ.
  size_t Bucket(double x) const {
    const double b = x * bucket_scale_;
    return b < static_cast<double>(num_buckets_) ? static_cast<size_t>(b)
                                                  : num_buckets_ - 1;
  }

  /// Buckets of at most this many prefix sums resolve by counting a fixed
  /// window instead of a binary search (see Sample).
  static constexpr size_t kSearchWindow = 4;

  std::vector<double> weights_;  // clamped copy (w <= 0 -> 0), scan fallback
  /// prefix_[i] = clamped sum of weights_[0..i) for i <= n, then
  /// kSearchWindow entries of +inf.
  std::vector<double> prefix_;
  double total_ = 0.0;           // == Categorical's own clamped sum
  double guard_ = 0.0;           // boundary band where the scan is replayed
  size_t num_buckets_ = 0;       // n (built only when total_ > 0)
  double bucket_scale_ = 0.0;    // num_buckets_ / total_
  /// guide_[j] = first prefix position p >= 1 with Bucket(prefix_[p]) >= j
  /// (n + 1 if none); a draw in bucket j resolves inside
  /// [guide_[j], guide_[j + 1]].
  std::vector<uint32_t> guide_;
};

}  // namespace rl4oasd
