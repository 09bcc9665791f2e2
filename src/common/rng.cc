#include "common/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.h"

namespace rl4oasd {

namespace {

inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
  has_spare_gaussian_ = false;
}

Rng::State Rng::ExportState() const {
  State state;
  for (int i = 0; i < 4; ++i) state.s[i] = s_[i];
  state.has_spare_gaussian = has_spare_gaussian_;
  state.spare_gaussian = spare_gaussian_;
  return state;
}

void Rng::ImportState(const State& state) {
  for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
  has_spare_gaussian_ = state.has_spare_gaussian;
  spare_gaussian_ = state.spare_gaussian;
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53-bit mantissa -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::Gaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u, v, s;
  do {
    u = Uniform(-1.0, 1.0);
    v = Uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double mul = std::sqrt(-2.0 * std::log(s) / s);
  spare_gaussian_ = v * mul;
  has_spare_gaussian_ = true;
  return u * mul;
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return UniformInt(weights.size());
  double r = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (r < w) return i;
    r -= w;
  }
  return weights.size() - 1;
}

CategoricalSampler::CategoricalSampler(const std::vector<double>& weights) {
  const size_t n = weights.size();
  weights_.resize(n);
  // kSearchWindow +inf entries past prefix_[n]: Sample's window may read
  // that far, and they compare above every draw.
  prefix_.assign(n + 1 + kSearchWindow,
                 std::numeric_limits<double>::infinity());
  prefix_[0] = 0.0;
  // The clamped ascending sum is the same chain Categorical computes for
  // `total`, so total_ matches it bit-for-bit.
  for (size_t i = 0; i < n; ++i) {
    weights_[i] = weights[i] > 0.0 ? weights[i] : 0.0;
    prefix_[i + 1] = prefix_[i] + weights_[i];
  }
  total_ = n == 0 ? 0.0 : prefix_[n];
  // Both the subtractive scan and the prefix chain stay within
  // n * ulp(total) / 2 of the real prefix sums; 4x that covers both sides
  // with margin. Draws inside the band replay the exact scan.
  guard_ = 4.0 * static_cast<double>(n) * (total_ * 0x1.0p-52);
  if (total_ <= 0.0) return;  // Sample falls back to UniformInt
  RL4_CHECK_LT(n, size_t{std::numeric_limits<uint32_t>::max()});
  num_buckets_ = n;
  bucket_scale_ = static_cast<double>(n) / total_;
  // prefix_[1..n] is non-decreasing and Bucket is monotone, so one merge
  // pass finds each bucket's first prefix position.
  guide_.resize(num_buckets_ + 1);
  size_t p = 1;
  for (size_t j = 0; j <= num_buckets_; ++j) {
    while (p <= n && Bucket(prefix_[p]) < j) ++p;
    guide_[j] = static_cast<uint32_t>(p);
  }
}

size_t CategoricalSampler::Sample(Rng* rng) const {
  assert(!weights_.empty());
  const size_t n = weights_.size();
  if (total_ <= 0.0) return rng->UniformInt(n);
  const double r = rng->Uniform() * total_;
  // upper_bound over prefix_[1..n], narrowed to r's bucket: every prefix
  // sum before guide_[j] lies in a lower bucket, so is < r, and every one
  // from guide_[j + 1] on lies in a higher one (or is the +inf padding), so
  // is > r. Within the bucket the sums are sorted, so upper_bound is
  // guide_[j] plus the number of them <= r — and counting a fixed window
  // from guide_[j] counts exactly those, since the window's entries past
  // the bucket are all > r. The count compiles to compares and adds with no
  // branch on the draw; a crowded bucket takes the binary search.
  const size_t j = Bucket(r);
  size_t idx = guide_[j];
  if (guide_[j + 1] - idx <= kSearchWindow) {
    const double* p = prefix_.data() + idx;
    size_t below = 0;
    for (size_t k = 0; k < kSearchWindow; ++k) below += p[k] <= r ? 1 : 0;
    idx += below;
  } else {
    idx = static_cast<size_t>(
        std::upper_bound(prefix_.begin() + idx,
                         prefix_.begin() + guide_[j + 1], r) -
        prefix_.begin());
  }
  --idx;
  if (idx < n && r - prefix_[idx] > guard_ && prefix_[idx + 1] - r > guard_) {
    return idx;
  }
  // Near a prefix boundary (or rounded past the last one): the prefix-sum
  // index is not certifiably equal to the scan, so run the scan itself.
  double rem = r;
  for (size_t i = 0; i < n; ++i) {
    if (rem < weights_[i]) return i;
    rem -= weights_[i];
  }
  return n - 1;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  if (k >= n) {
    std::vector<size_t> all(n);
    std::iota(all.begin(), all.end(), size_t{0});
    Shuffle(&all);
    return all;
  }
  // Reservoir sampling keeps memory at O(k).
  std::vector<size_t> reservoir(k);
  std::iota(reservoir.begin(), reservoir.end(), size_t{0});
  for (size_t i = k; i < n; ++i) {
    size_t j = UniformInt(i + 1);
    if (j < k) reservoir[j] = i;
  }
  return reservoir;
}

}  // namespace rl4oasd
