// Dense row-major float matrix plus the vector and matrix kernels the
// networks need: matrix-vector products and elementwise ops, and a blocked
// GEMM for the recurrent step (B sample-major input rows times the k-major
// gate weights, (B x I) * (I x 4H)), the feature-major heads and the
// sequence-packed training passes.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "common/logging.h"

namespace rl4oasd::nn {

/// A dense vector of floats.
using Vec = std::vector<float>;

/// Allocator that starts every block on a 64-byte cache line. The GEMM's
/// vector loads then see the same alignment phase in every run: a plain
/// std::vector<float> is only 16-byte aligned, its 64-byte phase moves with
/// heap history, and the B = 1 gate GEMMs run ~10% slower at some phases.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlignment{64};

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlignment));
  }
  void deallocate(T* p, size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), kAlignment);
  }
  bool operator==(const CacheAlignedAllocator&) const { return true; }
};

/// Row-major dense matrix; its storage starts on a cache line.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(size_t r, size_t c) {
    return data_[r * cols_ + c];
  }
  float operator()(size_t r, size_t c) const {
    return data_[r * cols_ + c];
  }

  float* Row(size_t r) { return data_.data() + r * cols_; }
  const float* Row(size_t r) const { return data_.data() + r * cols_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void SetZero() { std::fill(data_.begin(), data_.end(), 0.0f); }

  /// Resizes and fills (previous content is discarded).
  void Resize(size_t rows, size_t cols, float fill = 0.0f) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
  }

  /// Ensures the shape without initializing: a no-op when the shape already
  /// matches (content preserved), otherwise a resize leaving the content
  /// undefined. For scratch buffers that are fully overwritten — the
  /// batched-inference hot path reuses its gate/output matrices every wave.
  void EnsureShape(size_t rows, size_t cols) {
    if (rows_ == rows && cols_ == cols) return;
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float, CacheAlignedAllocator<float>> data_;
};

/// y = M x  (M: m x n, x: n, y: m). `y` is overwritten.
void MatVec(const Matrix& m, const float* x, float* y);

/// Blocked row-major GEMM on raw pointers: C (m x n) = A (m x k) * B (k x n),
/// or C += A * B when `accumulate`. `lda`/`ldb`/`ldc` are leading dimensions
/// (row strides), so callers can multiply row sub-blocks of larger matrices.
///
/// Equivalence contract: for every output element the products are added in
/// ascending-k order as ONE unbroken chain, exactly like the scalar MatVec
/// dot loop, so every path that multiplies the same operands reproduces the
/// scalar result bit for bit (the build pins -ffp-contract=off, so no
/// compiler may fuse a chain's multiply-adds differently in one path than
/// in another). The kernel tiles the contiguous `n` dimension into register
/// accumulators and auto-vectorizes over it; k deliberately runs unblocked
/// — splitting k into partial sums would reassociate the chains and break
/// the contract.
///
/// The kernel runs the widest variant the host supports (internal::HostIsa):
/// every variant performs the same operations per element, so the choice
/// never changes a result.
void Gemm(const float* a, size_t m, size_t k, size_t lda, const float* b,
          size_t n, size_t ldb, float* c, size_t ldc, bool accumulate);

namespace internal {

/// The instruction-set variants of Gemm and Lstm::StepRows, narrowest
/// first. Each compiles the same loop bodies for a wider vector register,
/// never with fused multiply-add, so all are bit-identical (see
/// docs/ARCHITECTURE.md, "Instruction-set variants").
enum class Isa { kBaseline, kAvx2, kAvx512f };

const char* IsaName(Isa isa);

/// cpuid: the widest variant this build compiled and this host runs.
Isa ResolveHostIsa();

/// The variant Gemm and Lstm::StepRows run, resolved once per process.
inline Isa HostIsa() {
  static const Isa isa = ResolveHostIsa();
  return isa;
}

/// True when `isa`'s variant can run here (every narrower one can too).
inline bool IsaAvailable(Isa isa) { return isa <= HostIsa(); }

/// Gemm on one available variant: the test seam that compares them.
void GemmOn(Isa isa, const float* a, size_t m, size_t k, size_t lda,
            const float* b, size_t n, size_t ldb, float* c, size_t ldc,
            bool accumulate);

}  // namespace internal

/// C = A * B. C is resized to (A.rows x B.cols).
void MatMul(const Matrix& a, const Matrix& b, Matrix* c);

/// Adds bias[r] to every element of row r (broadcast over the batch
/// dimension of a feature-major batch matrix).
void AddBiasPerRow(Matrix* c, const float* bias);

/// Column-wise numerically stable softmax over an (n_classes x batch)
/// logits matrix, in place: each column b is softmaxed independently, with
/// the same operation order as SoftmaxInPlace on that column.
void SoftmaxColumnsInPlace(Matrix* logits);

/// y += M^T g  (accumulates input gradient: M: m x n, g: m, y: n).
void MatTransVecAccum(const Matrix& m, const float* g, float* y);

/// M += g outer x  (rank-1 update: g: m, x: n).
void OuterAccum(Matrix* m, const float* g, const float* x);

/// Dot product of two length-n vectors.
float Dot(const float* a, const float* b, size_t n);

/// L2 norm.
float Norm(const float* a, size_t n);

/// Cosine similarity; returns 0 when either vector is all-zero.
float CosineSimilarity(const float* a, const float* b, size_t n);

/// Numerically stable in-place softmax over n logits.
void SoftmaxInPlace(float* logits, size_t n);

/// Cross-entropy -log p[target] for a probability vector (already softmaxed).
/// Probabilities are clamped away from zero for stability.
float CrossEntropy(const float* probs, size_t n, size_t target);

/// Fast exp(x) for the network activations: branchless (no libm call, no
/// data-dependent branch), so activation loops over gate blocks
/// auto-vectorize in both the streaming and the batched path. ~2e-7
/// relative accuracy via Cody-Waite argument reduction, a degree-6
/// exp polynomial, and exponent assembly in the float bit pattern; NaN
/// propagates like std::exp. The streaming and batched paths share this
/// exact function, so activations never contribute a batch-vs-streaming
/// difference.
inline float FastExp(float x) {
  // NaN fails both clamp comparisons and would reach the float->int cast
  // below (UB); route it through as 0 and select the original back at the
  // end, so NaN propagates like std::exp — still branchless (compare +
  // blend), so the surrounding loop stays vectorizable.
  const bool not_nan = x == x;
  float xc = not_nan ? x : 0.0f;
  // Clamp to the comfortably-finite range (exp(±87) is near float min/max
  // normal).
  xc = xc < -87.0f ? -87.0f : xc;
  xc = xc > 87.0f ? 87.0f : xc;
  const float t = xc * 1.44269504088896341f;  // x / ln 2
  // Round-to-nearest integer without a libm call: adding 1.5 * 2^23 pushes
  // the fraction bits out (valid since |t| < 2^22).
  const float r = (t + 12582912.0f) - 12582912.0f;
  // Cody-Waite two-constant reduction: f = x - r ln2 stays accurate at
  // large |x|. The hi constant has only 12 significant bits, so r * hi is
  // exact for the integer |r| <= 126 reached here and the subtraction
  // cancels without rounding; a single rounded ln2 constant would lose
  // ~|x| * 1e-7 relative.
  const float f = (xc - r * 0.693359375f) - r * (-2.12194440e-4f);
  // e^f, Taylor to degree 6 on [-ln2/2, ln2/2] (remainder < 2e-7).
  float p = 1.0f / 720.0f;
  p = p * f + 1.0f / 120.0f;
  p = p * f + 1.0f / 24.0f;
  p = p * f + 1.0f / 6.0f;
  p = p * f + 0.5f;
  p = p * f + 1.0f;
  p = p * f + 1.0f;
  // Scale by 2^r: add the integer exponent directly into the bit pattern
  // (p is in [0.70, 1.42] and r in [-126, 126], so the result stays normal).
  const auto bits =
      std::bit_cast<int32_t>(p) + (static_cast<int32_t>(r) << 23);
  return not_nan ? std::bit_cast<float>(bits) : x;
}

inline float Sigmoid(float x) { return 1.0f / (1.0f + FastExp(-x)); }

/// tanh via FastExp (same vectorization and shared-path properties). The
/// absolute error stays ~1e-7 everywhere; near zero the *relative* error
/// grows as usual for the exp formulation, which is harmless to the
/// networks (they respond to absolute activation differences).
inline float Tanh(float x) {
  const float e = FastExp(2.0f * x);
  return (e - 1.0f) / (e + 1.0f);
}

}  // namespace rl4oasd::nn
