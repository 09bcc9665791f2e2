// Tests for Status/Result, Rng, string utilities, and CSV I/O.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"

namespace rl4oasd {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad alpha");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad alpha");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad alpha");
}

TEST(StatusTest, CopyAndMove) {
  Status s = Status::IOError("disk");
  Status copy = s;
  EXPECT_EQ(copy.message(), "disk");
  Status moved = std::move(s);
  EXPECT_EQ(moved.message(), "disk");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

Status FailingFn() { return Status::Internal("boom"); }
Status PropagatingFn() {
  RL4_RETURN_NOT_OK(FailingFn());
  return Status::OK();
}
Result<int> ValueFn() { return 7; }
Status AssignFn(int* out) {
  RL4_ASSIGN_OR_RETURN(*out, ValueFn());
  return Status::OK();
}

TEST(ResultTest, Macros) {
  EXPECT_EQ(PropagatingFn().code(), StatusCode::kInternal);
  int v = 0;
  EXPECT_TRUE(AssignFn(&v).ok());
  EXPECT_EQ(v, 7);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{2}, int64_t{5});
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sq / kN, 1.0, 0.05);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(13);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) counts[rng.Categorical(w)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / kN, 0.75, 0.03);
}

TEST(RngTest, CategoricalAllZeroFallsBackToUniform) {
  Rng rng(13);
  std::vector<double> w = {0.0, 0.0};
  int c0 = 0;
  for (int i = 0; i < 1000; ++i) c0 += rng.Categorical(w) == 0;
  EXPECT_GT(c0, 300);
  EXPECT_LT(c0, 700);
}

/// An Rng whose next Uniform() is exactly m * 2^-53 (m < 2^53), so a test
/// can place a draw anywhere. xoshiro256**'s output, rotl(s[1] * 5, 7) * 9,
/// depends on s[1] alone and is invertible mod 2^64 (5 and 9 are odd).
Rng RngWithNextUniform(uint64_t m) {
  const auto inverse = [](uint64_t a) {  // Newton's iteration mod 2^64
    uint64_t x = a;  // a * a == 1 mod 8 for odd a: 3 correct bits
    for (int i = 0; i < 5; ++i) x *= 2 - a * x;
    return x;
  };
  const uint64_t t = (m << 11) * inverse(9);
  Rng::State state;
  state.s[0] = 0x9e3779b97f4a7c15ULL;
  state.s[1] = ((t >> 7) | (t << 57)) * inverse(5);
  state.s[2] = 1;
  state.s[3] = 2;
  Rng rng;
  rng.ImportState(state);
  return rng;
}

/// `draws` lockstep draws from the sampler and from Rng::Categorical.
void ExpectReplaysCategorical(const std::vector<double>& w, uint64_t seed,
                              int draws, const std::string& what) {
  CategoricalSampler sampler(w);
  Rng a(seed);
  Rng b(seed);
  for (int i = 0; i < draws; ++i) {
    ASSERT_EQ(sampler.Sample(&a), b.Categorical(w)) << what << " draw " << i;
  }
  // Identical RNG consumption: the streams must still be in lockstep.
  EXPECT_EQ(a.NextU64(), b.NextU64()) << what;
}

/// One draw at Uniform() == m * 2^-53 from each side.
void ExpectReplaysCategoricalAt(const CategoricalSampler& sampler,
                                const std::vector<double>& w, uint64_t m,
                                const std::string& what) {
  Rng a = RngWithNextUniform(m);
  Rng b = RngWithNextUniform(m);
  ASSERT_EQ(sampler.Sample(&a), b.Categorical(w)) << what << " m " << m;
  EXPECT_EQ(a.NextU64(), b.NextU64()) << what << " m " << m;
}

TEST(RngTest, CategoricalSamplerReplaysCategoricalExactly) {
  // The sampler's contract is draw-for-draw bit-identity with
  // Rng::Categorical on a fixed weight vector: same indices AND same RNG
  // consumption, across skewed, uniform, zero-padded, and tiny/huge weight
  // shapes (the skip-gram unigram distribution is the production user).
  for (uint64_t m : {uint64_t{0}, uint64_t{1} << 52, (uint64_t{1} << 53) - 1}) {
    EXPECT_EQ(RngWithNextUniform(m).Uniform(),
              static_cast<double>(m) * 0x1.0p-53);
  }
  Rng shape_rng(99);
  for (int shape = 0; shape < 6; ++shape) {
    std::vector<double> w;
    const size_t n = shape == 0 ? 1 : 7 * (shape + 1) * (shape + 1);
    for (size_t i = 0; i < n; ++i) {
      double v = shape_rng.Uniform();
      if (shape == 1 && i % 3 == 0) v = 0.0;      // interleaved zeros
      if (shape == 2) v = std::pow(v, 8.0);       // heavily skewed
      if (shape == 3) v *= 1e12;                  // large magnitudes
      if (shape == 4) v *= 1e-12;                 // tiny magnitudes
      if (shape == 5 && i % 2 == 0) v = -v;       // negatives clamp to zero
      w.push_back(v);
    }
    ExpectReplaysCategorical(w, 1234 + shape, 20000,
                             "shape " + std::to_string(shape));
  }

  // Production size: skip-gram's unigram table over the bench city's 4,984
  // segments, (count + 1)^0.75 of skewed token counts, as BuildCorpus makes
  // it.
  {
    std::vector<double> w(4984);
    for (double& v : w) {
      const double count =
          std::floor(3000.0 * std::pow(shape_rng.Uniform(), 4.0));
      v = std::pow(count + 1.0, 0.75);
    }
    ExpectReplaysCategorical(w, 77, 20000, "unigram");
  }

  // Dominated: one weight carries all but ~5e-7 of the mass, so the
  // thousands of prefix sums on either side of it crowd into the first and
  // the last bucket. Ordinary draws almost never land there; placed draws
  // do.
  {
    const size_t n = 5000;
    std::vector<double> w(n);
    for (double& v : w) v = 0.5 + shape_rng.Uniform();
    w[n / 2] = 1e10;
    ExpectReplaysCategorical(w, 78, 20000, "dominated");
    double below = 0.0;  // mass before the dominant weight
    for (size_t i = 0; i < n / 2; ++i) below += w[i];
    CategoricalSampler sampler(w);
    const double span = 0x1.0p53;
    const auto low_end = static_cast<uint64_t>(span * below / sampler.total());
    const auto high_begin =
        static_cast<uint64_t>(span * (below + w[n / 2]) / sampler.total());
    for (int i = 0; i < 2000; ++i) {
      ASSERT_NO_FATAL_FAILURE(ExpectReplaysCategoricalAt(
          sampler, w, shape_rng.UniformInt(low_end + 1), "dominated low"));
      ASSERT_NO_FATAL_FAILURE(ExpectReplaysCategoricalAt(
          sampler, w,
          high_begin + shape_rng.UniformInt((uint64_t{1} << 53) - high_begin),
          "dominated high"));
    }
  }

  // Bucket edges: 4,096 integer weights summing to 2^14, so every prefix
  // sum is exact, the sampler's total / n wide buckets have edges at the
  // multiples of 4, and Uniform() == j * 2^-12 puts a draw exactly on edge
  // j. Each edge is drawn at, and one step (2^-39) below and above; where an
  // edge meets a prefix sum the draw also takes the exact-scan fallback.
  {
    const size_t n = 4096;
    std::vector<double> w(n);
    for (size_t i = 0; i < n; i += 2) {
      w[i] = static_cast<double>(1 + shape_rng.UniformInt(7));
      w[i + 1] = 8.0 - w[i];
    }
    CategoricalSampler sampler(w);
    ASSERT_EQ(sampler.total(), 16384.0);
    for (uint64_t j = 0; j < n; ++j) {
      const uint64_t m = j << 41;
      if (j > 0) {
        ASSERT_NO_FATAL_FAILURE(
            ExpectReplaysCategoricalAt(sampler, w, m - 1, "edge below"));
      }
      ASSERT_NO_FATAL_FAILURE(
          ExpectReplaysCategoricalAt(sampler, w, m, "edge"));
      ASSERT_NO_FATAL_FAILURE(
          ExpectReplaysCategoricalAt(sampler, w, m + 1, "edge above"));
    }
  }
}

TEST(RngTest, CategoricalSamplerAllZeroFallsBackToUniform) {
  std::vector<double> w = {0.0, -1.0, 0.0};
  CategoricalSampler sampler(w);
  Rng a(13);
  Rng b(13);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(sampler.Sample(&a), b.Categorical(w));
  }
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(17);
  auto s = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::sort(s.begin(), s.end());
  EXPECT_EQ(std::unique(s.begin(), s.end()), s.end());
  for (size_t v : s) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleAllWhenKExceedsN) {
  Rng rng(17);
  auto s = rng.SampleWithoutReplacement(5, 10);
  EXPECT_EQ(s.size(), 5u);
  std::sort(s.begin(), s.end());
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(s[i], i);
}

TEST(StringsTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  abc \t\n"), "abc");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a"), "a");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b"}, ","), "a,b");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ", "), "x");
}

TEST(StringsTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64(" -7 ", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("4x", &v));
  EXPECT_FALSE(ParseInt64("x4", &v));
}

TEST(StringsTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5z", &v));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(CsvTest, RoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "rl4oasd_csv_test.csv")
          .string();
  CsvTable t;
  t.header = {"id", "value"};
  t.rows = {{"1", "a"}, {"2", "b"}};
  ASSERT_TRUE(WriteCsv(path, t).ok());
  auto r = ReadCsv(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->header, t.header);
  EXPECT_EQ(r->rows, t.rows);
  EXPECT_EQ(r->ColumnIndex("value"), 1);
  EXPECT_EQ(r->ColumnIndex("missing"), -1);
  std::remove(path.c_str());
}

TEST(CsvTest, SkipsCommentsAndBlankLines) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "rl4oasd_csv_test2.csv")
          .string();
  {
    std::ofstream out(path);
    out << "# comment\nid,v\n\n1,2\n# another\n3,4\n";
  }
  auto r = ReadCsv(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIOError) {
  auto r = ReadCsv("/nonexistent/path/file.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch sw;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1;
  EXPECT_GT(sw.ElapsedNanos(), 0);
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
}

TEST(TimingAccumulatorTest, MeanAndReset) {
  TimingAccumulator acc;
  acc.Add(1.0);
  acc.Add(3.0);
  EXPECT_DOUBLE_EQ(acc.MeanSeconds(), 2.0);
  EXPECT_EQ(acc.count(), 2);
  acc.Reset();
  EXPECT_EQ(acc.count(), 0);
  EXPECT_DOUBLE_EQ(acc.MeanSeconds(), 0.0);
}

}  // namespace
}  // namespace rl4oasd
