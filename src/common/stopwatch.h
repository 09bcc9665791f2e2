// Wall-clock timing helpers for the efficiency experiments (Figures 3-4,
// Table V).
//
// This is the ONE place in src/ allowed to read a clock: serving-side
// control flow must be points-denominated (segment counts, never seconds of
// wall time), so the `clock` rule in tools/oasd_lint bans std::chrono
// everywhere else in src/ and timing flows through Stopwatch, which is only
// ever used for *reporting* (FitTimings, benches), never for decisions.
#pragma once

// oasd-lint: allow-file(clock) — the blessed timing wrapper

#include <chrono>
#include <cstdint>

namespace rl4oasd {

/// High-resolution stopwatch. Start() resets the origin; Elapsed*() report
/// time since the last Start().
class Stopwatch {
 public:
  Stopwatch() { Start(); }

  void Start() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates timing samples and reports mean/total, used by the per-point
/// and per-trajectory runtime benches.
class TimingAccumulator {
 public:
  void Add(double seconds) {
    total_ += seconds;
    ++count_;
  }
  double total_seconds() const { return total_; }
  int64_t count() const { return count_; }
  double MeanSeconds() const { return count_ == 0 ? 0.0 : total_ / count_; }
  void Reset() {
    total_ = 0.0;
    count_ = 0;
  }

 private:
  double total_ = 0.0;
  int64_t count_ = 0;
};

}  // namespace rl4oasd
