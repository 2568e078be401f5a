/// \file stopwatch.hpp
/// \brief Wall-clock timing used by the sweeping flow and the benches.
///
/// All paper metrics that involve runtime (simulation runtime, SAT time)
/// are accumulated through Stopwatch so that the accounting is uniform.
#pragma once

#include <chrono>
#include <cstdint>

namespace simgen::util {

/// Monotonic stopwatch with pause/resume accumulation.
class Stopwatch {
 public:
  using Clock = std::chrono::steady_clock;

  /// Starts (or restarts) timing from zero.
  void start() noexcept {
    accumulated_ = Clock::duration::zero();
    running_ = true;
    begin_ = Clock::now();
  }

  /// Resumes timing without clearing the accumulated total.
  void resume() noexcept {
    if (running_) return;
    running_ = true;
    begin_ = Clock::now();
  }

  /// Stops timing; elapsed time so far is retained.
  void stop() noexcept {
    if (!running_) return;
    accumulated_ += Clock::now() - begin_;
    running_ = false;
  }

  /// Total accumulated time in seconds.
  [[nodiscard]] double seconds() const noexcept {
    auto total = accumulated_;
    if (running_) total += Clock::now() - begin_;
    return std::chrono::duration<double>(total).count();
  }

  /// Total accumulated time in milliseconds.
  [[nodiscard]] double milliseconds() const noexcept { return seconds() * 1e3; }

 private:
  Clock::duration accumulated_{Clock::duration::zero()};
  Clock::time_point begin_{};
  bool running_ = false;
};

/// RAII guard that resumes a stopwatch on construction and stops it on
/// destruction; used to attribute time to the paper's per-phase buckets.
class ScopedTimer {
 public:
  explicit ScopedTimer(Stopwatch& watch) noexcept : watch_(watch) {
    watch_.resume();
  }
  ~ScopedTimer() { watch_.stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Stopwatch& watch_;
};

}  // namespace simgen::util
