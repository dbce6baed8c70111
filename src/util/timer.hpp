#pragma once

#include <ctime>

#include <chrono>
#include <string>
#include <utility>

namespace salign::util {

/// Monotonic wall-clock stopwatch.
///
/// Used throughout the benchmark harness and the pipeline stage
/// instrumentation. The clock is `steady_clock`, so timings are immune to
/// system clock adjustments.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch and returns the elapsed time before the reset.
  double restart() {
    const double s = seconds();
    start_ = Clock::now();
    return s;
  }

  /// Elapsed seconds since construction or the last restart().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds since construction or the last restart().
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Per-thread CPU-time stopwatch (CLOCK_THREAD_CPUTIME_ID).
///
/// Simulated ranks run concurrently on shared host cores, so wall-clock
/// per-rank timings would be inflated by scheduler contention. CPU time
/// measures the work a rank actually did, which is what the cluster cost
/// model charges as "dedicated node" compute.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(now()) {}

  /// CPU seconds consumed by the calling thread since construction/restart.
  [[nodiscard]] double seconds() const { return now() - start_; }

  double restart() {
    const double t = now();
    const double s = t - start_;
    start_ = t;
    return s;
  }

  static double now() {
    ::timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }

 private:
  double start_;
};

/// Accumulates elapsed time into a `double` on destruction; convenient for
/// attributing scoped work to a per-stage accumulator.
class ScopedTimer {
 public:
  explicit ScopedTimer(double& sink) : sink_(&sink) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() { *sink_ += watch_.seconds(); }

 private:
  double* sink_;
  Stopwatch watch_;
};

}  // namespace salign::util
