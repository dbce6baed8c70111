#pragma once

#include <cstddef>
#include <functional>

namespace salign::util {

/// Process-wide shared worker pool.
///
/// Every thread-parallel pass in the library (the distance-matrix drivers,
/// the progressive-alignment task scheduler) draws workers from this one
/// pool instead of spawning threads per call, so concurrent passes —
/// several simulated cluster ranks each threading their own bucket — share
/// the machine instead of oversubscribing it. Workers are started lazily on
/// first use and live for the process.
///
/// The execution model is fork-join with caller participation: run()
/// invokes `worker` on the calling thread and hands up to `extra_workers`
/// copies to pool threads. Because the caller always participates, a run
/// completes even when every pool thread is busy elsewhere — callers can
/// never deadlock waiting for pool capacity, and nested run() calls (a
/// worker that itself runs a parallel pass) degrade to inline execution at
/// worst. Copies the pool has not started by the time the work is complete
/// are cancelled, never invoked.
class ThreadPool {
 public:
  /// The shared pool, sized to the host's hardware concurrency.
  static ThreadPool& shared();

  /// A pool with at most `max_workers` threads (0 = no pool threads; run()
  /// degrades to calling `worker` inline). Mostly for tests — production
  /// code uses shared().
  explicit ThreadPool(unsigned max_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs `worker` on the calling thread plus up to `extra_workers` pool
  /// threads concurrently and returns once every invocation that started
  /// has returned. `worker` must be safe to invoke concurrently from
  /// multiple threads (typically a work-stealing loop over a shared queue)
  /// and must not assume any copy beyond the caller's ever runs. If any
  /// invocation throws, one of the exceptions is rethrown here after all
  /// invocations have finished.
  void run(unsigned extra_workers, const std::function<void()>& worker);

  [[nodiscard]] unsigned max_workers() const { return max_workers_; }

 private:
  struct Impl;
  Impl* impl_;
  unsigned max_workers_;
};

/// Static-partition parallel map over [0, n): OpenMP-style worksharing for
/// intra-rank loops (distance matrices, per-sequence ranking). Runs inline
/// when threads <= 1 or n is tiny; otherwise draws workers from the shared
/// util::ThreadPool (no per-call thread spawns), with the calling thread
/// always participating. Chunk boundaries depend only on (n, threads), so
/// outputs are deterministic for any pool load. `fn(begin, end)` must be
/// thread-safe on disjoint ranges.
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  unsigned threads);

/// Default worker count for "auto" thread knobs: the host's hardware
/// concurrency, capped at kDefaultThreadCap (beyond the cap the in-process
/// cluster ranks multiply against per-rank threads and memory-bandwidth-
/// bound DP passes stop scaling), and at least 1 — including when
/// hardware_concurrency() reports 0, which the standard permits and some
/// containers/cgroup setups actually do. A 0 here would flow into thread
/// knobs as "no workers" and silently serialize (or worse, size a pool at
/// zero), so the floor is load-bearing, not cosmetic.
inline constexpr unsigned kDefaultThreadCap = 16;
[[nodiscard]] unsigned default_threads();

/// The pure mapping behind default_threads(), taking the reported hardware
/// concurrency as an argument so the hardware_concurrency() == 0 contract
/// is unit-testable (tests/util_test.cpp pins it).
[[nodiscard]] constexpr unsigned default_threads_for(unsigned hardware) {
  if (hardware == 0) return 1;  // unknown concurrency: never degenerate to 0
  return hardware < kDefaultThreadCap ? hardware : kDefaultThreadCap;
}

}  // namespace salign::util
