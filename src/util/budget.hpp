#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

namespace salign::util {

/// The pipeline ran past its --deadline. Mapped to its own CLI exit code
/// (distinct from generic failure) because the run is *not* broken: the
/// checkpoint directory it leaves behind is valid and --resume completes
/// the alignment bit-identically.
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(const std::string& what)
      : std::runtime_error(what) {}
};

/// The run was cancelled via a CancelToken (operator stop, serve-daemon
/// job eviction). Same recovery contract as DeadlineExceeded.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Cooperative cancellation flag, shareable across threads. request()
/// never interrupts anything by itself — workers poll it at chunk/stage
/// boundaries via Budget::check().
class CancelToken {
 public:
  void request() { cancelled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// A wall-clock deadline plus cancellation token, polled cooperatively.
/// The deadline clock starts at construction; a deadline of 0 means none. check()/poll() are cheap
/// enough for per-chunk polling: one relaxed atomic load when no limit is
/// set, one steady_clock read otherwise.
class Budget {
 public:
  Budget() = default;
  explicit Budget(double deadline_seconds,
                  std::shared_ptr<CancelToken> cancel = nullptr)
      : deadline_seconds_(deadline_seconds),
        cancel_(std::move(cancel)),
        start_(std::chrono::steady_clock::now()),
        has_deadline_(deadline_seconds > 0.0) {}

  /// True when the run must stop at the next boundary (deadline passed or
  /// cancellation requested). Never throws.
  [[nodiscard]] bool should_stop() const {
    if (cancel_ && cancel_->requested()) return true;
    return has_deadline_ && elapsed_seconds() >= deadline_seconds_;
  }

  /// Throws DeadlineExceeded / CancelledError when the run must stop.
  /// `where` names the boundary for the diagnostic.
  void check(std::string_view where) const {
    if (cancel_ && cancel_->requested())
      throw CancelledError("cancelled at " + std::string(where));
    if (has_deadline_ && elapsed_seconds() >= deadline_seconds_)
      throw DeadlineExceeded("deadline of " +
                             std::to_string(deadline_seconds_) +
                             "s exceeded at " + std::string(where));
  }

  [[nodiscard]] double elapsed_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  double deadline_seconds_ = 0.0;
  std::shared_ptr<CancelToken> cancel_;
  std::chrono::steady_clock::time_point start_{};
  bool has_deadline_ = false;
};

/// The budget of the pipeline run the calling thread works for, if any.
/// Worker loops (util::parallel_for chunks, guide-tree merge scheduling)
/// poll this so cancellation crosses thread-pool threads without plumbing
/// a parameter through every call chain: ThreadPool::run installs its
/// caller's budget on every pool thread that runs a copy of the work. Null
/// when no budget is active — the common case, one thread-local load.
[[nodiscard]] const Budget* current_budget();

/// Installs `budget` as the calling thread's current budget for its scope
/// and restores the previous one on exit. Each thread has its own, so
/// concurrent pipeline runs never see each other's budget.
class ScopedBudget {
 public:
  explicit ScopedBudget(const Budget* budget);
  ~ScopedBudget();
  ScopedBudget(const ScopedBudget&) = delete;
  ScopedBudget& operator=(const ScopedBudget&) = delete;

 private:
  const Budget* previous_;
};

/// Polls the current budget (if any) at a cooperative boundary; throws
/// DeadlineExceeded/CancelledError when the run must stop.
void poll_budget(std::string_view where);

}  // namespace salign::util
