#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/budget.hpp"

namespace salign::util {

namespace {

/// Shared state of one run(): the pool copies and the caller synchronize on
/// it. Held by shared_ptr so a copy the pool dequeues after the caller
/// returned (already cancelled) still has valid state to look at.
struct JobState {
  std::mutex mu;
  std::condition_variable done_cv;  // caller waits: started == finished
  const std::function<void()>* fn = nullptr;  // valid until cancelled is set
  const Budget* budget = nullptr;  // the caller's; outlives every copy
  unsigned started = 0;
  unsigned finished = 0;
  bool cancelled = false;
  std::exception_ptr error;
};

}  // namespace

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;
  std::deque<std::shared_ptr<JobState>> queue;  // one entry per copy
  std::vector<std::thread> threads;
  unsigned idle = 0;
  bool shutdown = false;

  void worker_loop() {
    std::unique_lock lock(mu);
    for (;;) {
      ++idle;
      work_cv.wait(lock, [&] { return shutdown || !queue.empty(); });
      --idle;
      if (shutdown && queue.empty()) return;
      const std::shared_ptr<JobState> job = std::move(queue.front());
      queue.pop_front();
      lock.unlock();

      const std::function<void()>* fn = nullptr;
      {
        std::lock_guard job_lock(job->mu);
        if (!job->cancelled) {
          ++job->started;
          fn = job->fn;
        }
      }
      if (fn != nullptr) {
        std::exception_ptr err;
        try {
          const ScopedBudget scoped(job->budget);
          (*fn)();
        } catch (...) {
          err = std::current_exception();
        }
        std::lock_guard job_lock(job->mu);
        ++job->finished;
        if (err && !job->error) job->error = err;
        job->done_cv.notify_all();
      }
      lock.lock();
    }
  }
};

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(std::max(1U, std::thread::hardware_concurrency()));
  return pool;
}

ThreadPool::ThreadPool(unsigned max_workers)
    : impl_(new Impl), max_workers_(max_workers) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(impl_->mu);
    impl_->shutdown = true;
  }
  impl_->work_cv.notify_all();
  for (auto& t : impl_->threads) t.join();
  delete impl_;
}

void ThreadPool::run(unsigned extra_workers,
                     const std::function<void()>& worker) {
  const unsigned extra = std::min(extra_workers, max_workers_);
  if (extra == 0) {
    worker();
    return;
  }

  auto job = std::make_shared<JobState>();
  job->fn = &worker;
  job->budget = current_budget();
  {
    std::lock_guard lock(impl_->mu);
    for (unsigned i = 0; i < extra; ++i) impl_->queue.push_back(job);
    // Lazily grow the pool: one thread per queued copy not served by an
    // idle worker, up to the cap.
    const std::size_t want =
        std::min<std::size_t>(max_workers_,
                              impl_->threads.size() +
                                  (impl_->queue.size() > impl_->idle
                                       ? impl_->queue.size() - impl_->idle
                                       : 0));
    while (impl_->threads.size() < want)
      impl_->threads.emplace_back([this] { impl_->worker_loop(); });
  }
  impl_->work_cv.notify_all();

  std::exception_ptr caller_error;
  try {
    worker();
  } catch (...) {
    caller_error = std::current_exception();
  }

  // The caller's share of the work is done (or failed): cancel copies the
  // pool has not started yet and wait out the ones it has.
  std::unique_lock job_lock(job->mu);
  job->cancelled = true;
  job->done_cv.wait(job_lock, [&] { return job->started == job->finished; });
  if (caller_error) std::rethrow_exception(caller_error);
  if (job->error) std::rethrow_exception(job->error);
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  unsigned threads) {
  if (n == 0) return;
  const unsigned workers =
      std::min<unsigned>(threads == 0 ? 1 : threads,
                         static_cast<unsigned>(n));
  if (workers <= 1) {
    util::poll_budget("parallel_for");
    fn(0, n);
    return;
  }
  // Chunk geometry is a pure function of (n, workers) — never of how many
  // pool threads actually show up — so callers that rely on deterministic
  // chunk boundaries get the same ranges for any pool load. Chunks are
  // claimed from a shared counter by the caller plus up to workers-1 shared
  // pool threads; the caller alone finishes the loop when the pool is busy.
  const std::size_t chunk = (n + workers - 1) / workers;
  std::atomic<unsigned> next{0};
  util::ThreadPool::shared().run(workers - 1, [&] {
    for (unsigned w = next.fetch_add(1, std::memory_order_relaxed);
         w < workers; w = next.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t begin = static_cast<std::size_t>(w) * chunk;
      const std::size_t end = std::min(n, begin + chunk);
      if (begin >= end) break;
      // Cooperative cancellation boundary: a deadline/cancel stops workers
      // before their next chunk; the exception unwinds through the pool's
      // rethrow path like any worker failure.
      util::poll_budget("parallel_for chunk");
      fn(begin, end);
    }
  });
}

unsigned default_threads() {
  return default_threads_for(std::thread::hardware_concurrency());
}

}  // namespace salign::util
