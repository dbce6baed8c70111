#include "msa/tree_schedule.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "util/budget.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace salign::msa {

namespace {

/// One running schedule_tree call: a dependency-counting work queue. Leaves
/// seed the ready queue in postorder order so a single consumer reproduces
/// the serial schedule; each completed child decrements its parent's count
/// and the second one releases the parent. Guarded by its board's mutex.
struct Schedule {
  Schedule(const GuideTree& t, const std::function<void(int)>& fn,
           std::size_t owner_index)
      : tree(t),
        node_fn(fn),
        owner(owner_index),
        pending(t.num_nodes(), 0),
        remaining(t.num_nodes()) {
    for (std::size_t i = 0; i < t.num_nodes(); ++i)
      if (!t.is_leaf(i)) pending[i] = 2;
    for (int id : t.postorder())
      if (t.is_leaf(static_cast<std::size_t>(id))) ready.push_back(id);
  }

  const GuideTree& tree;
  const std::function<void(int)>& node_fn;
  const std::size_t owner;
  std::condition_variable cv;  // the caller's workers wait here
  std::deque<int> ready;
  std::vector<int> pending;
  std::size_t remaining;    // nodes not yet completed
  std::size_t running = 0;  // nodes taken and not yet completed
  std::exception_ptr error;
  bool abort = false;
};

/// Runs one node outside the lock. The node boundary doubles as the
/// cancellation boundary: on deadline or cancel no new merge starts,
/// running merges finish, and the budget exception aborts the schedule.
std::exception_ptr run_node(const Schedule& s, int id) {
  try {
    util::poll_budget("tree schedule node");
    s.node_fn(id);
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

/// The schedules of one for_each_owner call, and the workers it lends them.
/// A schedule_tree call with no seat runs on a private board of its own,
/// which no one lends to.
class Board {
 public:
  explicit Board(std::size_t owners)
      : busy_owners_(owners), lent_cpu_(owners, 0.0) {}
  Board(const Board&) = delete;
  Board& operator=(const Board&) = delete;

  /// Opens `s` for lending and runs its nodes on the calling thread plus
  /// up to `extra` pool workers until it completes or aborts. Returns once
  /// no worker, lent or not, still runs one of its nodes.
  void run(Schedule& s, unsigned extra) {
    {
      const std::lock_guard lock(mu_);
      open_.push_back(&s);
    }
    lend_cv_.notify_all();
    // close() must run even if run() throws: lent workers hold &s.
    struct Close {
      Board& b;
      Schedule& s;
      ~Close() { b.close(s); }
    } const close{*this, s};
    util::ThreadPool::shared().run(extra, [&] { work(s); });
  }

  /// Lends the calling thread to the open schedules until no owner is busy.
  void lend() {
    std::unique_lock lock(mu_);
    // The stint's owner and CPU clock: one thread-clock read per switch of
    // owner, not per node.
    std::optional<std::size_t> stint;
    util::ThreadCpuTimer cpu;
    for (;;) {
      // Every open schedule belongs to a busy owner, so once none is busy
      // there is nothing left to lend to.
      Schedule* s = nullptr;
      lend_cv_.wait(lock, [&] {
        s = pick();
        return s != nullptr || busy_owners_ == 0;
      });
      if (s == nullptr) break;
      if (stint != s->owner) {
        const double spent = cpu.restart();
        if (stint) lent_cpu_[*stint] += spent;
        stint = s->owner;
      }
      const int id = take(*s);
      lock.unlock();
      const std::exception_ptr err = run_node(*s, id);
      lock.lock();
      finish(*s, id, err, true);
    }
    if (stint) lent_cpu_[*stint] += cpu.seconds();
  }

  /// An owner finished (or failed) its work and opens no more schedules.
  void retire_owner() {
    {
      const std::lock_guard lock(mu_);
      --busy_owners_;
    }
    lend_cv_.notify_all();
  }

  /// Read once every worker of the board has returned.
  [[nodiscard]] LendingReport report() const {
    const std::lock_guard lock(mu_);
    return {lent_cpu_, merges_, lent_merges_};
  }

 private:
  /// The caller's side of a schedule: the caller and its pool workers.
  void work(Schedule& s) {
    std::unique_lock lock(mu_);
    for (;;) {
      s.cv.wait(lock, [&] {
        return s.abort || s.remaining == 0 || !s.ready.empty();
      });
      if (s.abort || s.remaining == 0) return;
      const int id = take(s);
      lock.unlock();
      const std::exception_ptr err = run_node(s, id);
      lock.lock();
      finish(s, id, err, false);
      if (err) return;
    }
  }

  /// The open schedule a lent worker serves next: of those with a ready
  /// node, the one with the most nodes left. Null when none has one.
  Schedule* pick() const {
    Schedule* best = nullptr;
    for (Schedule* s : open_)
      if (!s->abort && !s->ready.empty() &&
          (best == nullptr || s->remaining > best->remaining))
        best = s;
    return best;
  }

  int take(Schedule& s) {
    const int id = s.ready.front();
    s.ready.pop_front();
    ++s.running;
    return id;
  }

  /// Files the outcome of node `id`; mu_ held.
  void finish(Schedule& s, int id, const std::exception_ptr& err,
              bool lent) {
    --s.running;
    if (err) {
      if (!s.error) s.error = err;
      s.abort = true;
      s.cv.notify_all();
      return;
    }
    --s.remaining;
    const TreeNode& node = s.tree.node(static_cast<std::size_t>(id));
    if (node.left >= 0) {
      ++merges_;
      if (lent) ++lent_merges_;
    }
    const int parent = node.parent;
    if (parent >= 0 && --s.pending[static_cast<std::size_t>(parent)] == 0) {
      s.ready.push_back(parent);
      // Woken only after the parent is queued, so a lent worker that
      // wakes finds it.
      lend_cv_.notify_all();
    }
    // Wake the caller's workers: a new task may be ready, the schedule may
    // be done, or an aborted schedule's last running node may have ended.
    if (s.remaining == 0 || !s.ready.empty() || s.running == 0)
      s.cv.notify_all();
  }

  /// Waits out the schedule's running nodes and withdraws it from lending.
  void close(Schedule& s) {
    std::unique_lock lock(mu_);
    s.cv.wait(lock, [&] { return s.running == 0; });
    open_.erase(std::find(open_.begin(), open_.end(), &s));
  }

  mutable std::mutex mu_;  // guards everything below and every Schedule
  std::condition_variable lend_cv_;  // lent workers wait here
  std::vector<Schedule*> open_;
  std::size_t busy_owners_;
  std::vector<double> lent_cpu_;
  std::uint64_t merges_ = 0;
  std::uint64_t lent_merges_ = 0;
};

/// The board the calling thread's schedules open on, and their owner.
struct Seat {
  Board* board = nullptr;
  std::size_t owner = 0;
};
thread_local Seat t_seat;

/// Seats the calling thread on `board` as `owner` for its scope; leaving
/// it retires the owner.
class SeatScope {
 public:
  SeatScope(Board& board, std::size_t owner) : previous_(t_seat) {
    t_seat = {&board, owner};
  }
  ~SeatScope() {
    Board* board = t_seat.board;
    t_seat = previous_;
    board->retire_owner();
  }
  SeatScope(const SeatScope&) = delete;
  SeatScope& operator=(const SeatScope&) = delete;

 private:
  Seat previous_;
};

}  // namespace

void schedule_tree(const GuideTree& tree, unsigned threads,
                   const std::function<void(int)>& node_fn) {
  if (tree.num_nodes() == 0) return;
  const Seat seat = t_seat;
  if (threads <= 1 && seat.board == nullptr) {
    for (int id : tree.postorder()) {
      util::poll_budget("tree schedule node");
      node_fn(id);
    }
    return;
  }

  std::optional<Board> own;
  Board& board = seat.board != nullptr ? *seat.board : own.emplace(0);
  Schedule s(tree, node_fn, seat.owner);
  board.run(s, threads > 1 ? threads - 1 : 0);
  if (s.error) std::rethrow_exception(s.error);
}

LendingReport for_each_owner(std::size_t owners,
                             const std::function<void(std::size_t)>& fn,
                             util::ThreadPool& pool) {
  if (owners <= 1) {
    if (owners == 1) fn(0);
    return {std::vector<double>(owners, 0.0), 0, 0};
  }
  Board board(owners);
  std::atomic<std::size_t> next{0};
  pool.run(static_cast<unsigned>(owners - 1), [&] {
    for (std::size_t o = next.fetch_add(1); o < owners;
         o = next.fetch_add(1)) {
      const SeatScope seat(board, o);
      fn(o);
    }
    board.lend();
  });
  return board.report();
}

}  // namespace salign::msa
