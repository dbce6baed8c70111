// Deterministic high-contention stress drills for every shared concurrent
// structure: nested ThreadPool fork-join, the dependency-counting guide-
// tree scheduler on degenerate and wide trees, workers lent across
// schedules (throws and cancellation included), Daemon::stop() racing
// run(), and ArtifactCache churn. The assertions are exact (every unit of
// work exactly once, children strictly before parents), so the suite is
// meaningful in every preset; under the tsan preset these tests are the
// designated race detectors for the runtime (ISSUE 10). Iteration counts
// are sized for TSan's ~10x slowdown on a small CI box.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "msa/guide_tree.hpp"
#include "msa/tree_schedule.hpp"
#include "serve/daemon.hpp"
#include "util/artifact_cache.hpp"
#include "util/budget.hpp"
#include "util/stable_hash.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

namespace salign {
namespace {

namespace fs = std::filesystem;

// ---- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolStress, ForkJoinCountsEveryUnitExactlyOnce) {
  // Classic work-stealing loop over a shared ticket counter, repeated under
  // contention: each ticket must be claimed exactly once regardless of how
  // many of the handed-out worker copies actually start.
  util::ThreadPool pool(4);
  constexpr int kRounds = 50;
  constexpr int kTickets = 512;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> next{0};
    std::atomic<int> done{0};
    pool.run(3, [&] {
      for (;;) {
        const int t = next.fetch_add(1, std::memory_order_relaxed);
        if (t >= kTickets) return;
        done.fetch_add(1, std::memory_order_relaxed);
      }
    });
    EXPECT_EQ(done.load(), kTickets);
  }
}

TEST(ThreadPoolStress, NestedForkJoinDoesNotDeadlockOrDropWork) {
  // A worker that itself runs a parallel pass draws from the same shared
  // pool. The caller-participates contract guarantees progress even when
  // every pool thread is busy with the outer level; nested runs degrade to
  // inline execution at worst — never deadlock, never lost work.
  constexpr int kOuter = 8;
  constexpr int kInnerTickets = 64;
  std::atomic<int> outer_next{0};
  std::atomic<int> inner_done{0};
  util::ThreadPool::shared().run(3, [&] {
    for (;;) {
      const int t = outer_next.fetch_add(1, std::memory_order_relaxed);
      if (t >= kOuter) return;
      std::atomic<int> next{0};
      util::ThreadPool::shared().run(2, [&] {
        for (;;) {
          const int i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= kInnerTickets) return;
          inner_done.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  });
  EXPECT_EQ(inner_done.load(), kOuter * kInnerTickets);
}

TEST(ThreadPoolStress, ConcurrentThrowingWorkersRethrowAfterJoin) {
  // Every copy throws; run() must join all started copies first and then
  // rethrow exactly one exception — repeatedly, with no leaked state that
  // poisons the next run.
  util::ThreadPool pool(3);
  for (int round = 0; round < 25; ++round) {
    std::atomic<int> started{0};
    EXPECT_THROW(
        pool.run(3,
                 [&] {
                   started.fetch_add(1, std::memory_order_relaxed);
                   throw std::runtime_error("stress");
                 }),
        std::runtime_error);
    EXPECT_GE(started.load(), 1);
    // The pool must still be fully usable after an exceptional round.
    std::atomic<int> ok{0};
    pool.run(2, [&] { ok.fetch_add(1, std::memory_order_relaxed); });
    EXPECT_GE(ok.load(), 1);
  }
}

// ---- guide-tree scheduler ---------------------------------------------------

/// Chain ("caterpillar") tree: internal node k joins the previous internal
/// node with one new leaf — the worst case for the ready queue (parallelism
/// 1 at the spine, every completion wakes the peers for nothing).
msa::GuideTree make_caterpillar(int leaves) {
  std::vector<msa::TreeNode> nodes(
      static_cast<std::size_t>(2 * leaves - 1));
  for (int i = 0; i < leaves; ++i) nodes[static_cast<std::size_t>(i)].leaf_index = i;
  int prev = 0;  // spine so far: starts at leaf 0
  for (int k = 0; k < leaves - 1; ++k) {
    const int id = leaves + k;
    auto& n = nodes[static_cast<std::size_t>(id)];
    n.left = prev;
    n.right = k + 1;
    n.height = static_cast<double>(k + 1);
    nodes[static_cast<std::size_t>(prev)].parent = id;
    nodes[static_cast<std::size_t>(k + 1)].parent = id;
    prev = id;
  }
  return msa::GuideTree::from_nodes(std::move(nodes),
                                    static_cast<std::size_t>(leaves), prev);
}

/// Perfect binary tree over `leaves` (a power of two): maximal width, the
/// high-contention case — at the leaf level every worker is dequeuing from
/// the same ready deque.
msa::GuideTree make_balanced(int leaves) {
  std::vector<msa::TreeNode> nodes(
      static_cast<std::size_t>(2 * leaves - 1));
  for (int i = 0; i < leaves; ++i) nodes[static_cast<std::size_t>(i)].leaf_index = i;
  std::vector<int> level(static_cast<std::size_t>(leaves));
  for (int i = 0; i < leaves; ++i) level[static_cast<std::size_t>(i)] = i;
  int next_id = leaves;
  double height = 1.0;
  while (level.size() > 1) {
    std::vector<int> up;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      auto& n = nodes[static_cast<std::size_t>(next_id)];
      n.left = level[i];
      n.right = level[i + 1];
      n.height = height;
      nodes[static_cast<std::size_t>(level[i])].parent = next_id;
      nodes[static_cast<std::size_t>(level[i + 1])].parent = next_id;
      up.push_back(next_id++);
    }
    level = std::move(up);
    height += 1.0;
  }
  return msa::GuideTree::from_nodes(std::move(nodes),
                                    static_cast<std::size_t>(leaves),
                                    level[0]);
}

/// One schedule_tree run, logged per node: how often the node ran, a stamp
/// from a clock shared by every schedule of the test, and whether it ran
/// off the thread that called schedule_tree. Each node's slots are written
/// once by whichever worker runs it and read only after the run joins.
struct NodeLog {
  explicit NodeLog(const msa::GuideTree& t)
      : tree(&t), runs(t.num_nodes()), stamp(t.num_nodes(), -1),
        off_caller(t.num_nodes(), 0) {
    for (auto& r : runs) r.store(0);
  }

  /// Runs the schedule; `hook(id, off_caller)` runs inside every node after
  /// it is logged.
  void run(unsigned threads, std::atomic<int>& clock,
           const std::function<void(int, bool)>& hook = {}) {
    const std::thread::id caller = std::this_thread::get_id();
    msa::schedule_tree(*tree, threads, [&](int id) {
      const auto i = static_cast<std::size_t>(id);
      runs[i].fetch_add(1, std::memory_order_relaxed);
      stamp[i] = clock.fetch_add(1, std::memory_order_relaxed);
      off_caller[i] = std::this_thread::get_id() != caller ? 1 : 0;
      if (hook) hook(id, off_caller[i] != 0);
    });
  }

  /// The two scheduler invariants, exactly: every node exactly once, and
  /// every internal node strictly after both of its children.
  void expect_complete() const {
    for (std::size_t i = 0; i < tree->num_nodes(); ++i) {
      ASSERT_EQ(runs[i].load(), 1) << "node " << i;
      if (!tree->is_leaf(i)) {
        const auto& node = tree->node(i);
        EXPECT_GT(stamp[i], stamp[static_cast<std::size_t>(node.left)])
            << "node " << i << " ran before its left child";
        EXPECT_GT(stamp[i], stamp[static_cast<std::size_t>(node.right)])
            << "node " << i << " ran before its right child";
      }
    }
  }

  void expect_none_twice() const {
    for (std::size_t i = 0; i < tree->num_nodes(); ++i)
      EXPECT_LE(runs[i].load(), 1) << "node " << i << " ran twice";
  }

  /// Merge nodes that ran off the caller's thread.
  [[nodiscard]] std::uint64_t off_caller_merges() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < tree->num_nodes(); ++i)
      n += !tree->is_leaf(i) && off_caller[i] != 0 ? 1 : 0;
    return n;
  }

  const msa::GuideTree* tree;
  std::vector<std::atomic<int>> runs;
  std::vector<int> stamp;
  std::vector<char> off_caller;
};

/// Runs schedule_tree alone and checks the scheduler invariants.
void drill_schedule(const msa::GuideTree& tree, unsigned threads) {
  NodeLog log(tree);
  std::atomic<int> clock{0};
  log.run(threads, clock);
  log.expect_complete();
}

TEST(TreeScheduleStress, CaterpillarTreeAtManyThreadCounts) {
  const msa::GuideTree tree = make_caterpillar(64);
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE(threads);
    drill_schedule(tree, threads);
  }
}

TEST(TreeScheduleStress, WideBalancedTreeAtManyThreadCounts) {
  const msa::GuideTree tree = make_balanced(128);
  for (const unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    drill_schedule(tree, threads);
  }
}

TEST(TreeScheduleStress, ThrowingNodeAbortsWithoutHangOrRerun) {
  // A node that throws must abort the schedule: the exception is rethrown
  // on the caller, no node runs twice, and no worker is left waiting.
  const msa::GuideTree tree = make_balanced(64);
  const int poison = 70;  // an internal node: leaves have already fanned out
  for (int round = 0; round < 10; ++round) {
    std::vector<std::atomic<int>> runs(tree.num_nodes());
    for (auto& r : runs) r.store(0);
    EXPECT_THROW(
        msa::schedule_tree(tree, 4,
                           [&](int id) {
                             runs[static_cast<std::size_t>(id)].fetch_add(
                                 1, std::memory_order_relaxed);
                             if (id == poison)
                               throw std::runtime_error("poisoned node");
                           }),
        std::runtime_error);
    for (std::size_t i = 0; i < tree.num_nodes(); ++i)
      EXPECT_LE(runs[i].load(), 1) << "node " << i << " ran twice";
  }
}

// ---- lending across schedules (msa::for_each_owner) -------------------------
//
// Owners run at threads = 1 here, so a node that runs off its owner's
// thread ran on a lent worker.

/// Blocks the calling thread until `flag` is set, for at most a minute
/// (a lending bug then fails the test instead of hanging it).
void hold_until(const std::atomic<bool>& flag) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!flag.load() && std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

std::uint64_t merges_of(const msa::GuideTree& tree) {
  return tree.num_nodes() - tree.num_leaves();
}

TEST(LendingStress, FinishedOwnerRunsTheLongerScheduleOnce) {
  // Owner 0's schedule is tiny, owner 1's long; owner 1 holds its first
  // node until a lent worker has run one of its merges. Every node of both
  // still runs exactly once, after its children.
  const msa::GuideTree small = make_balanced(4);
  const msa::GuideTree large = make_balanced(128);
  util::ThreadPool pool(1);
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE(round);
    NodeLog a(small);
    NodeLog b(large);
    std::atomic<int> clock{0};
    std::atomic<bool> lent_merge{false};
    std::atomic<bool> held{false};
    const msa::LendingReport report = msa::for_each_owner(
        2,
        [&](std::size_t owner) {
          if (owner == 0) {
            a.run(1, clock);
            return;
          }
          b.run(1, clock, [&](int id, bool lent) {
            if (lent && !large.is_leaf(static_cast<std::size_t>(id)))
              lent_merge.store(true);
            if (!lent && !held.exchange(true)) hold_until(lent_merge);
          });
        },
        pool);
    a.expect_complete();
    b.expect_complete();
    EXPECT_TRUE(lent_merge.load());
    EXPECT_EQ(a.off_caller_merges(), 0u);
    EXPECT_EQ(report.merges, merges_of(small) + merges_of(large));
    EXPECT_EQ(report.lent_merges, b.off_caller_merges());
    EXPECT_GE(report.lent_merges, 1u);
    ASSERT_EQ(report.lent_cpu_seconds.size(), 2u);
    EXPECT_EQ(report.lent_cpu_seconds[0], 0.0);
    EXPECT_GE(report.lent_cpu_seconds[1], 0.0);
  }
}

TEST(LendingStress, MoreOwnersThanPoolWorkersComplete) {
  // 8 and 16 owners of skewed trees on a pool of 3 workers: a worker lends
  // only once every owner has started, so no owner waits for a worker that
  // is lending. threads = 2 adds each schedule's own shared-pool workers.
  std::vector<msa::GuideTree> trees;
  for (int leaves : {2, 4, 8, 16, 32}) trees.push_back(make_balanced(leaves));
  util::ThreadPool pool(3);
  for (const std::size_t owners : {std::size_t{8}, std::size_t{16}}) {
    for (const unsigned threads : {1u, 2u}) {
      SCOPED_TRACE(::testing::Message() << owners << " owners, " << threads
                                        << " threads");
      std::vector<NodeLog> logs;
      logs.reserve(owners);
      std::uint64_t merges = 0;
      for (std::size_t o = 0; o < owners; ++o) {
        logs.emplace_back(trees[o % trees.size()]);
        merges += merges_of(trees[o % trees.size()]);
      }
      std::atomic<int> clock{0};
      const msa::LendingReport report = msa::for_each_owner(
          owners, [&](std::size_t o) { logs[o].run(threads, clock); }, pool);
      for (const NodeLog& log : logs) log.expect_complete();
      EXPECT_EQ(report.merges, merges);
      EXPECT_LE(report.lent_merges, merges);
      EXPECT_EQ(report.lent_cpu_seconds.size(), owners);
    }
  }
}

TEST(LendingStress, ThrowOnLentWorkerAbortsOnlyItsOwner) {
  // Owner 1's first node run by a lent worker throws. Owner 1's schedule
  // drains and owner 1 rethrows; owners 0 and 2 complete. Owner 1 holds
  // its first node until the throw, and its tree is the largest, so the
  // first lent worker picks it.
  const msa::GuideTree small = make_balanced(4);
  const msa::GuideTree doomed_tree = make_balanced(256);
  const msa::GuideTree other_tree = make_balanced(64);
  util::ThreadPool pool(2);
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE(round);
    NodeLog a(small);
    NodeLog doomed(doomed_tree);
    NodeLog other(other_tree);
    std::atomic<int> clock{0};
    std::atomic<bool> thrown{false};
    std::atomic<bool> held{false};
    std::string caught;
    const msa::LendingReport report = msa::for_each_owner(
        3,
        [&](std::size_t owner) {
          if (owner == 0) return a.run(1, clock);
          if (owner == 2) return other.run(1, clock);
          try {
            doomed.run(1, clock, [&](int, bool lent) {
              if (lent && !thrown.exchange(true))
                throw std::runtime_error("lent node");
              if (!lent && !held.exchange(true)) hold_until(thrown);
            });
          } catch (const std::runtime_error& e) {
            caught = e.what();
          }
        },
        pool);
    EXPECT_EQ(caught, "lent node");
    a.expect_complete();
    other.expect_complete();
    doomed.expect_none_twice();
    EXPECT_EQ(doomed.runs[static_cast<std::size_t>(doomed_tree.root())].load(),
              0);
    EXPECT_LE(report.lent_merges, report.merges);
  }
}

TEST(LendingStress, CancelDuringLendingStopsCooperatively) {
  // Owner 1 holds its first node until a lent worker has run one of its
  // nodes, then cancels the run; lent nodes wait for that hold, so the
  // cancel always lands while a worker is lent. Both owner 1's thread and
  // the lent worker poll the budget before their next node; for_each_owner
  // rethrows the cancellation and no node ran twice.
  const msa::GuideTree small = make_balanced(4);
  const msa::GuideTree large = make_balanced(256);
  util::ThreadPool pool(1);
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE(round);
    auto token = std::make_shared<util::CancelToken>();
    const util::Budget budget(0.0, token);
    const util::ScopedBudget scoped(&budget);
    NodeLog a(small);
    NodeLog b(large);
    std::atomic<int> clock{0};
    std::atomic<bool> lent{false};
    std::atomic<bool> held{false};
    EXPECT_THROW(
        (void)msa::for_each_owner(
            2,
            [&](std::size_t owner) {
              if (owner == 0) return a.run(1, clock);
              b.run(1, clock, [&](int, bool off_owner) {
                if (off_owner) {
                  lent.store(true);
                  hold_until(held);
                }
                if (!off_owner && !held.exchange(true)) {
                  hold_until(lent);
                  token->request();
                }
              });
            },
            pool),
        util::CancelledError);
    EXPECT_TRUE(lent.load());
    a.expect_complete();
    b.expect_none_twice();
    EXPECT_EQ(b.runs[static_cast<std::size_t>(large.root())].load(), 0);
  }
}

// ---- serve daemon stop()/run() race ----------------------------------------

TEST(DaemonStress, StopRacesStartupAndDrain) {
  // request_stop() at every phase relative to run(): before the socket is
  // bound, exactly at readiness, and from two threads at once. Every
  // combination must terminate run() promptly with no crash, hang, or
  // double-free — this is the control-plane shutdown race the tsan preset
  // exists to keep honest.
  const fs::path dir =
      fs::temp_directory_path() /
      ("salign_stress_daemon_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::create_directories(dir);
  for (int round = 0; round < 6; ++round) {
    serve::DaemonOptions opt;
    const auto i = static_cast<std::size_t>(round);
    opt.socket_path = (dir / util::indexed_name("s", i)).string();
    opt.journal_dir = (dir / util::indexed_name("j", i)).string();
    serve::Daemon daemon(opt);
    std::thread server([&] { daemon.run(); });
    switch (round % 3) {
      case 0:
        // Stop without waiting: races the bind/replay phase.
        daemon.request_stop();
        break;
      case 1:
        ASSERT_TRUE(daemon.wait_until_ready(10.0));
        daemon.request_stop();
        break;
      default: {
        // Two stops at once, one racing readiness.
        std::thread other([&] { daemon.request_stop(); });
        (void)daemon.wait_until_ready(10.0);
        daemon.request_stop();
        other.join();
        break;
      }
    }
    server.join();
    // The daemon must have come down cleanly enough to restart on the same
    // journal (replay of an empty/terminal journal).
    serve::Daemon again(opt);
    std::thread server2([&] { again.run(); });
    ASSERT_TRUE(again.wait_until_ready(10.0));
    again.request_stop();
    server2.join();
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// ---- ArtifactCache churn ----------------------------------------------------

TEST(ArtifactCacheStress, PoolDrivenChurnKeepsInvariants) {
  // Hammer one cache from the shared pool with a mix of put/get/clear/
  // set_capacity. The checked invariants are the ones that survive any
  // interleaving: resident bytes within capacity after the storm, a blob
  // returned by get() is always intact (shared_ptr keeps evicted blobs
  // alive for holders), and the stats counters are internally consistent.
  util::ArtifactCache cache(1 << 16);
  constexpr int kOps = 400;
  std::atomic<int> next{0};
  util::ThreadPool::shared().run(3, [&] {
    for (;;) {
      const int op = next.fetch_add(1, std::memory_order_relaxed);
      if (op >= kOps) return;
      const auto key = util::stable_hash128(std::vector<std::uint8_t>(
          static_cast<std::size_t>(op % 37), 0xAB));
      switch (op % 5) {
        case 0:
        case 1: {
          std::vector<std::uint8_t> bytes(
              static_cast<std::size_t>(97 + op % 1024),
              static_cast<std::uint8_t>(op));
          const auto blob = cache.put(key, std::move(bytes));
          ASSERT_NE(blob, nullptr);
          break;
        }
        case 2:
        case 3: {
          const auto blob = cache.get(key);
          if (blob) {
            // Whatever generation we got, it is a complete value.
            ASSERT_FALSE(blob->empty());
            EXPECT_EQ((*blob)[0], blob->back());
          }
          break;
        }
        default:
          if (op % 50 == 4) {
            cache.clear();
          } else if (op % 25 == 9) {
            cache.set_capacity(1 << (14 + op % 3));
          }
          break;
      }
    }
  });
  const auto st = cache.stats();
  EXPECT_LE(st.stored_bytes, cache.capacity());
  EXPECT_GE(st.insertions, 1u);
  if (st.hits == 0) {
    EXPECT_EQ(st.hit_bytes, 0u);
  }
  if (st.entries == 0) {
    EXPECT_EQ(st.stored_bytes, 0u);
  }
}

}  // namespace
}  // namespace salign
