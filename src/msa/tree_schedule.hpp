#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "msa/guide_tree.hpp"
#include "util/thread_pool.hpp"

namespace salign::msa {

/// Executes `node_fn(id)` once for every node of `tree` — leaves included —
/// with every node's children completed before the node itself runs, on the
/// calling thread plus up to `threads - 1` workers from the shared
/// util::ThreadPool.
///
/// This is the task engine of the parallel progressive pass: each internal
/// node is a task with a dependency count of two that fires when both
/// children are merged, so independent subtrees align concurrently and the
/// only serialization left is the tree's critical path. With threads <= 1
/// and no lending board (see for_each_owner) the nodes run in exactly
/// GuideTree::postorder() order.
///
/// Joinable: called on a thread that for_each_owner seated on a board, the
/// schedule opens on that board, and owners that have finished their own
/// work run its ready nodes too (its result is then still the owner's; the
/// lent worker only adds hands).
///
/// Determinism contract: `node_fn` may touch only state owned by its own
/// node and by its two children — the children are complete, no other task
/// will ever read or write them again, and the scheduler's queue mutex
/// orders their writes before the parent runs, so the parent may freely
/// consume and even clear their slots (the progressive consumers do, to
/// free merged partials eagerly). Under that contract the final per-node
/// results are identical for every `threads` value and whichever worker,
/// lent or not, runs a node, because each node's result is a pure function
/// of its children's results regardless of execution order. Both consumers
/// in this library (PSP progressive, T-Coffee consistency) are pinned
/// bit-identical across thread counts by the tests/msa_parallel_test.cpp
/// invariance suite.
///
/// If any `node_fn` throws — on the caller's workers or on a lent one — the
/// schedule drains (running nodes finish, no new node starts) and one of
/// the exceptions is rethrown here. Other schedules on the board go on.
void schedule_tree(const GuideTree& tree, unsigned threads,
                   const std::function<void(int)>& node_fn);

/// What the lent workers of one for_each_owner call did.
struct LendingReport {
  /// Per owner: CPU seconds that lent workers spent on the owner's nodes,
  /// read from their thread clocks once per stint (a run of consecutive
  /// nodes of one owner), not per node, since some hosts tick that clock
  /// in 10 ms steps.
  std::vector<double> lent_cpu_seconds;
  /// Merge (internal) nodes of every schedule opened on the board, and how
  /// many of them ran on a lent worker.
  std::uint64_t merges = 0;
  std::uint64_t lent_merges = 0;
};

/// Runs `fn(owner)` once for every owner in [0, owners), concurrently on
/// the calling thread plus up to `owners - 1` workers of `pool`, and makes
/// the run work-conserving: each call runs seated on one board scoped to
/// this call, so the schedule_tree calls it makes on its own thread are
/// joinable, and a worker that finds no owner left to start lends itself
/// to the open schedules — the one with the most nodes left first — until
/// every owner is done. A worker only lends once every owner has started,
/// so no owner ever waits for a worker that lends. Lending never adds a
/// worker: the run holds at most `owners` of them plus what each owner's
/// schedules draw from the pool themselves.
///
/// With one owner (or none) nobody can lend: `fn` runs on the calling
/// thread with no board. If an `fn` throws, its owner stops counting as
/// busy and one of the exceptions is rethrown once every worker returned.
LendingReport for_each_owner(
    std::size_t owners, const std::function<void(std::size_t)>& fn,
    util::ThreadPool& pool = util::ThreadPool::shared());

}  // namespace salign::msa
