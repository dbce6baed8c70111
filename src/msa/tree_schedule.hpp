#pragma once

#include <functional>

#include "msa/guide_tree.hpp"

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
/// the nodes run in exactly GuideTree::postorder() order.
///
/// Determinism contract: `node_fn` may touch only state owned by its own
/// node and by its two children — the children are complete, no other task
/// will ever read or write them again, and the scheduler's queue mutex
/// orders their writes before the parent runs, so the parent may freely
/// consume and even clear their slots (the progressive consumers do, to
/// free merged partials eagerly). Under that contract the final per-node
/// results are identical
/// for every `threads` value, because each node's result is a pure function
/// of its children's results regardless of execution order. Both consumers
/// in this library (PSP progressive, T-Coffee consistency) are pinned
/// bit-identical across thread counts by the tests/msa_parallel_test.cpp
/// invariance suite.
///
/// If any `node_fn` throws, the schedule drains (running nodes finish, no
/// new node starts) and one of the exceptions is rethrown.
void schedule_tree(const GuideTree& tree, unsigned threads,
                   const std::function<void(int)>& node_fn);

}  // namespace salign::msa
