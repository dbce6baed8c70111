#include "msa/progressive.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "align/engine/engine.hpp"
#include "msa/tree_schedule.hpp"

namespace salign::msa {

namespace {

/// True when align_profiles on the two one-row profiles of `a` and `b`
/// computes exactly the pairwise global alignment of their sequences, so
/// the merge can run engine::global_align (the striped integer tiers and
/// their exact traceback) instead. A one-row child is a leaf, whose row
/// has no gap; at a positive finite weight it normalizes to weight 1 and
/// occupancy 1 in every column, so its PSP scores are S(x, y) and its gaps
/// unscaled. With integer penalties whose longest boundary run stays below
/// 2^24 the profile DP's accumulated runs equal the pairwise
/// -(open + ext * (k - 1)) exactly. open >= extend >= 1 is the integer
/// tiers' own gate: outside it global_align would run the float kernel and
/// gain nothing. Anything else (a weight or alphabet the Profile
/// constructor rejects included) stays on the profile path.
bool sequence_pair_merge(const Alignment& a, const Alignment& b, double wa,
                         double wb, const bio::SubstitutionMatrix& matrix,
                         bio::GapPenalties gaps, std::size_t band) {
  if (band != 0 || a.num_rows() != 1 || b.num_rows() != 1) return false;
  if (a.alphabet_kind() != matrix.alphabet_kind() ||
      b.alphabet_kind() != matrix.alphabet_kind())
    return false;
  for (double w : {wa, wb})
    if (!(w > 0.0) || !std::isfinite(w)) return false;
  const float open = gaps.open;
  const float ext = gaps.extend;
  if (open != std::floor(open) || ext != std::floor(ext) || ext < 1.0F ||
      open < ext)
    return false;
  const auto longest =
      static_cast<double>(std::max(a.num_cols(), b.num_cols()));
  return open + ext * longest < 16777216.0;  // 2^24
}

/// Appends `ops` to `runs` as run-length codes (length << 2) | op.
void append_runs(std::span<const align::EditOp> ops,
                 std::vector<std::uint32_t>& runs) {
  constexpr std::size_t kMaxRun = (std::size_t{1} << 30) - 1;
  for (std::size_t i = 0; i < ops.size();) {
    std::size_t j = i + 1;
    while (j < ops.size() && ops[j] == ops[i] && j - i < kMaxRun) ++j;
    runs.push_back(static_cast<std::uint32_t>(j - i) << 2 |
                   static_cast<std::uint32_t>(ops[i]));
    i = j;
  }
}

/// The column path the recorded pass took at its internal node `u`.
std::vector<align::EditOp> recorded_path(const MergeRecord& first, int u) {
  const std::size_t k = static_cast<std::size_t>(u) - first.tree.num_leaves();
  std::vector<align::EditOp> ops;
  for (std::size_t r = first.offsets[k]; r < first.offsets[k + 1]; ++r)
    ops.insert(ops.end(), first.runs[r] >> 2,
               static_cast<align::EditOp>(first.runs[r] & 3));
  return ops;
}

/// Weight of sequence `leaf` under ProgressiveOptions-style `weights`.
double weight_of(const std::vector<double>& weights, int leaf) {
  return weights.empty() ? 1.0 : weights[static_cast<std::size_t>(leaf)];
}

/// True when the rows of recorded node `c` (in row order) had weights that
/// normalize to `now`'s bit for bit, so a Profile of its alignment is the
/// one the recorded pass built.
bool same_profile_weights(const MergeRecord& first, int c,
                          std::span<const double> now) {
  std::vector<double> then;
  std::vector<int> stack{c};
  while (!stack.empty()) {
    const auto id = static_cast<std::size_t>(stack.back());
    stack.pop_back();
    const TreeNode& nd = first.tree.node(id);
    if (nd.left < 0) {
      then.push_back(weight_of(first.weights, nd.leaf_index));
    } else {
      stack.push_back(nd.right);
      stack.push_back(nd.left);
    }
  }
  const std::vector<float> a = normalized_weights(then, now.size());
  const std::vector<float> b = normalized_weights(now, now.size());
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The recorded node whose merge had exactly the inputs of merging `left`
/// (which equals recorded node `tl`) with `right` (equal to `tr`) at row
/// weights `wl`, `wr` on branch `pair`; -1 when there is none (as when
/// either child equals no recorded node, tl or tr = -1).
int recorded_merge(const MergeRecord& first, int tl, int tr,
                   const Alignment& left, const Alignment& right,
                   std::span<const double> wl, std::span<const double> wr,
                   bool pair, const bio::SubstitutionMatrix& matrix) {
  if (tl < 0 || tr < 0) return -1;
  const auto node = [&](int id) -> const TreeNode& {
    return first.tree.node(static_cast<std::size_t>(id));
  };
  const int u = node(tl).parent;
  if (u < 0 || node(u).left != tl || node(u).right != tr) return -1;
  const bool recorded_pair =
      node(tl).left < 0 && node(tr).left < 0 &&
      sequence_pair_merge(left, right,
                          weight_of(first.weights, node(tl).leaf_index),
                          weight_of(first.weights, node(tr).leaf_index),
                          matrix, first.gaps, 0);
  if (pair != recorded_pair) return -1;
  if (!pair && (!same_profile_weights(first, tl, wl) ||
                !same_profile_weights(first, tr, wr)))
    return -1;
  return u;
}

/// progressive_align, recording every merge into `record` and replaying
/// merges from `first` when they are given.
Alignment run_progressive(std::span<const bio::Sequence> seqs,
                          const GuideTree& tree,
                          const bio::SubstitutionMatrix& matrix,
                          const ProgressiveOptions& opts, MergeRecord* record,
                          const MergeRecord* first, std::size_t* replayed) {
  if (seqs.empty())
    throw std::invalid_argument("progressive_align: no sequences");
  if (tree.num_leaves() != seqs.size())
    throw std::invalid_argument("progressive_align: tree/sequence mismatch");
  if (!opts.weights.empty() && opts.weights.size() != seqs.size())
    throw std::invalid_argument("progressive_align: weight count mismatch");

  // Partial alignments per tree node, freed as soon as they are merged.
  std::vector<Alignment> partial(tree.num_nodes());
  // Per-node row weights aligned with each partial alignment's row order.
  std::vector<std::vector<double>> row_weights(tree.num_nodes());

  // A recorded or replayed path is the one the full, unbanded DP takes.
  const bool unbanded = opts.band == 0 && !opts.band_provider;
  // Merges finish in any order, so each keeps its runs apart until the
  // pass ends.
  const bool recording = record != nullptr && unbanded;
  std::vector<std::vector<std::uint32_t>> paths(
      recording ? tree.num_nodes() : 0);
  const bool replaying =
      first != nullptr && unbanded && first->matrix == &matrix &&
      first->gaps.open == opts.gaps.open &&
      first->gaps.extend == opts.gaps.extend &&
      first->offsets.size() ==
          first->tree.num_nodes() - first->tree.num_leaves() + 1;
  // twin[v]: the recorded node whose alignment equals node v's, or -1.
  std::vector<int> twin(replaying ? tree.num_nodes() : 0, -1);
  std::vector<int> recorded_leaf(replaying ? seqs.size() : 0, -1);
  for (std::size_t i = 0; replaying && i < first->tree.num_leaves(); ++i)
    recorded_leaf[static_cast<std::size_t>(first->tree.node(i).leaf_index)] =
        static_cast<int>(i);

  // Each node is one task of the dependency-counting schedule: leaves are
  // trivial conversions, internal nodes merge their two (completed)
  // children. A task touches only its own node's slots (partial,
  // row_weights, paths, twin) and reads its children's, so results are
  // bit-identical for every thread count — the merge at a node is a pure
  // function of the children's alignments, which never depend on execution
  // order.
  schedule_tree(tree, opts.threads, [&](int id) {
    const TreeNode& nd = tree.node(static_cast<std::size_t>(id));
    auto& slot = partial[static_cast<std::size_t>(id)];
    if (tree.is_leaf(static_cast<std::size_t>(id))) {
      slot = Alignment::from_sequence(
          seqs[static_cast<std::size_t>(nd.leaf_index)]);
      row_weights[static_cast<std::size_t>(id)] = {
          weight_of(opts.weights, nd.leaf_index)};
      if (replaying)
        twin[static_cast<std::size_t>(id)] =
            recorded_leaf[static_cast<std::size_t>(nd.leaf_index)];
      return;
    }

    Alignment& left = partial[static_cast<std::size_t>(nd.left)];
    Alignment& right = partial[static_cast<std::size_t>(nd.right)];
    auto& wl = row_weights[static_cast<std::size_t>(nd.left)];
    auto& wr = row_weights[static_cast<std::size_t>(nd.right)];

    ProfileAlignOptions po;
    po.gaps = opts.gaps;
    po.band = opts.band_provider ? opts.band_provider(left, right) : opts.band;

    const bool pair = sequence_pair_merge(left, right, wl.front(), wr.front(),
                                          matrix, po.gaps, po.band);
    const int u =
        replaying ? recorded_merge(*first,
                                   twin[static_cast<std::size_t>(nd.left)],
                                   twin[static_cast<std::size_t>(nd.right)],
                                   left, right, wl, wr, pair, matrix)
                  : -1;
    std::vector<align::EditOp> ops;
    if (u >= 0) {
      ops = recorded_path(*first, u);
      twin[static_cast<std::size_t>(id)] = u;
    } else if (pair) {
      ops = align::engine::global_align(left.row(0).cells, right.row(0).cells,
                                        matrix, po.gaps)
                .ops;
    } else {
      const Profile pl(left, matrix, wl);
      const Profile pr(right, matrix, wr);
      ops = align_profiles(pl, pr, po).ops;
    }
    if (recording) append_runs(ops, paths[static_cast<std::size_t>(id)]);
    slot = merge_alignments(left, right, ops);

    auto& w = row_weights[static_cast<std::size_t>(id)];
    w.reserve(wl.size() + wr.size());
    w.insert(w.end(), wl.begin(), wl.end());
    w.insert(w.end(), wr.begin(), wr.end());

    // Free children eagerly; large runs hold O(live frontier) partials only.
    left = Alignment{};
    right = Alignment{};
    wl.clear();
    wr.clear();
  });

  if (record != nullptr) {
    record->matrix = &matrix;
    record->gaps = opts.gaps;
    record->runs.clear();
    record->offsets.clear();
    if (recording) {
      std::size_t total = 0;
      for (const auto& p : paths) total += p.size();
      record->runs.reserve(total);
      record->offsets.reserve(tree.num_nodes() - tree.num_leaves() + 1);
      record->offsets.push_back(0);
      for (std::size_t v = tree.num_leaves(); v < tree.num_nodes(); ++v) {
        record->runs.insert(record->runs.end(), paths[v].begin(),
                            paths[v].end());
        record->offsets.push_back(
            static_cast<std::uint32_t>(record->runs.size()));
      }
    }
  }
  if (replayed != nullptr) {
    *replayed = 0;
    for (std::size_t v = tree.num_leaves(); v < twin.size(); ++v)
      if (twin[v] >= 0) ++*replayed;
  }
  return partial[static_cast<std::size_t>(tree.root())];
}

}  // namespace

Alignment progressive_align(std::span<const bio::Sequence> seqs,
                            const GuideTree& tree,
                            const bio::SubstitutionMatrix& matrix,
                            const ProgressiveOptions& opts,
                            MergeRecord* record) {
  return run_progressive(seqs, tree, matrix, opts, record, nullptr, nullptr);
}

Alignment progressive_realign(std::span<const bio::Sequence> seqs,
                              const GuideTree& tree,
                              const bio::SubstitutionMatrix& matrix,
                              const ProgressiveOptions& opts,
                              const MergeRecord& first, std::size_t* replayed) {
  if (first.tree.num_leaves() != seqs.size())
    throw std::invalid_argument(
        "progressive_realign: record/sequence mismatch");
  return run_progressive(seqs, tree, matrix, opts, nullptr, &first, replayed);
}

}  // namespace salign::msa
