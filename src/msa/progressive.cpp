#include "msa/progressive.hpp"

#include <algorithm>
#include <cmath>
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

}  // namespace

Alignment progressive_align(std::span<const bio::Sequence> seqs,
                            const GuideTree& tree,
                            const bio::SubstitutionMatrix& matrix,
                            const ProgressiveOptions& opts) {
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

  auto weight_of = [&](int leaf) -> double {
    return opts.weights.empty()
               ? 1.0
               : opts.weights[static_cast<std::size_t>(leaf)];
  };

  // Each node is one task of the dependency-counting schedule: leaves are
  // trivial conversions, internal nodes merge their two (completed)
  // children. A task touches only its own node's slots and reads its
  // children's, so results are bit-identical for every thread count — the
  // merge at a node is a pure function of the children's alignments, which
  // never depend on execution order.
  schedule_tree(tree, opts.threads, [&](int id) {
    const TreeNode& nd = tree.node(static_cast<std::size_t>(id));
    auto& slot = partial[static_cast<std::size_t>(id)];
    if (tree.is_leaf(static_cast<std::size_t>(id))) {
      slot = Alignment::from_sequence(
          seqs[static_cast<std::size_t>(nd.leaf_index)]);
      row_weights[static_cast<std::size_t>(id)] = {weight_of(nd.leaf_index)};
      return;
    }

    Alignment& left = partial[static_cast<std::size_t>(nd.left)];
    Alignment& right = partial[static_cast<std::size_t>(nd.right)];
    auto& wl = row_weights[static_cast<std::size_t>(nd.left)];
    auto& wr = row_weights[static_cast<std::size_t>(nd.right)];

    ProfileAlignOptions po;
    po.gaps = opts.gaps;
    po.band = opts.band_provider ? opts.band_provider(left, right) : opts.band;

    if (sequence_pair_merge(left, right, wl.front(), wr.front(), matrix,
                            po.gaps, po.band)) {
      slot = merge_alignments(
          left, right,
          align::engine::global_align(left.row(0).cells, right.row(0).cells,
                                      matrix, po.gaps)
              .ops);
    } else {
      const Profile pl(left, matrix, wl);
      const Profile pr(right, matrix, wr);
      slot = merge_alignments(left, right, align_profiles(pl, pr, po).ops);
    }

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

  return partial[static_cast<std::size_t>(tree.root())];
}

}  // namespace salign::msa
