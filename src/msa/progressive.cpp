#include "msa/progressive.hpp"

#include <stdexcept>

#include "msa/tree_schedule.hpp"

namespace salign::msa {

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

    const Profile pl(left, matrix, wl);
    const Profile pr(right, matrix, wr);
    const ProfileAlignResult res = align_profiles(pl, pr, po);
    slot = merge_alignments(left, right, res.ops);

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
