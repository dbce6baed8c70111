#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/matrix.hpp"

namespace salign::msa {

/// Node of a rooted binary guide tree. Leaves are nodes [0, num_leaves);
/// internal nodes follow in creation order; the last node is the root.
struct TreeNode {
  int left = -1;          ///< child index, -1 for leaves
  int right = -1;
  int parent = -1;
  double left_length = 0.0;   ///< branch length to left child
  double right_length = 0.0;
  double height = 0.0;        ///< ultrametric height (UPGMA) or 0 (NJ)
  int leaf_index = -1;        ///< original sequence index for leaves
};

/// Rooted binary guide tree for progressive alignment.
///
/// Two standard constructions are provided:
///  - UPGMA (used by the MUSCLE-style aligner; Edgar 2004 builds its trees
///    from k-mer distances with UPGMA),
///  - Neighbor-joining re-rooted at the midpoint of the last join (used by
///    the CLUSTALW-style baseline; Thompson et al. 1994).
/// Tie-breaks are deterministic, so every aligner built on top is
/// reproducible. UPGMA's ties: the global arg-min over the cached
/// nearest-neighbour distances takes the lowest slot; a nearest neighbour,
/// when computed from scratch, is the lowest slot at the smallest distance,
/// and a cached one is replaced only by a strictly smaller distance. A
/// merged cluster takes the lower slot of its pair.
class GuideTree {
 public:
  /// Builds the tree inside `distances`, which it takes by value: callers
  /// that move their matrix in hold one N^2 array, not two. Throws
  /// std::invalid_argument on an empty matrix, or on a distance that is
  /// NaN or infinite at float precision.
  static GuideTree upgma(util::SymmetricMatrix<double> distances);
  static GuideTree neighbor_joining(
      const util::SymmetricMatrix<double>& distances);

  /// Reassembles a tree from its node array (the msa_serialize codec's
  /// counterpart of node()/num_leaves()/root()). Throws std::invalid_argument
  /// on inconsistent shape.
  static GuideTree from_nodes(std::vector<TreeNode> nodes,
                              std::size_t num_leaves, int root);

  [[nodiscard]] std::size_t num_leaves() const { return num_leaves_; }
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] int root() const { return root_; }
  [[nodiscard]] const TreeNode& node(std::size_t i) const { return nodes_[i]; }
  [[nodiscard]] bool is_leaf(std::size_t i) const {
    return nodes_[i].left < 0;
  }

  /// Children-before-parents order (leaves included), ending at the root.
  [[nodiscard]] std::vector<int> postorder() const;

  /// Leaf indices (original sequence indices) under node `i`.
  [[nodiscard]] std::vector<int> leaves_under(int i) const;

  /// CLUSTALW-style sequence weights: each leaf accumulates, over the edges
  /// on its path to the root, edge_length / number_of_leaves_below_edge.
  /// Weights are normalized to mean 1; degenerate trees fall back to
  /// uniform.
  [[nodiscard]] std::vector<double> leaf_weights() const;

  /// Newick rendering with the given leaf names (diagnostics/examples).
  [[nodiscard]] std::string newick(std::span<const std::string> names) const;

 private:
  std::vector<TreeNode> nodes_;
  std::size_t num_leaves_ = 0;
  int root_ = -1;
};

}  // namespace salign::msa
