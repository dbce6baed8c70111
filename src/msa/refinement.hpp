#pragma once

#include <span>
#include <vector>

#include "bio/substitution_matrix.hpp"
#include "msa/alignment.hpp"
#include "msa/guide_tree.hpp"

namespace salign::msa {

/// Options for tree-bipartition iterative refinement (MUSCLE stage 3 /
/// MAFFT's "-i" step).
struct RefineOptions {
  /// Full sweeps over all internal edges.
  int passes = 1;
  bio::GapPenalties gaps;
};

/// Refines `aln` by repeatedly deleting a guide-tree edge, splitting the
/// rows into the two leaf sets, degapping each side and re-aligning the two
/// profiles. The profile DP proposes the re-alignment; it is kept only when
/// its PSP objective improves on the incumbent path's score *and* the
/// cross-group sum-of-pairs score improves too, each by more than 1e-4 to
/// rule out float noise and churn (the SP check costs O(|A|·|B|·cols) per
/// candidate). Row order of `aln` is preserved.
///
/// `tree` must be the guide tree over the same sequences; `row_of_leaf[l]`
/// maps the tree's leaf index `l` to the alignment row carrying that
/// sequence. `weights` are per-row sequence weights (empty = uniform).
/// Returns the number of accepted re-alignments.
std::size_t refine(Alignment& aln, const GuideTree& tree,
                   std::span<const std::size_t> row_of_leaf,
                   const bio::SubstitutionMatrix& matrix,
                   const RefineOptions& opts,
                   std::span<const double> weights = {});

}  // namespace salign::msa
