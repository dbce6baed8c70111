#include "msa/clustalw_like.hpp"

#include <stdexcept>

#include "align/distance.hpp"
#include "msa/guide_tree.hpp"
#include "msa/progressive.hpp"
#include "util/matrix.hpp"

namespace salign::msa {

ClustalWAligner::ClustalWAligner(ClustalWOptions options,
                                 const bio::SubstitutionMatrix& matrix)
    : options_(options), matrix_(&matrix) {}

Alignment ClustalWAligner::align(std::span<const bio::Sequence> seqs) const {
  if (seqs.empty())
    throw std::invalid_argument("ClustalWAligner: no sequences");
  if (seqs.size() == 1) return Alignment::from_sequence(seqs[0]);

  const bio::GapPenalties gaps = matrix_->default_gaps();

  // Stage 1: all-pairs Kimura distances through the batched driver.
  align::PairDistanceOptions pdo;
  pdo.threads = options_.threads;
  const util::SymmetricMatrix<double> d =
      align::alignment_distance_matrix(seqs, *matrix_, gaps, pdo);

  // Stage 2 + 3: NJ tree and branch-proportional weights.
  const GuideTree tree = GuideTree::neighbor_joining(d);
  ProgressiveOptions po;
  po.gaps = gaps;
  po.weights = tree.leaf_weights();
  po.threads = options_.threads;

  // Stage 4: progressive alignment, rows restored to input order.
  Alignment aln =
      in_input_order(progressive_align(seqs, tree, *matrix_, po), seqs);
  aln.validate();
  return aln;
}

}  // namespace salign::msa
