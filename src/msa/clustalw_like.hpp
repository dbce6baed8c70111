#pragma once

#include "bio/substitution_matrix.hpp"
#include "msa/msa_algorithm.hpp"

namespace salign::msa {

/// Configuration of the CLUSTALW-style aligner.
struct ClustalWOptions {
  /// Worker threads of the stage-1 distance matrix and of the stage-4
  /// progressive merge schedule (1 = serial). Any value produces
  /// bit-identical alignments — both passes are deterministic.
  unsigned threads = 1;
};

/// "MiniClustal": a from-scratch CLUSTALW-style progressive aligner
/// (Thompson, Higgins & Gibson 1994) — the classic baseline of the paper's
/// Table 2 and of its running-time comparisons:
///
///   1. all-pairs global alignment -> fractional identity -> Kimura
///      distances (the expensive O(N^2 L^2) stage the paper contrasts with
///      k-mer ranking);
///   2. neighbor-joining guide tree;
///   3. sequence weighting (Thompson et al. branch-proportional weights);
///   4. progressive profile alignment.
class ClustalWAligner final : public MsaAlgorithm {
 public:
  explicit ClustalWAligner(ClustalWOptions options = {},
                           const bio::SubstitutionMatrix& matrix =
                               bio::SubstitutionMatrix::blosum62());

  [[nodiscard]] Alignment align(
      std::span<const bio::Sequence> seqs) const override;

  [[nodiscard]] std::string name() const override { return "MiniClustal"; }

 private:
  ClustalWOptions options_;
  const bio::SubstitutionMatrix* matrix_;
};

}  // namespace salign::msa
