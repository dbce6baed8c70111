#pragma once

#include "bio/substitution_matrix.hpp"
#include "msa/msa_algorithm.hpp"

namespace salign::msa {

/// Configuration of the T-Coffee-style aligner.
struct TCoffeeOptions {
  /// Worker threads of the stage-1 pairwise library/distance pass and of
  /// the stage-3 progressive merge schedule (1 = serial). The library is
  /// assembled serially in deterministic pair order and each merge is a
  /// pure function of its children, so any value produces bit-identical
  /// alignments.
  unsigned threads = 1;
};

/// "MiniCoffee": a from-scratch consistency-based aligner following
/// T-Coffee (Notredame, Higgins & Heringa, JMB 2000), a Table 2 comparator:
///
///   1. primary library: every pair aligned globally and locally (T-Coffee
///      mixes ClustalW + Lalign sources; we use our own kernels); each
///      aligned residue pair enters the library weighted by the alignment's
///      percent identity;
///   2. library extension through intermediate sequences
///      (min-of-two-weights triplet rule);
///   3. progressive alignment maximizing extended-library consistency
///      instead of substitution scores.
///
/// Inputs over kMaxConsistencySequences sequences are rejected.
class TCoffeeAligner final : public MsaAlgorithm {
 public:
  explicit TCoffeeAligner(TCoffeeOptions options = {},
                          const bio::SubstitutionMatrix& matrix =
                              bio::SubstitutionMatrix::blosum62());

  [[nodiscard]] Alignment align(
      std::span<const bio::Sequence> seqs) const override;

  [[nodiscard]] std::string name() const override { return "MiniCoffee"; }

 private:
  TCoffeeOptions options_;
  const bio::SubstitutionMatrix* matrix_;
};

}  // namespace salign::msa
