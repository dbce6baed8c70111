#pragma once

#include "bio/substitution_matrix.hpp"
#include "msa/msa_algorithm.hpp"

namespace salign::msa {

/// Configuration of the ProbCons-style aligner.
struct ProbConsOptions {
  /// Rounds of the probabilistic consistency transform
  /// P'(x,y) = (1/N) Σ_z P(x,z)·P(z,y). ProbCons defaults to 2.
  int consistency_reps = 2;
  /// Random-bipartition iterative-refinement passes over the final
  /// alignment (ProbCons stage 4); each pass re-aligns a random row split
  /// under the posterior objective and accepts unconditionally.
  int refine_passes = 2;
  /// Worker threads of the stage-1 posterior/distance pass and of the
  /// stage-4 progressive MEA merge schedule (1 = serial). Each pair's
  /// posterior is independent and each merge is a pure function of its
  /// children, so any value produces bit-identical alignments.
  unsigned threads = 1;
};

/// "MiniProbCons": a from-scratch reimplementation of the ProbCons pipeline
/// (Do, Mahabhashyam, Brudno & Batzoglou, Genome Res. 2005), the
/// probabilistic-consistency family the paper's introduction cites among
/// the dominant MSA heuristics:
///
///   1. pair-HMM posterior match probabilities for every pair
///      (forward-backward, sparsified);
///   2. expected-accuracy distances -> UPGMA guide tree;
///   3. probabilistic consistency transform (sparse matrix products),
///      `consistency_reps` rounds;
///   4. progressive alignment maximizing the sum of matched posteriors
///      (gap moves are free — the maximum-expected-accuracy objective);
///   5. random-bipartition iterative refinement under the same objective.
///
/// The pair-HMM runs at its default PairHmmParams. Posterior storage is
/// O(N² L), so inputs over kMaxConsistencySequences sequences are rejected.
///
/// This is an extension beyond the paper's Table 2 set: it exercises the
/// Sample-Align-D pipeline with a consistency-based local aligner and
/// provides the strongest sequential quality baseline in the library.
class ProbConsAligner final : public MsaAlgorithm {
 public:
  explicit ProbConsAligner(ProbConsOptions options = {},
                           const bio::SubstitutionMatrix& matrix =
                               bio::SubstitutionMatrix::blosum62());

  [[nodiscard]] Alignment align(
      std::span<const bio::Sequence> seqs) const override;

  [[nodiscard]] std::string name() const override { return "MiniProbCons"; }

  [[nodiscard]] const ProbConsOptions& options() const { return options_; }

 private:
  ProbConsOptions options_;
  const bio::SubstitutionMatrix* matrix_;
};

}  // namespace salign::msa
