#pragma once

#include "bio/substitution_matrix.hpp"
#include "msa/msa_algorithm.hpp"

namespace salign::msa {

/// Configuration of the MAFFT-style aligner.
struct MafftOptions {
  /// FFT anchoring on (FFT-NS-i) or off (NW-NS-i). With anchoring on, each
  /// progressive merge correlates residue-property signals (volume and
  /// polarity channels, Katoh et al. 2002) of the two group consensus
  /// profiles via FFT; a sharp correlation peak near the main diagonal
  /// permits a narrow DP band, cutting the merge cost from O(L^2) to
  /// O(L * band).
  bool use_fft = true;
  /// Iterative refinement sweeps (the "-i" suffix in FFTNSI/NWNSI).
  int refine_passes = 2;
  /// Worker threads (1 = serial) of the k-mer distance pass and the
  /// progressive merge schedule (the FFT band provider is pure, so
  /// concurrent merges are safe). Any value produces bit-identical
  /// alignments.
  unsigned threads = 1;
};

/// "MiniMafft": a from-scratch MAFFT-style aligner (Katoh, Misawa, Kuma &
/// Miyata, NAR 2002), providing the Table 2 comparators FFTNSI (use_fft =
/// true) and NWNSI (use_fft = false): k-mer distances -> UPGMA ->
/// progressive alignment (FFT-banded or full DP) -> iterative refinement.
class MafftAligner final : public MsaAlgorithm {
 public:
  explicit MafftAligner(MafftOptions options = {},
                        const bio::SubstitutionMatrix& matrix =
                            bio::SubstitutionMatrix::blosum62());

  [[nodiscard]] Alignment align(
      std::span<const bio::Sequence> seqs) const override;

  /// "FFTNSI" / "NWNSI" (trailing I dropped when refine_passes == 0),
  /// matching the paper's Table 2 row labels.
  [[nodiscard]] std::string name() const override;

 private:
  MafftOptions options_;
  const bio::SubstitutionMatrix* matrix_;
};

}  // namespace salign::msa
