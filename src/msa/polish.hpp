#pragma once

#include <cstddef>
#include <vector>

#include "bio/substitution_matrix.hpp"
#include "msa/alignment.hpp"

namespace salign::msa {

/// Minimum sum-of-pairs gain for polish_divergent_rows to accept a
/// re-alignment (guards churn and float noise).
inline constexpr float kPolishMinGain = 1e-4F;

/// Options of the divergent-row polish pass.
struct PolishOptions {
  /// Fraction of rows (the lowest-scoring ones) considered divergent and
  /// re-aligned each pass.
  double fraction = 0.15;
  /// Hard cap on re-aligned rows per pass; 0 = no cap. Large glued
  /// alignments set this to bound the polish cost at O(max_rows · L²).
  std::size_t max_rows = 0;
  /// Sweeps over the divergent set.
  int passes = 1;
  /// Gap penalties of the row-vs-profile re-alignment.
  bio::GapPenalties gaps;
};

/// Per-row fit diagnostic: the occupancy-weighted mean PSP score of the
/// row's residues against the profile of the full alignment, normalized per
/// residue. Low values flag rows the alignment places poorly — the
/// "most divergent families" the paper's §5 says need extra refinement.
[[nodiscard]] std::vector<double> row_profile_scores(
    const Alignment& aln, const bio::SubstitutionMatrix& matrix);

/// Post-alignment refinement for divergent rows (the paper's future-work
/// heuristic, §5): each pass ranks rows by row_profile_scores, takes the
/// worst `fraction` (capped by `max_rows`), and re-aligns each such row
/// against the profile of the remaining rows; a re-alignment is kept only
/// when the sum-of-pairs score of the row's pairs improves by more than
/// kPolishMinGain. Row order and degapped row contents are preserved.
///
/// Returns the number of accepted re-alignments across all passes.
std::size_t polish_divergent_rows(Alignment& aln,
                                  const bio::SubstitutionMatrix& matrix,
                                  const PolishOptions& opts = {});

}  // namespace salign::msa
