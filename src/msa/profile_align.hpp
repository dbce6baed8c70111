#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "align/engine/engine.hpp"
#include "align/pairwise.hpp"
#include "msa/alignment.hpp"
#include "msa/profile.hpp"
#include "util/matrix.hpp"

namespace salign::msa {

/// Options for profile-profile alignment.
struct ProfileAlignOptions {
  bio::GapPenalties gaps;
  /// Diagonal band half-width; 0 means full DP. The MAFFT-style aligner
  /// passes FFT-derived bands here.
  std::size_t band = 0;
  /// Full-traceback cell budget: DPs with (m+1)*(n+1) cells at or below
  /// this keep every cell's traceback decision (one byte a cell); larger
  /// ones switch to checkpointed traceback (row checkpoints every ~sqrt(m)
  /// rows + block recompute), so big-bucket merges never materialize an
  /// O(m·n) trace. 0 = default (engine::kDefaultTraceCells, 4M cells).
  /// Results are identical on both paths.
  /// No production code sets it: it is the test seam through which the
  /// differential tests reach the checkpointed traceback on small inputs.
  std::size_t max_trace_cells = 0;
};

struct ProfileAlignResult {
  float score = 0.0F;
  std::vector<align::EditOp> ops;
};

namespace detail {

/// One nonzero residue frequency of an A column: (residue code, f).
using PspEntry = std::pair<std::uint8_t, float>;

/// PSP row source: fill_row(ca, cb_lo, len, out) writes out[c] = the PSP
/// score of A column ca against B column cb_lo + c, for c in [0, len): the
/// sum over the column's nonzero residues of f * svt(code, cb), as
/// contiguous vectorizable sweeps. A's nonzero frequencies live in one flat
/// array: column ca is entries[offsets[ca], offsets[ca + 1]). The wavefront
/// kernel fills its score blocks through fill_row, and the row-major test
/// oracle (tests/oracles/profile_dp.hpp) its rows, so both see the same
/// floats.
struct PspRowScorer {
  const util::Matrix<float>* svt;  // residue-major B column scores
  std::vector<PspEntry> entries;
  std::vector<std::size_t> offsets;  // A columns + 1

  [[nodiscard]] std::span<const PspEntry> column(std::size_t ca) const {
    return std::span<const PspEntry>(entries).subspan(
        offsets[ca], offsets[ca + 1] - offsets[ca]);
  }
  void fill_row(std::size_t ca, std::size_t cb_lo, std::size_t len,
                float* out) const {
    std::fill_n(out, len, 0.0F);
    for (const auto& [code, f] : column(ca)) {
      const float* sv_row = &(*svt)(code, cb_lo);
      for (std::size_t c = 0; c < len; ++c) out[c] += f * sv_row[c];
    }
  }
};

/// Dense row source: a precomputed column-by-column score matrix times a
/// scale, out[c] = score(ca, cb_lo + c) * scale. T-Coffee's consistency
/// merges run the wavefront kernel on it.
struct DenseRowScorer {
  const util::Matrix<float>* score;
  float scale;

  void fill_row(std::size_t ca, std::size_t cb_lo, std::size_t len,
                float* out) const {
    const float* src = &(*score)(ca, cb_lo);
    for (std::size_t c = 0; c < len; ++c) out[c] = src[c] * scale;
  }
};

/// align_profiles' DP inputs for profiles A and B: the PSP scorer (whose
/// svt points into this object, hence no copy or move) and each side's
/// column occupancies (the gap-penalty scale). Tests and benches hand these
/// to the row-major oracle to compare it with the wavefront kernel
/// align_profiles runs.
struct PspProblem {
  /// Throws std::invalid_argument when the profiles' alphabets differ.
  PspProblem(const Profile& a, const Profile& b);
  PspProblem(const PspProblem&) = delete;
  PspProblem& operator=(const PspProblem&) = delete;

  util::Matrix<float> svt;
  PspRowScorer scorer;
  std::vector<float> occ_a, occ_b;
};

/// The profile DP's result when a side has no columns: one occupancy-scaled
/// gap run through the other (empty when both are). Returns false, leaving
/// `out` untouched, when m >= 1 and n >= 1.
inline bool profile_dp_edge(std::size_t m, std::size_t n,
                            std::span<const float> occ_a,
                            std::span<const float> occ_b,
                            const ProfileAlignOptions& opts,
                            ProfileAlignResult& out) {
  if (m != 0 && n != 0) return false;
  const float open = opts.gaps.open;
  const float ext = opts.gaps.extend;
  if (m == 0) {
    out.ops.assign(n, align::EditOp::GapInA);
    for (std::size_t j = 0; j < n; ++j)
      out.score -= (j == 0 ? open : ext) * occ_b[j];
  } else {
    out.ops.assign(m, align::EditOp::GapInB);
    for (std::size_t i = 0; i < m; ++i)
      out.score -= (i == 0 ? open : ext) * occ_a[i];
  }
  return true;
}

/// The profile DP (profile_dp_simd.cpp): the three-state Gotoh recurrence
/// with gap penalties scaled by the occupancy of the column being consumed,
/// so gaps preferentially stack where the other profile is already gappy
/// (standard PSP treatment), run on the engine's wavefront kernel
/// (align/engine/wavefront.hpp). Materializes dense score rows one row
/// block at a time through scorer.fill_row. Within max_trace_cells it keeps
/// one traceback decision byte per cell; above it, it keeps a checkpoint
/// every ~sqrt(m)-th row and reruns one row block at a time during
/// traceback. Scores, paths and tie-breaks are bit-identical to the
/// row-major oracle in tests/oracles/profile_dp.hpp (pinned by
/// tests/msa_parallel_test.cpp). A side with no columns gives
/// profile_dp_edge's gap run. Instantiated for PspRowScorer
/// (align_profiles) and DenseRowScorer (T-Coffee's consistency merges).
/// Runs the kernel `lanes` wide (see align::engine::kernel_lanes_supported;
/// every width gives the same bits), by default at the process's width.
template <typename RowScorer>
[[nodiscard]] ProfileAlignResult profile_dp_wavefront(
    std::size_t m, std::size_t n, const RowScorer& scorer,
    std::span<const float> occ_a, std::span<const float> occ_b,
    const ProfileAlignOptions& opts,
    int lanes = align::engine::kernel_lanes());

}  // namespace detail

/// Aligns two profiles with the PSP objective; the result path is in column
/// space (Match consumes one column of each).
[[nodiscard]] ProfileAlignResult align_profiles(
    const Profile& a, const Profile& b, const ProfileAlignOptions& opts = {});

/// Scores an existing column path under the same PSP + scaled-affine-gap
/// objective as align_profiles; used by refinement to accept/reject
/// re-alignments against the incumbent.
[[nodiscard]] float score_profile_path(const Profile& a, const Profile& b,
                                       std::span<const align::EditOp> ops,
                                       const ProfileAlignOptions& opts = {});

/// Merges two alignments into one by a column path over (A columns, B
/// columns). Row order: all A rows, then all B rows.
[[nodiscard]] Alignment merge_alignments(const Alignment& a,
                                         const Alignment& b,
                                         std::span<const align::EditOp> ops);

/// Derives the implied column path of a combined alignment split into two
/// row groups: a column with residues only in group A maps to GapInB, only
/// in B to GapInA, in both to Match. Columns empty in both groups are
/// dropped. Inverse of merge_alignments up to all-gap columns.
[[nodiscard]] std::vector<align::EditOp> implied_path(
    const Alignment& aln, std::span<const std::size_t> group_a,
    std::span<const std::size_t> group_b);

}  // namespace salign::msa
