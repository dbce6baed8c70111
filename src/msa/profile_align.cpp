#include "msa/profile_align.hpp"

#include <limits>
#include <stdexcept>

namespace salign::msa {

namespace {

std::vector<float> occupancies(const Profile& p) {
  std::vector<float> occ(p.num_cols());
  for (std::size_t c = 0; c < p.num_cols(); ++c) occ[c] = p.occupancy(c);
  return occ;
}

}  // namespace

detail::PspProblem::PspProblem(const Profile& a, const Profile& b) {
  if (a.alphabet_size() != b.alphabet_size())
    throw std::invalid_argument("align_profiles: alphabet mismatch");
  occ_a = occupancies(a);
  occ_b = occupancies(b);

  // PSP evaluated naively is O(|alphabet|^2) per DP cell. Precomputing, for
  // every column of B, the score vector svT[x][cb] = sum_y g_y(cb) S(x, y)
  // and, for every column of A, its nonzero frequencies, drops the cell
  // cost to O(nnz(A column)) — the same factorization MUSCLE uses. svT is
  // laid out residue-major so that, per DP row, the whole score row over cb
  // builds with nnz contiguous saxpy sweeps the compiler can vectorize,
  // instead of a strided gather per cell.
  const bio::SubstitutionMatrix& m = a.matrix();
  const auto alpha = static_cast<std::size_t>(a.alphabet_size());
  const std::size_t nb = b.num_cols();
  svt = util::Matrix<float>(alpha, nb, 0.0F);
  for (std::size_t cb = 0; cb < nb; ++cb) {
    for (std::size_t y = 0; y < alpha; ++y) {
      const float gy = b.freq(cb, static_cast<std::uint8_t>(y));
      if (gy == 0.0F) continue;
      for (std::size_t x = 0; x < alpha; ++x)
        svt(x, cb) += gy * m.score(static_cast<std::uint8_t>(x),
                                   static_cast<std::uint8_t>(y));
    }
  }

  // The DP fills each row block through fill_row, so one dense saxpy sweep
  // per A column serves every cell of that row and the per-cell read is a
  // plain array load. Term order per cell matches the historical per-cell
  // sparse dot exactly (same partial-sum sequence), so scores are
  // bit-identical.
  scorer = PspRowScorer{&svt, {}, {}};
  scorer.offsets.reserve(a.num_cols() + 1);
  scorer.offsets.push_back(0);
  for (std::size_t ca = 0; ca < a.num_cols(); ++ca) {
    for (std::size_t x = 0; x < alpha; ++x) {
      const float fx = a.freq(ca, static_cast<std::uint8_t>(x));
      if (fx != 0.0F)
        scorer.entries.emplace_back(static_cast<std::uint8_t>(x), fx);
    }
    scorer.offsets.push_back(scorer.entries.size());
  }
}

ProfileAlignResult align_profiles(const Profile& a, const Profile& b,
                                  const ProfileAlignOptions& opts) {
  const detail::PspProblem p(a, b);
  return detail::profile_dp_wavefront(a.num_cols(), b.num_cols(), p.scorer,
                                      p.occ_a, p.occ_b, opts);
}

float score_profile_path(const Profile& a, const Profile& b,
                         std::span<const align::EditOp> ops,
                         const ProfileAlignOptions& opts) {
  using align::EditOp;
  float score = 0.0F;
  std::size_t i = 0;
  std::size_t j = 0;
  EditOp prev = EditOp::Match;
  bool first = true;
  for (EditOp op : ops) {
    switch (op) {
      case EditOp::Match:
        if (i >= a.num_cols() || j >= b.num_cols())
          throw std::invalid_argument("score_profile_path: path overruns");
        score += a.psp(b, i, j);
        ++i;
        ++j;
        break;
      case EditOp::GapInA: {
        if (j >= b.num_cols())
          throw std::invalid_argument("score_profile_path: path overruns B");
        const bool extend = !first && prev == EditOp::GapInA;
        score -= (extend ? opts.gaps.extend : opts.gaps.open) * b.occupancy(j);
        ++j;
        break;
      }
      case EditOp::GapInB: {
        if (i >= a.num_cols())
          throw std::invalid_argument("score_profile_path: path overruns A");
        const bool extend = !first && prev == EditOp::GapInB;
        score -= (extend ? opts.gaps.extend : opts.gaps.open) * a.occupancy(i);
        ++i;
        break;
      }
    }
    prev = op;
    first = false;
  }
  if (i != a.num_cols() || j != b.num_cols())
    throw std::invalid_argument("score_profile_path: path incomplete");
  return score;
}

Alignment merge_alignments(const Alignment& a, const Alignment& b,
                           std::span<const align::EditOp> ops) {
  using align::EditOp;
  if (a.alphabet_kind() != b.alphabet_kind())
    throw std::invalid_argument("merge_alignments: alphabet mismatch");

  // Validate the path once, recording each output column's source column
  // in A and in B (kNone for a gap).
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> src_a(ops.size());
  std::vector<std::size_t> src_b(ops.size());
  std::size_t ca = 0;
  std::size_t cb = 0;
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const bool use_a = ops[k] != EditOp::GapInA;
    const bool use_b = ops[k] != EditOp::GapInB;
    if (use_a && ca >= a.num_cols())
      throw std::invalid_argument("merge_alignments: path overruns A");
    if (use_b && cb >= b.num_cols())
      throw std::invalid_argument("merge_alignments: path overruns B");
    src_a[k] = use_a ? ca++ : kNone;
    src_b[k] = use_b ? cb++ : kNone;
  }
  if (ca != a.num_cols() || cb != b.num_cols())
    throw std::invalid_argument("merge_alignments: path incomplete");

  // Then fill each output row in one pass.
  std::vector<AlignedRow> rows(a.num_rows() + b.num_rows());
  auto fill = [&](AlignedRow& out, const AlignedRow& in,
                  const std::vector<std::size_t>& src) {
    out.id = in.id;
    out.cells.resize(src.size());
    for (std::size_t k = 0; k < src.size(); ++k)
      out.cells[k] = src[k] == kNone ? Alignment::kGap : in.cells[src[k]];
  };
  for (std::size_t r = 0; r < a.num_rows(); ++r) fill(rows[r], a.row(r), src_a);
  for (std::size_t r = 0; r < b.num_rows(); ++r)
    fill(rows[a.num_rows() + r], b.row(r), src_b);
  return Alignment(std::move(rows), a.alphabet_kind());
}

std::vector<align::EditOp> implied_path(const Alignment& aln,
                                        std::span<const std::size_t> group_a,
                                        std::span<const std::size_t> group_b) {
  using align::EditOp;
  std::vector<EditOp> ops;
  ops.reserve(aln.num_cols());
  for (std::size_t c = 0; c < aln.num_cols(); ++c) {
    bool in_a = false;
    bool in_b = false;
    for (std::size_t r : group_a)
      if (!aln.is_gap(r, c)) {
        in_a = true;
        break;
      }
    for (std::size_t r : group_b)
      if (!aln.is_gap(r, c)) {
        in_b = true;
        break;
      }
    if (in_a && in_b)
      ops.push_back(EditOp::Match);
    else if (in_a)
      ops.push_back(EditOp::GapInB);
    else if (in_b)
      ops.push_back(EditOp::GapInA);
    // column empty in both groups: dropped
  }
  return ops;
}

}  // namespace salign::msa
