#include "msa/polish.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "msa/profile.hpp"
#include "msa/profile_align.hpp"
#include "msa/scoring.hpp"

namespace salign::msa {

namespace {

using align::EditOp;

/// Re-inserts row `row_index`'s re-aligned version into `rest` (the
/// alignment of all other rows, in their original relative order) and
/// restores the original row order.
Alignment reassemble(const Alignment& rest, const Alignment& row_aln,
                     std::span<const EditOp> ops, std::size_t row_index) {
  const Alignment merged = merge_alignments(rest, row_aln, ops);
  // merged rows: rest rows in order, then the polished row last.
  std::vector<std::size_t> order;
  order.reserve(merged.num_rows());
  for (std::size_t r = 0; r < row_index; ++r) order.push_back(r);
  order.push_back(merged.num_rows() - 1);
  for (std::size_t r = row_index; r + 1 < merged.num_rows(); ++r)
    order.push_back(r);
  return merged.subset(order);
}

}  // namespace

std::vector<double> row_profile_scores(const Alignment& aln,
                                       const bio::SubstitutionMatrix& matrix) {
  if (aln.empty()) return {};
  const Profile prof(aln, matrix);
  std::vector<double> scores(aln.num_rows(), 0.0);
  for (std::size_t r = 0; r < aln.num_rows(); ++r) {
    double total = 0.0;
    std::size_t residues = 0;
    for (std::size_t c = 0; c < aln.num_cols(); ++c) {
      const std::uint8_t code = aln.cell(r, c);
      if (code == Alignment::kGap) continue;
      ++residues;
      // Mean substitution score of this residue against the column's
      // residue distribution (the row's own mass included; the bias is
      // uniform across rows, which is all ranking needs).
      double col = 0.0;
      for (int a = 0; a < prof.alphabet_size(); ++a) {
        const float f = prof.freq(c, static_cast<std::uint8_t>(a));
        if (f > 0.0F)
          col += static_cast<double>(f) *
                 matrix.score(code, static_cast<std::uint8_t>(a));
      }
      total += col;
    }
    scores[r] = residues > 0 ? total / static_cast<double>(residues)
                             : -std::numeric_limits<double>::infinity();
  }
  return scores;
}

std::size_t polish_divergent_rows(Alignment& aln,
                                  const bio::SubstitutionMatrix& matrix,
                                  const PolishOptions& opts) {
  if (opts.fraction < 0.0 || opts.fraction > 1.0)
    throw std::invalid_argument("polish: fraction must be in [0, 1]");
  if (opts.passes < 0)
    throw std::invalid_argument("polish: passes must be >= 0");
  if (aln.num_rows() < 3) return 0;  // leave-one-out needs a meaningful rest

  std::size_t accepted = 0;
  for (int pass = 0; pass < opts.passes; ++pass) {
    const std::vector<double> scores = row_profile_scores(aln, matrix);
    std::vector<std::size_t> order(aln.num_rows());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (scores[a] != scores[b]) return scores[a] < scores[b];
      return a < b;
    });

    std::size_t take = static_cast<std::size_t>(
        opts.fraction * static_cast<double>(aln.num_rows()));
    take = std::max<std::size_t>(take, 1);
    if (opts.max_rows > 0) take = std::min(take, opts.max_rows);
    order.resize(take);
    std::sort(order.begin(), order.end());  // deterministic sweep order

    std::size_t accepted_this_pass = 0;
    for (const std::size_t r : order) {
      // Split: row r vs the rest (original relative order preserved).
      std::vector<std::size_t> rest_rows;
      rest_rows.reserve(aln.num_rows() - 1);
      for (std::size_t i = 0; i < aln.num_rows(); ++i)
        if (i != r) rest_rows.push_back(i);

      Alignment rest = aln.subset(rest_rows);
      rest.strip_all_gap_columns();
      Alignment row_aln = aln.subset(std::vector<std::size_t>{r});
      row_aln.strip_all_gap_columns();
      if (row_aln.num_cols() == 0) continue;

      const Profile prest(rest, matrix);
      const Profile prow(row_aln, matrix);
      ProfileAlignOptions po;
      po.gaps = opts.gaps;

      // Propose a new placement with the PSP aligner, but gate acceptance
      // on the alignment's real objective — the sum-of-pairs score ("score
      // of the global map", paper §2.2). Only the pairs touching row r
      // change: reassembly inserts identical gap columns into every rest
      // row, which is invisible to their induced pairwise alignments.
      const ProfileAlignResult fresh = align_profiles(prest, prow, po);

      double old_contrib = 0.0;
      for (std::size_t o = 0; o < aln.num_rows(); ++o)
        if (o != r)
          old_contrib += induced_pair_score(aln, r, o, matrix, opts.gaps);

      Alignment candidate = reassemble(rest, row_aln, fresh.ops, r);
      candidate.strip_all_gap_columns();
      double new_contrib = 0.0;
      for (std::size_t o = 0; o < candidate.num_rows(); ++o)
        if (o != r)
          new_contrib +=
              induced_pair_score(candidate, r, o, matrix, opts.gaps);

      if (new_contrib > old_contrib + kPolishMinGain) {
        aln = std::move(candidate);
        ++accepted;
        ++accepted_this_pass;
      }
    }
    if (accepted_this_pass == 0) break;  // converged
  }
  return accepted;
}

}  // namespace salign::msa
