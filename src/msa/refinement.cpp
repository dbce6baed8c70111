#include "msa/refinement.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "msa/profile.hpp"
#include "msa/profile_align.hpp"
#include "msa/scoring.hpp"

namespace salign::msa {

namespace {

/// Minimum gain, of the PSP objective and of the cross-group SP score, for
/// a re-alignment to be kept (guards float noise and churn).
constexpr float kMinGain = 1e-4F;

std::vector<double> gather_weights(std::span<const double> weights,
                                   std::span<const std::size_t> rows) {
  std::vector<double> out;
  if (weights.empty()) return out;
  out.reserve(rows.size());
  for (std::size_t r : rows) out.push_back(weights[r]);
  return out;
}

}  // namespace

std::size_t refine(Alignment& aln, const GuideTree& tree,
                   std::span<const std::size_t> row_of_leaf,
                   const bio::SubstitutionMatrix& matrix,
                   const RefineOptions& opts,
                   std::span<const double> weights) {
  if (row_of_leaf.size() != tree.num_leaves())
    throw std::invalid_argument("refine: row_of_leaf size mismatch");
  if (!weights.empty() && weights.size() != aln.num_rows())
    throw std::invalid_argument("refine: weights size mismatch");
  if (aln.num_rows() < 2 || tree.num_leaves() < 2) return 0;

  const std::size_t all_rows = aln.num_rows();
  std::size_t accepted = 0;

  for (int pass = 0; pass < opts.passes; ++pass) {
    bool any_accept = false;
    for (int id : tree.postorder()) {
      if (id == tree.root()) continue;

      // Bipartition rows by the edge above node `id`.
      std::vector<std::size_t> group_a;
      for (int leaf : tree.leaves_under(id))
        group_a.push_back(row_of_leaf[static_cast<std::size_t>(leaf)]);
      std::sort(group_a.begin(), group_a.end());
      if (group_a.empty() || group_a.size() == all_rows) continue;

      std::vector<std::size_t> group_b;
      group_b.reserve(all_rows - group_a.size());
      {
        std::size_t ai = 0;
        for (std::size_t r = 0; r < all_rows; ++r) {
          if (ai < group_a.size() && group_a[ai] == r)
            ++ai;
          else
            group_b.push_back(r);
        }
      }

      // Degapped sub-alignments and their profiles.
      Alignment sub_a = aln.subset(group_a);
      Alignment sub_b = aln.subset(group_b);
      sub_a.strip_all_gap_columns();
      sub_b.strip_all_gap_columns();
      const std::vector<double> wa = gather_weights(weights, group_a);
      const std::vector<double> wb = gather_weights(weights, group_b);
      const Profile pa(sub_a, matrix, wa);
      const Profile pb(sub_b, matrix, wb);

      ProfileAlignOptions po;
      po.gaps = opts.gaps;

      const std::vector<align::EditOp> current =
          implied_path(aln, group_a, group_b);
      const float current_score = score_profile_path(pa, pb, current, po);
      const ProfileAlignResult fresh = align_profiles(pa, pb, po);
      if (fresh.score <= current_score + kMinGain) continue;

      // Candidate alignment in the original row order.
      const Alignment merged = merge_alignments(sub_a, sub_b, fresh.ops);
      std::vector<AlignedRow> rows(all_rows);
      for (std::size_t x = 0; x < group_a.size(); ++x)
        rows[group_a[x]] = merged.row(x);
      for (std::size_t x = 0; x < group_b.size(); ++x)
        rows[group_b[x]] = merged.row(group_a.size() + x);
      Alignment candidate(std::move(rows), aln.alphabet_kind());

      // Gate on the true cross-group SP delta (MUSCLE's own refinement
      // accepts on SP). Only cross-group pairs change under a bipartition
      // re-alignment (within-group columns are carried over verbatim), so
      // the delta needs |A|*|B| induced pair scores, not all pairs.
      double delta = 0.0;
      for (const std::size_t ra : group_a)
        for (const std::size_t rb : group_b)
          delta += induced_pair_score(candidate, ra, rb, matrix, opts.gaps) -
                   induced_pair_score(aln, ra, rb, matrix, opts.gaps);
      if (delta <= kMinGain) continue;

      aln = std::move(candidate);
      ++accepted;
      any_accept = true;
    }
    if (!any_accept) break;  // converged
  }
  return accepted;
}

}  // namespace salign::msa
