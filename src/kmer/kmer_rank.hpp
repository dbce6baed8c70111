#pragma once

#include <span>
#include <vector>

#include "kmer/kmer_profile.hpp"
#include "util/matrix.hpp"

namespace salign::kmer {

/// k-mer rank of a sequence given its mean similarity D to a reference set:
///
///   R = -ln(0.1 + D)
///
/// The paper prints "R = log(0.1 + D)", but its Table 1 statistics
/// (max 1.448, mean 0.72) only fit the negated natural log — which is exactly
/// Edgar's k-mer *distance* transform d = -ln(0.1 + F) (NAR 2004) that the
/// paper cites for the rank definition. We therefore implement the negated
/// form.
/// R ranges in [-ln(1.1), -ln(0.1)] ~ [-0.0953, 2.3026]; low rank means
/// similar-to-everything, high rank means divergent.
[[nodiscard]] double rank_from_mean_similarity(double mean_similarity);

/// Centralized ranks: every sequence ranked against the full set. This is
/// the O(N^2 L) reference the paper compares its sampling scheme to (Fig 1
/// "centralized").
[[nodiscard]] std::vector<double> centralized_ranks(
    std::span<const bio::Sequence> seqs, const KmerParams& params);

/// Globalized ranks: every sequence ranked against a (small) sample set that
/// stands in for the full population (Fig 1 "globalized"). This is the rank
/// the distributed pipeline computes after the sample-exchange round.
[[nodiscard]] std::vector<double> globalized_ranks(
    std::span<const bio::Sequence> seqs,
    std::span<const bio::Sequence> samples, const KmerParams& params);

/// Same, but with pre-built profiles (the pipeline builds the sample
/// profiles once for every rank). Element i is rank_from_mean_similarity of
/// the mean of seqs[i].similarity(r) over refs (self-comparisons included,
/// as in the paper's D_i = (1/N) sum_j r_ij; 0 for no refs), bit for bit:
/// each seqs[i] is scattered once into a dense k-mer table and every ref
/// probes it, summed in ref order.
[[nodiscard]] std::vector<double> ranks_against(
    std::span<const KmerProfile> seqs, std::span<const KmerProfile> refs);

/// Pairwise k-mer distance matrix d = 1 - r, the guide-tree input of the
/// MUSCLE- and MAFFT-style aligners' first iteration. Pairs are scored by
/// the same dense-table kernel as ranks_against and split evenly over
/// `threads` workers (util::parallel_for); every entry equals
/// 1 - KmerProfile::similarity bit for bit, for any thread count.
[[nodiscard]] util::SymmetricMatrix<double> distance_matrix(
    std::span<const bio::Sequence> seqs, const KmerParams& params,
    unsigned threads = 1);

}  // namespace salign::kmer
