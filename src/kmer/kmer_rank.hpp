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
/// "centralized"). Profiles are built and scored on `threads` workers; the
/// ranks do not depend on the thread count.
[[nodiscard]] std::vector<double> centralized_ranks(
    std::span<const bio::Sequence> seqs, const KmerParams& params,
    unsigned threads = 1);

/// Globalized ranks: every sequence ranked against a (small) sample set that
/// stands in for the full population (Fig 1 "globalized"). This is the rank
/// the distributed pipeline computes after the sample-exchange round.
/// Threads as in centralized_ranks.
[[nodiscard]] std::vector<double> globalized_ranks(
    std::span<const bio::Sequence> seqs,
    std::span<const bio::Sequence> samples, const KmerParams& params,
    unsigned threads = 1);

/// Same, but with pre-built profiles (the pipeline builds the sample
/// profiles once for every rank). Element i is rank_from_mean_similarity of
/// the mean of seqs[i].similarity(r) over refs (self-comparisons included,
/// as in the paper's D_i = (1/N) sum_j r_ij; 0 for no refs), bit for bit.
///
/// The lane-group kernel: seqs are loaded a group at a time, one per lane of
/// align::engine::VecI16 (8 int16 lanes in vector builds, 1 in the scalar
/// build), into one table whose slot per k-mer id holds the group's counts
/// side by side. One pass over a ref's sparse counts (in any order), one
/// lane-wise min and add per entry, yields the shared-k-mer integer of
/// every lane, which is the integer KmerProfile::similarity finds; each lane
/// sums in ref order. Sets that int16 lanes cannot hold exactly, those with
/// a sequence of more than INT16_MAX windows (length - k + 1), which bound
/// every count and shared sum, score each pair through similarity. Groups
/// are split over `threads` workers (util::parallel_for); the output does
/// not depend on the thread count.
[[nodiscard]] std::vector<double> ranks_against(
    std::span<const KmerProfile> seqs, std::span<const KmerProfile> refs,
    unsigned threads = 1);

/// Pairwise k-mer distance matrix d = 1 - r, the guide-tree input of the
/// MUSCLE- and MAFFT-style aligners' first iteration. Profiles are built on
/// `threads` workers; the lower triangle is walked in row groups through
/// ranks_against's lane-group kernel (same fallback), and the groups
/// are cut into `threads` chunks of about equal pair count whose
/// bounds depend only on (n, threads). Every entry equals
/// 1 - KmerProfile::similarity bit for bit, for any thread count.
[[nodiscard]] util::SymmetricMatrix<double> distance_matrix(
    std::span<const bio::Sequence> seqs, const KmerParams& params,
    unsigned threads = 1);

}  // namespace salign::kmer
