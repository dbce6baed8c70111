#pragma once

// Reference k-mer counting and set similarity, built into the tests-only
// salign_test_oracles library (see kmer.cpp).

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bio/sequence.hpp"
#include "kmer/kmer_profile.hpp"

namespace salign::kmer::reference {

/// Sorted (k-mer id, count) pairs of `seq`, the multiset KmerProfile::counts()
/// must hold in some order: every window's bit-packed id built from scratch,
/// windows containing the wildcard skipped, then sorted and grouped.
[[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>>
sorted_counts(const bio::Sequence& seq, const KmerParams& params);

/// r(x, y) as KmerProfile::similarity defines it, through a sorted merge of
/// the two count vectors: the same shared-k-mer integer over the same
/// denominator, found without a dense table.
[[nodiscard]] double similarity(const KmerProfile& x, const KmerProfile& y);

/// Mean k-mer similarity of `x` against every profile in `refs`
/// (self-comparisons included, as in the paper's D_i = (1/N) sum_j r_ij),
/// summed in ref order through the sorted merge; 0 for no refs. The value
/// kmer::ranks_against feeds to rank_from_mean_similarity.
[[nodiscard]] double mean_similarity(const KmerProfile& x,
                                     std::span<const KmerProfile> refs);

}  // namespace salign::kmer::reference
