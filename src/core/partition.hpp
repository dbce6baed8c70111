#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace salign::core {

/// Regular-sampling partition machinery (Shi & Schaeffer, JPDC 1992) — the
/// SampleSort-derived heart of Sample-Align-D. The pipeline keys sequences
/// by k-mer rank; the tests drive the same functions over plain doubles,
/// which validates the bucket bound and ordering independently of the
/// biology.

/// Chooses `count` evenly spaced samples from an ascending key list
/// (the paper's "choose p-1 evenly spaced samples from the locally sorted
/// list"). Returns fewer when keys.size() < count.
[[nodiscard]] std::vector<double> regular_samples(
    std::span<const double> sorted_keys, std::size_t count);

/// Selects the p-1 PSRS pivots from the gathered sample multiset: the
/// samples are sorted and elements at positions p/2 + i*p (i = 0..p-2) are
/// taken — the paper's "Y_{p/2}, Y_{p+p/2}, ..., Y_{(p-2)p+p/2}".
/// `samples` is consumed (sorted in place).
[[nodiscard]] std::vector<double> choose_pivots(std::vector<double> samples,
                                                int p);

/// Bucket of a key given ascending pivots: index of the first pivot >= key
/// (keys equal to a pivot land in the lower bucket, matching the paper's
/// "rank in the range of bucket i").
[[nodiscard]] std::size_t bucket_of(double key,
                                    std::span<const double> pivots);

/// Counts per bucket for a key set (diagnostics; the tests check the
/// regular-sampling guarantee that no bucket exceeds 2N/p for distinct
/// keys).
[[nodiscard]] std::vector<std::size_t> bucket_histogram(
    std::span<const double> keys, std::span<const double> pivots);

}  // namespace salign::core
