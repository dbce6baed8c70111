#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/partition.hpp"
#include "util/rng.hpp"

namespace salign::core {
namespace {

// ---- regular_samples -------------------------------------------------------------

TEST(RegularSamples, EvenlySpacedFromSortedKeys) {
  std::vector<double> keys(12);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<double>(i);
  const auto s = regular_samples(keys, 3);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[0], 3.0);
  EXPECT_DOUBLE_EQ(s[1], 6.0);
  EXPECT_DOUBLE_EQ(s[2], 9.0);
}

TEST(RegularSamples, UnsortedInputThrows) {
  const std::vector<double> keys{3.0, 1.0};
  EXPECT_THROW((void)regular_samples(keys, 1), std::invalid_argument);
}

TEST(RegularSamples, FewerKeysThanRequested) {
  const std::vector<double> keys{1.0, 2.0};
  const auto s = regular_samples(keys, 5);
  EXPECT_EQ(s.size(), 2u);
}

TEST(RegularSamples, EmptyInput) {
  EXPECT_TRUE(regular_samples({}, 3).empty());
  const std::vector<double> keys{1.0};
  EXPECT_TRUE(regular_samples(keys, 0).empty());
}

TEST(RegularSamples, SamplesAreSortedSubset) {
  util::Rng rng(1);
  std::vector<double> keys(100);
  for (auto& k : keys) k = rng.uniform(0, 10);
  std::sort(keys.begin(), keys.end());
  const auto s = regular_samples(keys, 7);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  for (double v : s)
    EXPECT_TRUE(std::binary_search(keys.begin(), keys.end(), v));
}

// ---- choose_pivots ----------------------------------------------------------------

TEST(ChoosePivots, CountIsPMinusOne) {
  std::vector<double> samples;
  for (int i = 0; i < 12; ++i) samples.push_back(static_cast<double>(i));
  const auto piv = choose_pivots(samples, 4);
  EXPECT_EQ(piv.size(), 3u);
  EXPECT_TRUE(std::is_sorted(piv.begin(), piv.end()));
}

TEST(ChoosePivots, PaperPositions) {
  // p = 4 -> pivots at sorted positions p/2 + i*p = 2, 6, 10.
  std::vector<double> samples;
  for (int i = 0; i < 12; ++i) samples.push_back(static_cast<double>(i) * 10);
  const auto piv = choose_pivots(samples, 4);
  ASSERT_EQ(piv.size(), 3u);
  EXPECT_DOUBLE_EQ(piv[0], 20.0);
  EXPECT_DOUBLE_EQ(piv[1], 60.0);
  EXPECT_DOUBLE_EQ(piv[2], 100.0);
}

TEST(ChoosePivots, SingleProcessorNoPivots) {
  EXPECT_TRUE(choose_pivots({1.0, 2.0}, 1).empty());
}

TEST(ChoosePivots, UnsortedSamplesHandled) {
  const auto piv = choose_pivots({5.0, 1.0, 3.0, 2.0, 4.0, 0.0}, 2);
  ASSERT_EQ(piv.size(), 1u);
  EXPECT_DOUBLE_EQ(piv[0], 1.0);  // position p/2 = 1 in sorted order
}

TEST(ChoosePivots, InvalidPThrows) {
  EXPECT_THROW((void)choose_pivots({1.0}, 0), std::invalid_argument);
}

// ---- bucket_of -----------------------------------------------------------------------

TEST(BucketOf, BoundariesInclusiveBelow) {
  const std::vector<double> pivots{10.0, 20.0};
  EXPECT_EQ(bucket_of(5.0, pivots), 0u);
  EXPECT_EQ(bucket_of(10.0, pivots), 0u);  // equal lands low
  EXPECT_EQ(bucket_of(10.5, pivots), 1u);
  EXPECT_EQ(bucket_of(20.0, pivots), 1u);
  EXPECT_EQ(bucket_of(25.0, pivots), 2u);
}

TEST(BucketOf, NoPivotsSingleBucket) {
  EXPECT_EQ(bucket_of(42.0, {}), 0u);
}

TEST(BucketHistogram, CountsAllKeys) {
  const std::vector<double> pivots{0.5};
  const std::vector<double> keys{0.1, 0.2, 0.9};
  const auto h = bucket_histogram(keys, pivots);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0], 2u);
  EXPECT_EQ(h[1], 1u);
}

// ---- the PSRS 2N/p bound (the paper's §3 guarantee) --------------------------------

/// The distributed pivot selection, run sequentially: split the keys into p
/// blocks, sort each, regular-sample p-1 keys per block, pool, choose.
std::vector<double> psrs_pivots(const std::vector<double>& keys, int p) {
  const std::size_t n = keys.size();
  const std::size_t chunk = (n + static_cast<std::size_t>(p) - 1) /
                            static_cast<std::size_t>(p);
  std::vector<double> pooled;
  for (int r = 0; r < p; ++r) {
    const std::size_t b = std::min(n, static_cast<std::size_t>(r) * chunk);
    const std::size_t e = std::min(n, b + chunk);
    std::vector<double> local(keys.begin() + static_cast<long>(b),
                              keys.begin() + static_cast<long>(e));
    std::sort(local.begin(), local.end());
    const auto samples =
        regular_samples(local, static_cast<std::size_t>(p - 1));
    pooled.insert(pooled.end(), samples.begin(), samples.end());
  }
  return choose_pivots(std::move(pooled), p);
}

/// Distinct keys (the 2N/p bound's precondition): a shuffled permutation.
std::vector<double> distinct_keys(int p) {
  util::Rng rng(static_cast<std::uint64_t>(p) * 7 + 1);
  const std::size_t n = 4000;
  std::vector<double> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = static_cast<double>(i);
  for (std::size_t i = n; i > 1; --i)
    std::swap(keys[i - 1], keys[rng.below(i)]);
  return keys;
}

/// Heavy skew: 80% of the keys share one value.
std::vector<double> duplicate_heavy_keys() {
  util::Rng rng(99);
  std::vector<double> keys;
  for (int i = 0; i < 2000; ++i)
    keys.push_back(rng.chance(0.8) ? 7.0 : rng.uniform(0, 100));
  return keys;
}

class PsrsBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(PsrsBoundTest, NoBucketExceedsTwiceShare) {
  const int p = GetParam();
  const std::vector<double> keys = distinct_keys(p);
  const auto pivots = psrs_pivots(keys, p);
  const auto hist = bucket_histogram(keys, pivots);
  ASSERT_EQ(hist.size(), static_cast<std::size_t>(p));
  const double share = static_cast<double>(keys.size()) / p;
  for (std::size_t b = 0; b < hist.size(); ++b)
    EXPECT_LE(static_cast<double>(hist[b]), 2.0 * share + 1.0)
        << "bucket " << b << " with p=" << p;
}

TEST_P(PsrsBoundTest, BucketsAreOrderedAndCoverEveryKey) {
  const int p = GetParam();
  for (const std::vector<double>& keys :
       {distinct_keys(p), duplicate_heavy_keys()}) {
    const auto pivots = psrs_pivots(keys, p);
    std::vector<std::vector<double>> buckets(static_cast<std::size_t>(p));
    for (double k : keys) buckets.at(bucket_of(k, pivots)).push_back(k);
    // Every key in bucket b is <= every key in any later bucket, so the
    // sorted buckets concatenate to the sorted input.
    std::vector<double> joined;
    for (auto& bucket : buckets) {
      std::sort(bucket.begin(), bucket.end());
      if (!joined.empty() && !bucket.empty()) {
        EXPECT_LE(joined.back(), bucket.front()) << "p=" << p;
      }
      joined.insert(joined.end(), bucket.begin(), bucket.end());
    }
    std::vector<double> expect = keys;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(joined, expect) << "p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Ps, PsrsBoundTest,
                         ::testing::Values(2, 3, 4, 8, 16));

}  // namespace
}  // namespace salign::core
