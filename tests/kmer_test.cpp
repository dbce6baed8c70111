#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "kmer/kmer_profile.hpp"
#include "kmer/kmer_rank.hpp"
#include "util/rng.hpp"
#include "workload/rose.hpp"

namespace salign::kmer {
namespace {

using bio::Sequence;

KmerParams uncompressed(int k) { return KmerParams{k, false}; }

// ---- KmerProfile --------------------------------------------------------------

TEST(KmerProfile, CountsSimpleKmers) {
  const Sequence s("s", "AAAA");
  const KmerProfile p = KmerProfile::from_sequence(s, uncompressed(2));
  // Windows: AA AA AA -> one distinct k-mer with count 3.
  EXPECT_EQ(p.distinct(), 1u);
  EXPECT_EQ(p.counts()[0].second, 3u);
  EXPECT_EQ(p.length(), 4u);
}

TEST(KmerProfile, DistinctKmersSorted) {
  const Sequence s("s", "ACDC");
  const KmerProfile p = KmerProfile::from_sequence(s, uncompressed(2));
  EXPECT_EQ(p.distinct(), 3u);  // AC, CD, DC
  for (std::size_t i = 1; i < p.counts().size(); ++i)
    EXPECT_LT(p.counts()[i - 1].first, p.counts()[i].first);
}

TEST(KmerProfile, ShorterThanKIsEmpty) {
  const Sequence s("s", "AC");
  const KmerProfile p = KmerProfile::from_sequence(s, uncompressed(3));
  EXPECT_EQ(p.distinct(), 0u);
}

TEST(KmerProfile, WildcardWindowsSkipped) {
  const Sequence s("s", "ACXDE");  // windows with X are dropped
  const KmerProfile p = KmerProfile::from_sequence(s, uncompressed(2));
  EXPECT_EQ(p.distinct(), 2u);  // AC and DE only
}

TEST(KmerProfile, CompressionMergesGroupMembers) {
  // I and V share a compressed group: ILIL vs VLVL count identical 2-mers
  // under compression, but differ without it.
  const Sequence a("a", "ILIL");
  const Sequence b("b", "VLVL");
  const KmerProfile ca =
      KmerProfile::from_sequence(a, KmerParams{2, true});
  const KmerProfile cb =
      KmerProfile::from_sequence(b, KmerParams{2, true});
  EXPECT_DOUBLE_EQ(ca.similarity(cb), 1.0);
  const KmerProfile ua = KmerProfile::from_sequence(a, uncompressed(2));
  const KmerProfile ub = KmerProfile::from_sequence(b, uncompressed(2));
  EXPECT_LT(ua.similarity(ub), 1.0);
}

TEST(KmerProfile, InvalidKThrows) {
  const Sequence s("s", "ACDE");
  EXPECT_THROW(KmerProfile::from_sequence(s, KmerParams{0, false}),
               std::invalid_argument);
  EXPECT_THROW(KmerProfile::from_sequence(s, KmerParams{32, false}),
               std::invalid_argument);
}

TEST(KmerProfile, LargeKBeyondBitPackingStillCounts) {
  // k = 7 over uncompressed amino acids needs 35 packed bits, but the exact
  // 21^7 id space still fits 32 bits: the base-N fallback must keep the
  // historically accepted k range working (windows, counts, similarity).
  const Sequence s("s", "ACDEFGHIKLACDEFGHIKL");
  const KmerProfile p = KmerProfile::from_sequence(s, uncompressed(7));
  EXPECT_EQ(p.distinct(), 10u);  // 14 windows; ACDEFGH..KLACDEF repeat once
  std::uint64_t windows = 0;
  for (const auto& [id, count] : p.counts()) windows += count;
  EXPECT_EQ(windows, 14u);
  EXPECT_DOUBLE_EQ(p.similarity(p), 1.0);
}

TEST(KmerProfile, TwoLevelDenseMatchesSortFallback) {
  // Uncompressed amino k >= 4 blows past the one-level dense limit (2^20,
  // 2^25, and the 21^7 base-N space): counting now goes through the
  // two-level block table. Differential against the retained
  // sort-and-group oracle, wildcards included.
  util::Rng rng(0xAB);
  const bio::Alphabet& amino = bio::Alphabet::amino_acid();
  for (int k : {4, 5, 7}) {
    for (int trial = 0; trial < 6; ++trial) {
      const std::size_t len = 1 + rng.below(400);
      std::vector<std::uint8_t> codes(len);
      for (auto& c : codes)
        c = static_cast<std::uint8_t>(
            rng.below(static_cast<std::uint64_t>(amino.size())));  // incl X
      const Sequence s("s", codes, bio::AlphabetKind::AminoAcid);

      const KmerProfile dense =
          KmerProfile::from_sequence(s, uncompressed(k), KmerCountMode::kDense);
      const KmerProfile sorted =
          KmerProfile::from_sequence(s, uncompressed(k), KmerCountMode::kSort);
      const KmerProfile automatic =
          KmerProfile::from_sequence(s, uncompressed(k));
      ASSERT_EQ(dense.distinct(), sorted.distinct())
          << "k=" << k << " trial " << trial;
      for (std::size_t i = 0; i < dense.counts().size(); ++i) {
        ASSERT_EQ(dense.counts()[i], sorted.counts()[i])
            << "k=" << k << " trial " << trial << " entry " << i;
        ASSERT_EQ(automatic.counts()[i], sorted.counts()[i])
            << "k=" << k << " trial " << trial << " entry " << i;
      }
    }
  }
}

TEST(KmerProfile, TwoLevelScratchSurvivesReuse) {
  // The two-level scratch persists thread-locally; repeated builds with
  // different sequences must not leak counts between calls.
  util::Rng rng(0xAC);
  const bio::Alphabet& amino = bio::Alphabet::amino_acid();
  for (int round = 0; round < 12; ++round) {
    std::vector<std::uint8_t> codes(64 + rng.below(128));
    for (auto& c : codes)
      c = static_cast<std::uint8_t>(
          rng.below(static_cast<std::uint64_t>(amino.letters())));
    const Sequence s("s", codes, bio::AlphabetKind::AminoAcid);
    const KmerProfile dense =
        KmerProfile::from_sequence(s, uncompressed(5), KmerCountMode::kDense);
    const KmerProfile sorted =
        KmerProfile::from_sequence(s, uncompressed(5), KmerCountMode::kSort);
    ASSERT_EQ(dense.distinct(), sorted.distinct()) << "round " << round;
    for (std::size_t i = 0; i < dense.counts().size(); ++i)
      ASSERT_EQ(dense.counts()[i], sorted.counts()[i]) << "round " << round;
  }
}

TEST(KmerProfile, MismatchedKThrows) {
  const Sequence s("s", "ACDEF");
  const KmerProfile p2 = KmerProfile::from_sequence(s, uncompressed(2));
  const KmerProfile p3 = KmerProfile::from_sequence(s, uncompressed(3));
  EXPECT_THROW((void)p2.similarity(p3), std::invalid_argument);
}

// ---- similarity properties -----------------------------------------------------

TEST(KmerSimilarity, SelfSimilarityIsOne) {
  const Sequence s("s", "ACDEFGHIKLMNPQRSTVWY");
  const KmerProfile p = KmerProfile::from_sequence(s, uncompressed(3));
  EXPECT_DOUBLE_EQ(p.similarity(p), 1.0);
}

TEST(KmerSimilarity, Symmetric) {
  const Sequence a("a", "ACDEFGHIK");
  const Sequence b("b", "ACDWWGHIK");
  const KmerProfile pa = KmerProfile::from_sequence(a, uncompressed(3));
  const KmerProfile pb = KmerProfile::from_sequence(b, uncompressed(3));
  EXPECT_DOUBLE_EQ(pa.similarity(pb), pb.similarity(pa));
}

TEST(KmerSimilarity, DisjointSequencesScoreZero) {
  const Sequence a("a", "AAAAAA");
  const Sequence b("b", "WWWWWW");
  const KmerProfile pa = KmerProfile::from_sequence(a, uncompressed(2));
  const KmerProfile pb = KmerProfile::from_sequence(b, uncompressed(2));
  EXPECT_DOUBLE_EQ(pa.similarity(pb), 0.0);
}

TEST(KmerSimilarity, HandComputedExample) {
  // a = ACAC: 2-mers AC(2) CA(1); b = ACCA: AC(1) CC(1) CA(1).
  // shared = min(2,1)[AC] + min(1,1)[CA] = 2; denom = 4-2+1 = 3.
  const Sequence a("a", "ACAC");
  const Sequence b("b", "ACCA");
  const KmerProfile pa = KmerProfile::from_sequence(a, uncompressed(2));
  const KmerProfile pb = KmerProfile::from_sequence(b, uncompressed(2));
  EXPECT_NEAR(pa.similarity(pb), 2.0 / 3.0, 1e-12);
}

class SimilarityRangeTest : public ::testing::TestWithParam<int> {};

TEST_P(SimilarityRangeTest, AlwaysInUnitInterval) {
  const int k = GetParam();
  util::Rng rng(100 + static_cast<std::uint64_t>(k));
  const auto seqs = workload::rose_sequences(
      {.num_sequences = 20, .average_length = 60, .relatedness = 600,
       .seed = rng.next()});
  const auto profiles = build_profiles(seqs, KmerParams{k, true});
  for (std::size_t i = 0; i < profiles.size(); ++i)
    for (std::size_t j = 0; j < profiles.size(); ++j) {
      const double r = profiles[i].similarity(profiles[j]);
      EXPECT_GE(r, 0.0);
      EXPECT_LE(r, 1.0 + 1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(Ks, SimilarityRangeTest, ::testing::Values(2, 3, 4, 5));

// ---- rank ---------------------------------------------------------------------

TEST(KmerRank, FormulaMatchesDefinition) {
  EXPECT_NEAR(rank_from_mean_similarity(0.0), -std::log(0.1), 1e-12);
  EXPECT_NEAR(rank_from_mean_similarity(1.0), -std::log(1.1), 1e-12);
  EXPECT_NEAR(rank_from_mean_similarity(0.4), -std::log(0.5), 1e-12);
}

TEST(KmerRank, RangeMatchesPaperTable1Scale) {
  // The paper's Table 1 reports ranks in [0, 1.46]; the transform's full
  // codomain is [-ln(1.1), -ln(0.1)] ~ [-0.095, 2.303], which contains it.
  EXPECT_LT(rank_from_mean_similarity(1.0), 0.0);
  EXPECT_GT(rank_from_mean_similarity(0.0), 2.3);
}

TEST(KmerRank, OutOfRangeSimilarityThrows) {
  EXPECT_THROW((void)rank_from_mean_similarity(-0.1), std::invalid_argument);
  EXPECT_THROW((void)rank_from_mean_similarity(1.5), std::invalid_argument);
}

TEST(KmerRank, MonotoneDecreasingInSimilarity) {
  double prev = rank_from_mean_similarity(0.0);
  for (double d = 0.05; d <= 1.0; d += 0.05) {
    const double r = rank_from_mean_similarity(d);
    EXPECT_LT(r, prev);
    prev = r;
  }
}

TEST(KmerRank, CentralizedRanksSizeAndRange) {
  const auto seqs = workload::rose_sequences(
      {.num_sequences = 30, .average_length = 50, .relatedness = 400,
       .seed = 9});
  const auto ranks = centralized_ranks(seqs, KmerParams{});
  ASSERT_EQ(ranks.size(), seqs.size());
  for (double r : ranks) {
    EXPECT_GE(r, -std::log(1.1) - 1e-12);
    EXPECT_LE(r, -std::log(0.1) + 1e-12);
  }
}

TEST(KmerRank, GlobalizedAgainstFullSetEqualsCentralized) {
  // Ranking against a "sample" that is the entire set must reproduce the
  // centralized ranks exactly.
  const auto seqs = workload::rose_sequences(
      {.num_sequences = 25, .average_length = 60, .relatedness = 500,
       .seed = 10});
  const auto central = centralized_ranks(seqs, KmerParams{});
  const auto global = globalized_ranks(seqs, seqs, KmerParams{});
  ASSERT_EQ(central.size(), global.size());
  for (std::size_t i = 0; i < central.size(); ++i)
    EXPECT_NEAR(central[i], global[i], 1e-12);
}

TEST(KmerRank, GlobalizedTracksCentralized) {
  // The paper's Fig 1 claim: sample-based ranks correlate with centralized
  // ranks *when the sample represents the set* — the pipeline guarantees
  // that by regular sampling in rank order (a biased sample, e.g. one
  // clade, does not carry this property). Check rank correlation
  // (Spearman-ish via pairwise order agreement) on a ROSE family.
  const auto seqs = workload::rose_sequences(
      {.num_sequences = 60, .average_length = 80, .relatedness = 700,
       .seed = 11});
  const auto central = centralized_ranks(seqs, KmerParams{});
  std::vector<std::size_t> order(seqs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return central[a] < central[b];
  });
  std::vector<bio::Sequence> sample;
  for (std::size_t i = 0; i < 12; ++i)
    sample.push_back(seqs[order[(i + 1) * seqs.size() / 13]]);
  const auto global = globalized_ranks(seqs, sample, KmerParams{});
  std::size_t agree = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < seqs.size(); ++i)
    for (std::size_t j = i + 1; j < seqs.size(); ++j) {
      if (central[i] == central[j]) continue;
      ++total;
      if ((central[i] < central[j]) == (global[i] < global[j])) ++agree;
    }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(total), 0.7);
}

TEST(KmerRank, RanksAgainstEmptyReference) {
  const Sequence s("s", "ACDEFGH");
  const KmerProfile p = KmerProfile::from_sequence(s, KmerParams{});
  EXPECT_DOUBLE_EQ(mean_similarity(p, {}), 0.0);
}

// ---- distance matrix ------------------------------------------------------------

TEST(KmerDistanceMatrix, PropertiesHold) {
  const auto seqs = workload::rose_sequences(
      {.num_sequences = 15, .average_length = 60, .relatedness = 400,
       .seed = 12});
  const auto d = distance_matrix(seqs, KmerParams{});
  ASSERT_EQ(d.size(), seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_DOUBLE_EQ(d(i, i), 0.0);
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_GE(d(i, j), 0.0);
      EXPECT_LE(d(i, j), 1.0);
      EXPECT_DOUBLE_EQ(d(i, j), d(j, i));
    }
  }
}

TEST(KmerDistanceMatrix, IdenticalSequencesDistanceZero) {
  const std::vector<Sequence> seqs{Sequence("a", "ACDEFGHIKL"),
                                   Sequence("b", "ACDEFGHIKL")};
  const auto d = distance_matrix(seqs, KmerParams{});
  EXPECT_NEAR(d(0, 1), 0.0, 1e-12);
}

TEST(KmerDistanceMatrix, RelatedCloserThanUnrelated) {
  const std::vector<Sequence> seqs{
      Sequence("a", "ACDEFGHIKLMNPQRSTVWY"),
      Sequence("b", "ACDEFGHIKLMNPQRSTVWA"),  // 1 substitution
      Sequence("c", "WYVTSRQPNMLKIHGFEDCA")};  // reversed
  const auto d = distance_matrix(seqs, KmerParams{2, false});
  EXPECT_LT(d(0, 1), d(0, 2));
}

// ---- dense scoring kernel vs the sorted merge -------------------------------------
//
// distance_matrix and the rank functions score through a dense-table kernel
// (or the merge, for id spaces past kDenseTableLimit). Their doubles must be
// bit-identical to nested loops over the single-pair merge, for every
// thread count, alphabet and id encoding.

struct KernelCase {
  const char* name;
  bio::AlphabetKind kind;
  KmerParams params;
};

const KernelCase kKernelCases[] = {
    {"dna k=6", bio::AlphabetKind::Dna, KmerParams{6, false}},
    {"dna k=9 (table at the limit)", bio::AlphabetKind::Dna,
     KmerParams{9, false}},
    {"compressed amino k=4", bio::AlphabetKind::AminoAcid, KmerParams{}},
    {"amino k=2", bio::AlphabetKind::AminoAcid, uncompressed(2)},
    {"amino k=5 (merge)", bio::AlphabetKind::AminoAcid, uncompressed(5)},
    {"amino k=7 (base-N ids, merge)", bio::AlphabetKind::AminoAcid,
     uncompressed(7)},
};

// n seeded sequences: mutated copies of one ancestor (so pairs share
// k-mers, with scattered wildcards), plus some shorter than k and some
// made of wildcards only.
std::vector<Sequence> kernel_set(bio::AlphabetKind kind, int k, std::size_t n,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  const bio::Alphabet& alpha = bio::Alphabet::get(kind);
  const auto letters = static_cast<std::uint64_t>(alpha.letters());
  const auto uk = static_cast<std::uint64_t>(k);
  std::vector<std::uint8_t> ancestor(40 + rng.below(80));
  for (auto& c : ancestor) c = static_cast<std::uint8_t>(rng.below(letters));
  std::vector<Sequence> out;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint8_t> codes;
    if (i % 7 == 3) {
      codes.resize(rng.below(uk));  // shorter than k, possibly empty
      for (auto& c : codes) c = static_cast<std::uint8_t>(rng.below(letters));
    } else if (i % 7 == 5) {
      codes.assign(uk + rng.below(12), alpha.wildcard());
    } else {
      codes.assign(ancestor.begin(),
                   ancestor.end() - static_cast<std::ptrdiff_t>(rng.below(20)));
      for (auto& c : codes) {
        const std::uint64_t roll = rng.below(100);
        if (roll < 15) c = static_cast<std::uint8_t>(rng.below(letters));
        else if (roll < 17) c = alpha.wildcard();
      }
    }
    out.emplace_back("s", std::move(codes), kind);
  }
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<double> merge_ranks(std::span<const KmerProfile> seqs,
                                std::span<const KmerProfile> refs) {
  std::vector<double> out;
  for (const KmerProfile& x : seqs)
    out.push_back(rank_from_mean_similarity(mean_similarity(x, refs)));
  return out;
}

TEST(KmerDenseKernel, MatchesMergeBitForBit) {
  std::uint64_t seed = 0xD15;
  for (const KernelCase& c : kKernelCases) {
    for (const std::size_t n : {0, 1, 2, 3, 37}) {
      const std::vector<Sequence> seqs =
          kernel_set(c.kind, c.params.k, n, ++seed);
      const std::vector<KmerProfile> prof = build_profiles(seqs, c.params);

      // Lower triangle, diagonal included, row by row.
      std::vector<double> want;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < i; ++j)
          want.push_back(1.0 - prof[i].similarity(prof[j]));
        want.push_back(0.0);
      }
      for (const unsigned threads : {1U, 2U, 3U, 4U, 7U}) {
        const auto d = distance_matrix(seqs, c.params, threads);
        ASSERT_EQ(d.size(), n);
        std::vector<double> got;
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j <= i; ++j) got.push_back(d(i, j));
        EXPECT_TRUE(same_bits(got, want))
            << c.name << " n=" << n << " threads=" << threads;
      }

      // Every third sequence as the sample (empty for n = 0).
      std::vector<Sequence> samples;
      std::vector<KmerProfile> sample_prof;
      for (std::size_t i = 0; i < n; i += 3) {
        samples.push_back(seqs[i]);
        sample_prof.push_back(prof[i]);
      }
      EXPECT_TRUE(same_bits(centralized_ranks(seqs, c.params),
                            merge_ranks(prof, prof)))
          << c.name << " n=" << n;
      EXPECT_TRUE(same_bits(globalized_ranks(seqs, samples, c.params),
                            merge_ranks(prof, sample_prof)))
          << c.name << " n=" << n;
      EXPECT_TRUE(same_bits(ranks_against(prof, {}), merge_ranks(prof, {})))
          << c.name << " n=" << n;
    }
  }
}

TEST(KmerDenseKernel, MismatchedKThrows) {
  const Sequence s("s", "ACDEFGHIKL");
  const std::vector<KmerProfile> k3{
      KmerProfile::from_sequence(s, uncompressed(3))};
  const std::vector<KmerProfile> k4{
      KmerProfile::from_sequence(s, uncompressed(4))};
  EXPECT_THROW((void)ranks_against(k3, k4), std::invalid_argument);
}

}  // namespace
}  // namespace salign::kmer
