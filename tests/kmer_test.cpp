#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "kmer/kmer_profile.hpp"
#include "kmer/kmer_rank.hpp"
#include "oracles/kmer.hpp"
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

TEST(KmerProfile, DistinctKmersHaveDistinctIds) {
  const Sequence s("s", "ACDCAC");
  const KmerProfile p = KmerProfile::from_sequence(s, uncompressed(2));
  EXPECT_EQ(p.distinct(), 4u);  // AC(2), CD, DC, CA; in no required order
  std::vector<std::uint32_t> ids;
  for (const auto& [id, count] : p.counts()) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
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

TEST(KmerProfile, KPastDenseTableThrows) {
  // k is bounded by the 2^18 ids of the dense table: 18 / packed_kmer_bits,
  // and the message names that largest k.
  const Sequence dna("d", "ACGTACGTACGTACGT", bio::AlphabetKind::Dna);
  const Sequence amino("a", "ACDEFGHIKLMNPQRSTVWY");
  struct Bound {
    const Sequence* seq;
    bool compressed;
    int max_k;
    int id_bits;  // at max_k
  };
  for (const Bound b : {Bound{&dna, false, 9, 18}, Bound{&amino, true, 4, 16},
                        Bound{&amino, false, 3, 15}}) {
    const KmerProfile p =
        KmerProfile::from_sequence(*b.seq, KmerParams{b.max_k, b.compressed});
    EXPECT_EQ(p.id_space(), 1ULL << b.id_bits) << b.max_k;
    EXPECT_LE(p.id_space(), kDenseTableLimit);
    try {
      (void)KmerProfile::from_sequence(*b.seq,
                                       KmerParams{b.max_k + 1, b.compressed});
      ADD_FAILURE() << "k = " << b.max_k + 1 << " did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "the largest k is " + std::to_string(b.max_k)),
                std::string::npos)
          << e.what();
    }
  }
}

/// A random uncompressed amino sequence of `len` residues; `wildcards`
/// draws the wildcard X too, so some windows are skipped.
Sequence random_amino(util::Rng& rng, std::size_t len, bool wildcards) {
  const bio::Alphabet& amino = bio::Alphabet::amino_acid();
  const auto letters = static_cast<std::uint64_t>(
      wildcards ? amino.size() : amino.letters());
  std::vector<std::uint8_t> codes(len);
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.below(letters));
  return Sequence("s", codes, bio::AlphabetKind::AminoAcid);
}

void expect_reference_counts(const Sequence& s, const KmerParams& params,
                             const std::string& what) {
  const KmerProfile p = KmerProfile::from_sequence(s, params);
  auto got = std::vector(p.counts().begin(), p.counts().end());
  std::sort(got.begin(), got.end());
  ASSERT_EQ(got, reference::sorted_counts(s, params)) << what;
}

TEST(KmerProfile, DenseTableMatchesReferenceCounts) {
  // The dense table on the default compressed alphabet, on plain amino
  // acids and on DNA, reused across calls, wildcards included.
  util::Rng rng(0xAD);
  for (int trial = 0; trial < 6; ++trial) {
    expect_reference_counts(random_amino(rng, 1 + rng.below(600), true),
                            KmerParams{}, "compressed trial " +
                                              std::to_string(trial));
    expect_reference_counts(random_amino(rng, 1 + rng.below(600), true),
                            uncompressed(3), "amino trial " +
                                                 std::to_string(trial));
    std::string dna(1 + rng.below(600), 'A');
    for (char& c : dna) c = "ACGTN"[rng.below(5)];
    expect_reference_counts(
        Sequence("d", dna, bio::AlphabetKind::Dna), uncompressed(6),
        "dna trial " + std::to_string(trial));
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

INSTANTIATE_TEST_SUITE_P(Ks, SimilarityRangeTest, ::testing::Values(1, 2, 3, 4));

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
  EXPECT_DOUBLE_EQ(reference::mean_similarity(p, {}), 0.0);
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

// ---- lane-group scoring kernel vs the sorted merge ---------------------------------
//
// distance_matrix and the rank functions score kLanes profiles at a time
// through an interleaved int16 count table (or KmerProfile::similarity, for
// sequences past INT16_MAX windows). Their doubles, and similarity's, must
// be bit-identical to nested loops over the tests-side sorted merge, for
// every thread count, alphabet and set size on either side of the lane
// width. The scalar build runs the same checks one lane wide.

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
    {"amino k=3 (largest plain amino k)", bio::AlphabetKind::AminoAcid,
     uncompressed(3)},
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
    out.push_back(
        rank_from_mean_similarity(reference::mean_similarity(x, refs)));
  return out;
}

std::vector<double> lower_triangle(std::size_t n, auto&& entry) {
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) out.push_back(entry(i, j));
  return out;
}

// Every public scoring entry point on `seqs` against nested merge loops.
void expect_matches_merge(const std::vector<Sequence>& seqs,
                          const KmerParams& params, const std::string& label) {
  const std::size_t n = seqs.size();
  const std::vector<KmerProfile> prof = build_profiles(seqs, params);
  const std::vector<double> want = lower_triangle(n, [&](auto i, auto j) {
    return i == j ? 0.0 : 1.0 - reference::similarity(prof[i], prof[j]);
  });
  // The single-pair API, both ways round.
  for (const bool swap : {false, true}) {
    EXPECT_TRUE(same_bits(lower_triangle(n,
                                         [&](auto i, auto j) {
                                           if (i == j) return 0.0;
                                           if (swap) std::swap(i, j);
                                           return 1.0 - prof[i].similarity(
                                                            prof[j]);
                                         }),
                          want))
        << label << " n=" << n << " swap=" << swap;
  }

  // Every third sequence as the sample (empty for n = 0).
  std::vector<Sequence> samples;
  std::vector<KmerProfile> sample_prof;
  for (std::size_t i = 0; i < n; i += 3) {
    samples.push_back(seqs[i]);
    sample_prof.push_back(prof[i]);
  }
  const std::span<const KmerProfile> all(prof);
  for (unsigned threads = 1; threads <= 7; ++threads) {
    const std::string at = label + " n=" + std::to_string(n) +
                           " threads=" + std::to_string(threads);
    const std::vector<KmerProfile> built =
        build_profiles(seqs, params, threads);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_TRUE(std::ranges::equal(built[i].counts(), prof[i].counts()))
          << at << " profile " << i;

    const auto d = distance_matrix(seqs, params, threads);
    ASSERT_EQ(d.size(), n);
    EXPECT_TRUE(same_bits(
        lower_triangle(n, [&](auto i, auto j) { return d(i, j); }), want))
        << at;
    EXPECT_TRUE(same_bits(centralized_ranks(seqs, params, threads),
                          merge_ranks(prof, prof)))
        << at;
    EXPECT_TRUE(same_bits(globalized_ranks(seqs, samples, params, threads),
                          merge_ranks(prof, sample_prof)))
        << at;
    EXPECT_TRUE(same_bits(ranks_against(prof, {}, threads),
                          merge_ranks(prof, {})))
        << at;
    // Seq and ref counts off the lane width, from both ends of the set,
    // inline and split over workers.
    if (threads != 1 && threads != 4) continue;
    for (const std::size_t a : {1, 7, 9, 13, 17}) {
      for (const std::size_t b : {1, 3, 9, 15}) {
        if (a > n || b > n) continue;
        EXPECT_TRUE(
            same_bits(ranks_against(all.first(a), all.last(b), threads),
                      merge_ranks(all.first(a), all.last(b))))
            << at << " seqs=" << a << " refs=" << b;
      }
    }
  }
}

TEST(KmerDenseKernel, MatchesMergeBitForBit) {
  std::uint64_t seed = 0xD15;
  for (const KernelCase& c : kKernelCases)
    for (const std::size_t n : {0, 1, 2, 3, 7, 8, 9, 16, 17, 37, 61})
      expect_matches_merge(kernel_set(c.kind, c.params.k, n, ++seed),
                           c.params, c.name);
}

// A count or shared sum past INT16_MAX cannot sit in an int16 lane: one
// homopolymer of more than INT16_MAX windows sends its whole set to
// KmerProfile::similarity, and one of exactly INT16_MAX windows still
// scores in lanes. Two copies per set so the triangle scores the
// homopolymer against itself.
TEST(KmerDenseKernel, Int16GuardKeepsLongSequencesExact) {
  const KmerParams params;
  const auto k = static_cast<std::size_t>(params.k);
  for (const std::size_t len : {std::size_t{32767} + k - 1,
                                std::size_t{32767} + k, std::size_t{33000}}) {
    std::vector<Sequence> seqs =
        kernel_set(bio::AlphabetKind::AminoAcid, params.k, 9, len);
    seqs.insert(seqs.begin() + 4, Sequence("h1", std::string(len, 'A')));
    seqs.emplace_back("h2", std::string(len, 'A'));
    expect_matches_merge(seqs, params,
                         "homopolymer length " + std::to_string(len));
  }
}

TEST(KmerDenseKernel, MismatchedKThrows) {
  const Sequence s("s", "ACDEFGHIKL");
  const auto profile = [&](int k) {
    return KmerProfile::from_sequence(s, uncompressed(k));
  };
  const std::vector<KmerProfile> k1{profile(1)};
  const std::vector<KmerProfile> k2{profile(2)};
  const std::vector<KmerProfile> k3{profile(3)};
  const std::vector<KmerProfile> mixed{profile(3), profile(2)};
  EXPECT_THROW((void)ranks_against(k3, k1), std::invalid_argument);
  EXPECT_THROW((void)ranks_against(k3, k2), std::invalid_argument);
  EXPECT_THROW((void)ranks_against(mixed, k3), std::invalid_argument);
  EXPECT_THROW((void)ranks_against(k3, mixed), std::invalid_argument);
  // No pair is scored, so nothing mismatches.
  EXPECT_NO_THROW((void)ranks_against(mixed, {}));
  EXPECT_NO_THROW((void)ranks_against({}, mixed));
}

}  // namespace
}  // namespace salign::kmer
