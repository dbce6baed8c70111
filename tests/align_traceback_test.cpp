// Tests for the striped integer FULL-alignment tier (engine::AlignBatch and
// the alignment_distance_matrix routing over it):
//
//  * randomized striped-traceback-vs-reference differential — AlignBatch
//    through every tier start, score AND ops (tie-breaks included) must
//    equal the retained reference kernel EXACTLY, on random,
//    degenerate and empty inputs, integral and non-integral penalties;
//  * adversarial near-rail cases — the alignment tier's E/F floor rail is
//    stricter than the score tier's H rails: pairs engineered to clamp E/F
//    without touching an H rail must promote (trace_promotions) and stay
//    exact, pinning the ScoreTier gate audit of the PR;
//  * alignment_distance_matrix — per-row laddered routing bit-identical
//    to the per-pair reference loop for every thread count, visitor order
//    preserved, kFloat pinning the pre-integer path, bands unaffected;
//  * kimura_distance saturation — the kMaxGuideTreeDistance clamp applied
//    consistently across the distance drivers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "align/distance.hpp"
#include "align/engine/batch.hpp"
#include "align/engine/engine.hpp"
#include "bio/sequence.hpp"
#include "bio/substitution_matrix.hpp"
#include "oracles/reference.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace salign::align {
namespace {

using bio::GapPenalties;
using bio::Sequence;
using bio::SubstitutionMatrix;
using engine::AlignBatch;
using engine::ScoreTier;

std::vector<std::uint8_t> random_codes(util::Rng& rng, std::size_t len,
                                       int letters) {
  std::vector<std::uint8_t> v(len);
  for (auto& c : v)
    c = static_cast<std::uint8_t>(
        rng.below(static_cast<std::uint64_t>(letters)));
  return v;
}

/// ~identity-fraction mutants of a fresh random query.
std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>> mutant_pair(
    util::Rng& rng, std::size_t len, int letters, double mutate) {
  auto a = random_codes(rng, len, letters);
  auto b = a;
  for (auto& c : b)
    if (rng.chance(mutate))
      c = static_cast<std::uint8_t>(
          rng.below(static_cast<std::uint64_t>(letters)));
  return {std::move(a), std::move(b)};
}

struct Scenario {
  const SubstitutionMatrix* matrix;
  int letters;
};

std::vector<Scenario> scenarios() {
  return {
      {&SubstitutionMatrix::blosum62(), 20},
      {&SubstitutionMatrix::blosum62(), 21},  // with wildcard X
      {&SubstitutionMatrix::pam250(), 20},
      {&SubstitutionMatrix::dna_default(), 4},
      {&SubstitutionMatrix::dna_default(), 5},  // with wildcard N
  };
}

PairwiseAlignment ref_align(std::span<const std::uint8_t> a,
                            std::span<const std::uint8_t> b,
                            const SubstitutionMatrix& m, GapPenalties g) {
  if (a.empty() && b.empty()) return {};
  return engine::reference::global_align(a, b, m, g);
}

void expect_same(const PairwiseAlignment& ref, const PairwiseAlignment& got,
                 const char* what) {
  EXPECT_EQ(ref.score, got.score) << what;
  ASSERT_EQ(ref.ops.size(), got.ops.size()) << what;
  EXPECT_TRUE(ref.ops == got.ops) << what << ": ops diverge";
}

// ---- striped traceback differential -------------------------------------------

TEST(StripedTracebackDifferential, AllTiersMatchReferenceExactly) {
  util::Rng rng(0xC1);
  const auto scen = scenarios();
  for (int trial = 0; trial < 60; ++trial) {
    const Scenario& sc = scen[trial % scen.size()];
    const std::size_t la = rng.below(160);
    const std::size_t lb = rng.below(160);
    const auto a = random_codes(rng, la, sc.letters);
    const auto b = random_codes(rng, lb, sc.letters);
    GapPenalties g;
    g.open = static_cast<float>(1 + rng.below(14));
    g.extend = static_cast<float>(1 + rng.below(4)) * 0.5F;  // incl. 0.5/1.5

    const PairwiseAlignment ref = ref_align(a, b, *sc.matrix, g);
    for (ScoreTier tier : {ScoreTier::kAuto, ScoreTier::kInt8,
                           ScoreTier::kInt16, ScoreTier::kFloat}) {
      AlignBatch batch(a, *sc.matrix, g, tier);
      const PairwiseAlignment got = batch.align(b);
      char label[64];
      std::snprintf(label, sizeof label, "trial %d %s", trial,
                    engine::tier_name(tier));
      expect_same(ref, got, label);
    }
  }
}

TEST(StripedTracebackDifferential, SimilarPairsAndLongerSequences) {
  // Homolog-like pairs (the distance stage's real workload) and lengths
  // that span several column checkpoints (interval >= 32), so the
  // block-recompute traceback crosses block boundaries many times.
  util::Rng rng(0xC2);
  const auto& m = SubstitutionMatrix::blosum62();
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t len = 120 + rng.below(280);
    const auto [a, b] = mutant_pair(rng, len, 20, 0.3 + 0.1 * (trial % 5));
    const GapPenalties g{static_cast<float>(8 + trial % 5), 1.0F};
    const PairwiseAlignment ref = ref_align(a, b, m, g);
    AlignBatch batch(a, m, g);
    expect_same(ref, batch.align(b), "homolog pair");
  }
}

TEST(StripedTracebackDifferential, ReusedBatchTracksStats) {
  // One row profile, many counterparts — and the integer tiers must
  // actually carry the load (a silent always-promote would still be exact
  // but would defeat the PR).
  util::Rng rng(0xC3);
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g{10.0F, 1.0F};
  const auto query = random_codes(rng, 90, 20);
  AlignBatch batch(query, m, g);
  for (int i = 0; i < 16; ++i) {
    const auto other = random_codes(rng, 40 + rng.below(80), 20);
    expect_same(ref_align(query, other, m, g), batch.align(other),
                "reused batch");
  }
  EXPECT_GT(batch.stats().int8_runs + batch.stats().int16_runs, 0u)
      << "integer tiers never ran";
  EXPECT_GT(batch.stats().int8_runs + batch.stats().int16_runs,
            batch.stats().promotions)
      << "every integer run promoted — the tiers carry no load";
}

TEST(StripedTracebackPromotion, HighScorePairPromotesAndStaysExact) {
  // Identical 80-residue proteins: the self-score blows the int8 ceiling,
  // the ladder promotes, and the alignment is still reference-exact.
  util::Rng rng(0xC4);
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g{10.0F, 1.0F};
  const auto a = random_codes(rng, 80, 20);
  AlignBatch batch(a, m, g, ScoreTier::kInt8);
  expect_same(ref_align(a, a, m, g), batch.align(a), "self pair");
  EXPECT_GE(batch.stats().int8_runs, 1u);
  EXPECT_GE(batch.stats().promotions, 1u);
}

TEST(StripedTracebackPromotion, AlignmentRailsAreStricterThanScoreRails) {
  // The ScoreTier gate audit of this PR: the score tiers only need exact H
  // (a clamped E/F that never wins a cell cannot move the score), but the
  // traceback READS E/F, so the alignment tier must also promote when a
  // stored E/F sat on the floor rail. This sweep deterministically hits
  // such a pair (random ~5%-identity proteins hover within `open` of the
  // int8 floor, clamping E chains while H stays inside the rails): the
  // forward/score pass accepts int8, the traceback rejects it — and the
  // result must STILL be reference-exact through the promotion.
  util::Rng rng(12);
  const auto& m = SubstitutionMatrix::blosum62();
  std::size_t trace_promotions = 0;
  for (int t = 0; t < 200 && trace_promotions == 0; ++t) {
    const std::size_t len = 60 + rng.below(40);
    const GapPenalties g{static_cast<float>(8 + rng.below(6)),
                         static_cast<float>(1 + rng.below(2))};
    const auto a = random_codes(rng, len, 20);
    const auto b = random_codes(rng, len, 20);
    AlignBatch batch(a, m, g, ScoreTier::kInt8);
    expect_same(ref_align(a, b, m, g), batch.align(b), "near-rail pair");
    if (batch.stats().trace_promotions > 0) {
      ++trace_promotions;
      // The same pair through the SCORE tier must not promote: the H rails
      // were fine — only the alignment-tier E/F check fired.
      engine::ScoreBatch score(a, m, g, ScoreTier::kInt8);
      EXPECT_EQ(score.score(b), ref_align(a, b, m, g).score);
      EXPECT_EQ(score.stats().promotions, 0u)
          << "expected a pair that is score-exact in int8 yet "
             "traceback-inexact";
    }
  }
  EXPECT_GE(trace_promotions, 1u)
      << "sweep no longer reaches the E/F floor rail — regenerate the seed";
}

TEST(StripedTracebackEdge, EmptyAndTinyInputs) {
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g{11.0F, 1.0F};
  const std::vector<std::uint8_t> empty;
  const std::vector<std::uint8_t> one{3};
  const std::vector<std::uint8_t> three{1, 2, 3};
  for (ScoreTier tier : {ScoreTier::kAuto, ScoreTier::kInt8,
                         ScoreTier::kInt16, ScoreTier::kFloat}) {
    for (const auto* pa : {&empty, &one, &three}) {
      for (const auto* pb : {&empty, &one, &three}) {
        AlignBatch batch(*pa, m, g, tier);
        expect_same(ref_align(*pa, *pb, m, g), batch.align(*pb),
                    "degenerate");
      }
    }
  }
}

// ---- distance-matrix routing ---------------------------------------------------

std::vector<Sequence> random_family(util::Rng& rng, std::size_t n,
                                    std::size_t min_len,
                                    std::size_t max_len) {
  std::vector<Sequence> seqs;
  const auto root =
      random_codes(rng, min_len + rng.below(max_len - min_len), 20);
  for (std::size_t s = 0; s < n; ++s) {
    auto codes = root;
    codes.resize(min_len + rng.below(max_len - min_len), 0);
    for (auto& c : codes)
      if (rng.chance(0.6)) c = static_cast<std::uint8_t>(rng.below(20));
    seqs.emplace_back(util::indexed_name("s", s), std::move(codes),
                      bio::AlphabetKind::AminoAcid);
  }
  return seqs;
}

TEST(DistanceMatrixAligned, MatchesPerPairReferenceForEveryThreadCount) {
  util::Rng rng(0xC7);
  // Mixed lengths straddling the int8 cap: short pairs run the striped
  // int8 tier, long ones start past it. Two identical 60-residue twins are
  // under the cap but their match run crosses the int8 ceiling, so that
  // pair must promote and still match the reference. 22 sequences puts
  // rows past the planner's kMaxRowRun split, covering the bounded-row-run
  // task shape too.
  auto seqs = random_family(rng, 20, 30, 160);
  const auto twin = random_codes(rng, 60, 20);
  for (int t = 0; t < 2; ++t)
    seqs.emplace_back(util::indexed_name("twin", t), twin,
                      bio::AlphabetKind::AminoAcid);
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g = m.default_gaps();

  // Reference: the historical serial per-pair loop.
  util::SymmetricMatrix<double> want(seqs.size(), 0.0);
  for (std::size_t i = 0; i < seqs.size(); ++i)
    for (std::size_t j = 0; j < i; ++j) {
      const PairwiseAlignment aln =
          ref_align(seqs[i].codes(), seqs[j].codes(), m, g);
      want(i, j) = kimura_distance(
          fractional_identity(seqs[i].codes(), seqs[j].codes(), aln.ops));
    }

  for (unsigned threads : {1U, 2U, 5U}) {
    for (ScoreTier tier : {ScoreTier::kAuto, ScoreTier::kInt16,
                           ScoreTier::kFloat}) {
      PairDistanceOptions opt;
      opt.threads = threads;
      opt.first_tier = tier;
      PairDistanceStats stats;
      opt.stats = &stats;
      const auto got = alignment_distance_matrix(seqs, m, g, opt);
      for (std::size_t i = 0; i < seqs.size(); ++i)
        for (std::size_t j = 0; j < i; ++j)
          EXPECT_EQ(want(i, j), got(i, j))
              << i << "," << j << " threads=" << threads << " tier="
              << engine::tier_name(tier);
      EXPECT_EQ(stats.pairs, seqs.size() * (seqs.size() - 1) / 2);
      if (tier == ScoreTier::kAuto) {
        EXPECT_GT(stats.ladder.int8_runs, 0u) << "int8 tier never engaged";
        EXPECT_GT(stats.ladder.promotions, 0u) << "no pair left int8";
      }
      if (tier == ScoreTier::kFloat) {
        EXPECT_EQ(stats.ladder.int8_runs + stats.ladder.int16_runs, 0u);
      }
    }
  }
}

TEST(DistanceMatrixAligned, VisitorOrderAndPairsPreserved) {
  util::Rng rng(0xC8);
  const auto seqs = random_family(rng, 9, 20, 70);
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g = m.default_gaps();

  std::vector<std::pair<std::size_t, std::size_t>> order;
  std::vector<PairwiseAlignment> alns;
  PairDistanceOptions opt;
  opt.threads = 3;
  opt.with_local = true;
  (void)alignment_distance_matrix(
      seqs, m, g, opt,
      [&](std::size_t i, std::size_t j, const PairAlignments& pair) {
        order.emplace_back(i, j);
        alns.push_back(pair.global);
        EXPECT_FALSE(pair.local.ops.empty());
      });

  std::size_t p = 0;
  for (std::size_t i = 1; i < seqs.size(); ++i)
    for (std::size_t j = 0; j < i; ++j, ++p) {
      ASSERT_LT(p, order.size());
      EXPECT_EQ(order[p], std::make_pair(i, j));
      expect_same(ref_align(seqs[i].codes(), seqs[j].codes(), m, g), alns[p],
                  "visited pair");
    }
  EXPECT_EQ(p, order.size());
}

// ---- kimura saturation (shared guide-tree clamp) -------------------------------

TEST(KimuraSaturation, ClampIsConsistentAcrossDrivers) {
  // The transform itself: monotone, continuous into the clamp, never above
  // the cap, saturated exactly at the cap for identity 0.
  EXPECT_EQ(kimura_distance(1.0), 0.0);
  EXPECT_EQ(kimura_distance(0.0), kMaxGuideTreeDistance);
  EXPECT_EQ(kimura_distance(-0.5), kMaxGuideTreeDistance);  // clamped D
  double prev = kimura_distance(1.0);
  for (double id = 0.99; id > -0.01; id -= 0.01) {
    const double cur = kimura_distance(id);
    EXPECT_GE(cur, prev) << "identity " << id;
    EXPECT_LE(cur, kMaxGuideTreeDistance) << "identity " << id;
    prev = cur;
  }
  // Just-above-threshold identities must NOT clamp (continuity: the clamp
  // is a saturation, not a cliff).
  const double at_cap = std::exp(-kMaxGuideTreeDistance);
  // identity s.t. 1 - d - d^2/5 == at_cap, d = 1 - identity:
  const double d = (-1.0 + std::sqrt(1.0 + 0.8 * (1.0 - at_cap))) / 0.4;
  EXPECT_LT(kimura_distance(1.0 - d + 1e-6), kMaxGuideTreeDistance);
  EXPECT_EQ(kimura_distance(1.0 - d - 1e-6), kMaxGuideTreeDistance);

  // Driver consistency: a zero-identity pair saturates the alignment
  // driver at exactly the shared cap, and both matrix drivers respect it.
  const auto& m = SubstitutionMatrix::dna_default();
  const GapPenalties g = m.default_gaps();
  std::vector<Sequence> seqs;
  seqs.emplace_back("a", "ACACACACAC", bio::AlphabetKind::Dna);
  seqs.emplace_back("b", "GTGTGTGTGT", bio::AlphabetKind::Dna);
  const auto kim = alignment_distance_matrix(seqs, m, g);
  EXPECT_EQ(kim(1, 0), kMaxGuideTreeDistance);
  const auto sc = score_distance_matrix(seqs, m, g);
  EXPECT_GE(sc(1, 0), 0.0);
  EXPECT_LE(sc(1, 0), kMaxScoreDistance);
  static_assert(kMaxScoreDistance == kMaxGuideTreeDistance);
}

}  // namespace
}  // namespace salign::align
