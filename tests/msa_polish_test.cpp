#include "msa/polish.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "msa/muscle_like.hpp"
#include "msa/scoring.hpp"
#include "workload/evolver.hpp"

namespace salign::msa {
namespace {

using bio::Sequence;
using bio::SubstitutionMatrix;

const SubstitutionMatrix& B62() { return SubstitutionMatrix::blosum62(); }

Alignment from_rows(std::initializer_list<std::pair<std::string, std::string>>
                        rows) {
  std::vector<std::pair<std::string, std::string>> v(rows);
  return Alignment::from_texts(v);
}

// ---- row_profile_scores -----------------------------------------------------

TEST(RowProfileScores, EmptyAlignment) {
  EXPECT_TRUE(row_profile_scores(Alignment(), B62()).empty());
}

TEST(RowProfileScores, IdenticalRowsScoreEqually) {
  const Alignment a = from_rows(
      {{"a", "MKVLATT"}, {"b", "MKVLATT"}, {"c", "MKVLATT"}});
  const auto s = row_profile_scores(a, B62());
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[0], s[1]);
  EXPECT_DOUBLE_EQ(s[1], s[2]);
  EXPECT_GT(s[0], 0.0);  // self-similar columns score positively
}

TEST(RowProfileScores, OutlierRowScoresLowest) {
  const Alignment a = from_rows({{"a", "MKVLATTWYG"},
                                 {"b", "MKVLATTWYG"},
                                 {"c", "MKVLATTWYG"},
                                 {"outlier", "PPPPGGHHNN"}});
  const auto s = row_profile_scores(a, B62());
  ASSERT_EQ(s.size(), 4u);
  for (std::size_t r = 0; r < 3; ++r)
    EXPECT_LT(s[3], s[r]) << "outlier not lowest vs row " << r;
}

TEST(RowProfileScores, GapOnlyRowGetsMinusInfinity) {
  const Alignment a =
      from_rows({{"a", "MKVL"}, {"b", "MKVL"}, {"g", "----"}});
  const auto s = row_profile_scores(a, B62());
  EXPECT_TRUE(std::isinf(s[2]));
  EXPECT_LT(s[2], 0.0);
}

// ---- polish_divergent_rows: argument validation -----------------------------

TEST(PolishDivergent, RejectsBadFraction) {
  Alignment a = from_rows({{"a", "MKVL"}, {"b", "MKVL"}, {"c", "MKVL"}});
  PolishOptions o;
  o.fraction = -0.1;
  EXPECT_THROW((void)polish_divergent_rows(a, B62(), o),
               std::invalid_argument);
  o.fraction = 1.5;
  EXPECT_THROW((void)polish_divergent_rows(a, B62(), o),
               std::invalid_argument);
}

TEST(PolishDivergent, RejectsNegativePasses) {
  Alignment a = from_rows({{"a", "MKVL"}, {"b", "MKVL"}, {"c", "MKVL"}});
  PolishOptions o;
  o.passes = -1;
  EXPECT_THROW((void)polish_divergent_rows(a, B62(), o),
               std::invalid_argument);
}

TEST(PolishDivergent, TinyAlignmentsAreLeftAlone) {
  Alignment a = from_rows({{"a", "MKVL"}, {"b", "MKVL"}});
  const Alignment before = a;
  EXPECT_EQ(polish_divergent_rows(a, B62()), 0u);
  EXPECT_EQ(a.num_cols(), before.num_cols());
}

TEST(PolishDivergent, ZeroPassesIsNoOp) {
  Alignment a = from_rows(
      {{"a", "MKVLATT"}, {"b", "MKVLATT"}, {"c", "MK-LATT"}});
  PolishOptions o;
  o.passes = 0;
  EXPECT_EQ(polish_divergent_rows(a, B62(), o), 0u);
}

// ---- polish_divergent_rows: behaviour ---------------------------------------

TEST(PolishDivergent, PreservesRowOrderAndContents) {
  workload::EvolveParams ep;
  ep.num_sequences = 10;
  ep.root_length = 60;
  ep.mean_branch_distance = 0.6;
  ep.seed = 51;
  const auto fam = workload::evolve_family(ep);
  Alignment a = MuscleAligner().align(fam.sequences);
  PolishOptions o;
  o.fraction = 0.3;
  o.passes = 2;
  (void)polish_divergent_rows(a, B62(), o);
  a.validate();
  ASSERT_EQ(a.num_rows(), fam.sequences.size());
  for (std::size_t i = 0; i < fam.sequences.size(); ++i)
    EXPECT_EQ(a.degapped(i), fam.sequences[i]) << "row " << i;
}

TEST(PolishDivergent, NeverLowersSpScore) {
  // Acceptance is gated on the SP gain of the re-aligned row's pairs, the
  // only pairs a re-alignment changes, so the whole SP score cannot fall.
  workload::EvolveParams ep;
  ep.num_sequences = 9;
  ep.root_length = 50;
  ep.mean_branch_distance = 0.9;
  ep.seed = 53;
  const auto fam = workload::evolve_family(ep);
  Alignment a = MuscleAligner().align(fam.sequences);
  const auto gaps = B62().default_gaps();
  const double before = sp_score(a, B62(), gaps);
  PolishOptions o;
  o.fraction = 0.4;
  o.passes = 3;
  (void)polish_divergent_rows(a, B62(), o);
  const double after = sp_score(a, B62(), gaps);
  EXPECT_GE(after, before - 1e-6);
}

TEST(PolishDivergent, RepairsAPlantedMisalignment) {
  // Three consistent rows plus one whose gaps were deliberately misplaced:
  // the polish must find a strictly better placement for the bad row.
  Alignment a = from_rows({{"a", "MKVLATTWYGG-"},
                           {"b", "MKVLATTWYGG-"},
                           {"c", "MKVLATTWYGG-"},
                           {"bad", "-M-KVLATTWYG"}});
  const auto gaps = B62().default_gaps();
  const double before = sp_score(a, B62(), gaps);
  PolishOptions o;
  o.fraction = 0.25;  // exactly one row
  const std::size_t accepted = polish_divergent_rows(a, B62(), o);
  EXPECT_GE(accepted, 1u);
  EXPECT_GT(sp_score(a, B62(), gaps), before);
  EXPECT_EQ(a.degapped(3).text(), "MKVLATTWYG");
}

TEST(PolishDivergent, ConvergesAndStops) {
  // Once no re-alignment is accepted the pass loop must exit early: a
  // second call accepts nothing.
  workload::EvolveParams ep;
  ep.num_sequences = 8;
  ep.root_length = 40;
  ep.mean_branch_distance = 0.5;
  ep.seed = 57;
  const auto fam = workload::evolve_family(ep);
  Alignment a = MuscleAligner().align(fam.sequences);
  PolishOptions o;
  o.fraction = 0.5;
  o.passes = 10;
  (void)polish_divergent_rows(a, B62(), o);
  EXPECT_EQ(polish_divergent_rows(a, B62(), o), 0u);
}

TEST(PolishDivergent, MaxRowsCapsWork) {
  workload::EvolveParams ep;
  ep.num_sequences = 12;
  ep.root_length = 40;
  ep.mean_branch_distance = 1.0;
  ep.seed = 59;
  const auto fam = workload::evolve_family(ep);
  Alignment a = MuscleAligner().align(fam.sequences);
  PolishOptions o;
  o.fraction = 1.0;
  o.max_rows = 2;
  o.passes = 1;
  EXPECT_LE(polish_divergent_rows(a, B62(), o), 2u);
}

TEST(PolishDivergent, ImprovesQOnDivergentFamilies) {
  // The future-work claim: post-glue refinement should help (or at least
  // not hurt) reference recovery on divergent families. Averaged over
  // seeds to damp single-family noise.
  double dq = 0.0;
  for (std::uint64_t seed : {61ULL, 67ULL, 71ULL, 73ULL}) {
    workload::EvolveParams ep;
    ep.num_sequences = 10;
    ep.root_length = 60;
    ep.mean_branch_distance = 1.0;
    ep.seed = seed;
    const auto fam = workload::evolve_family(ep);
    Alignment a = MuscleAligner().align(fam.sequences);
    const double before = q_score(a, fam.reference);
    PolishOptions o;
    o.fraction = 0.3;
    o.passes = 2;
    (void)polish_divergent_rows(a, B62(), o);
    dq += q_score(a, fam.reference) - before;
  }
  EXPECT_GE(dq, -0.02);
}

}  // namespace
}  // namespace salign::msa
