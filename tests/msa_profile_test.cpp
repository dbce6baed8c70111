#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "msa/profile.hpp"
#include "msa/profile_align.hpp"
#include "util/rng.hpp"
#include "workload/rose.hpp"

namespace salign::msa {
namespace {

using align::EditOp;
using bio::SubstitutionMatrix;
using Rows = std::vector<std::pair<std::string, std::string>>;

const SubstitutionMatrix& B62() { return SubstitutionMatrix::blosum62(); }

Alignment make(const Rows& rows) { return Alignment::from_texts(rows); }

// ---- Profile -------------------------------------------------------------------

TEST(Profile, FrequenciesSumToOccupancy) {
  const Alignment a = make({{"a", "AC-"}, {"b", "AD-"}, {"c", "A-G"}});
  const Profile p(a, B62());
  ASSERT_EQ(p.num_cols(), 3u);
  for (std::size_t c = 0; c < 3; ++c) {
    float sum = 0.0F;
    for (int r = 0; r < p.alphabet_size(); ++r)
      sum += p.freq(c, static_cast<std::uint8_t>(r));
    EXPECT_NEAR(sum, p.occupancy(c), 1e-6);
  }
  EXPECT_NEAR(p.occupancy(0), 1.0F, 1e-6);
  EXPECT_NEAR(p.occupancy(1), 2.0F / 3.0F, 1e-6);
  EXPECT_NEAR(p.occupancy(2), 1.0F / 3.0F, 1e-6);
}

TEST(Profile, ColumnFrequencies) {
  const Alignment a = make({{"a", "A"}, {"b", "A"}, {"c", "C"}, {"d", "D"}});
  const Profile p(a, B62());
  const auto& alpha = bio::Alphabet::amino_acid();
  EXPECT_NEAR(p.freq(0, alpha.encode('A')), 0.5F, 1e-6);
  EXPECT_NEAR(p.freq(0, alpha.encode('C')), 0.25F, 1e-6);
  EXPECT_NEAR(p.freq(0, alpha.encode('W')), 0.0F, 1e-6);
}

TEST(Profile, WeightsShiftFrequencies) {
  const Alignment a = make({{"a", "A"}, {"b", "C"}});
  const std::vector<double> w{3.0, 1.0};
  const Profile p(a, B62(), w);
  const auto& alpha = bio::Alphabet::amino_acid();
  EXPECT_NEAR(p.freq(0, alpha.encode('A')), 0.75F, 1e-6);
  EXPECT_NEAR(p.freq(0, alpha.encode('C')), 0.25F, 1e-6);
}

TEST(Profile, PspSingleResidueColumnsEqualMatrixScore) {
  const Alignment a = make({{"a", "A"}});
  const Alignment b = make({{"b", "W"}});
  const Profile pa(a, B62());
  const Profile pb(b, B62());
  const auto& alpha = bio::Alphabet::amino_acid();
  EXPECT_NEAR(pa.psp(pb, 0, 0),
              B62().score(alpha.encode('A'), alpha.encode('W')), 1e-6);
}

TEST(Profile, PspSymmetricForProfiles) {
  const Alignment a = make({{"a", "AC"}, {"b", "AD"}});
  const Alignment b = make({{"c", "CW"}, {"d", "GW"}});
  const Profile pa(a, B62());
  const Profile pb(b, B62());
  EXPECT_NEAR(pa.psp(pb, 0, 1), pb.psp(pa, 1, 0), 1e-6);
}

TEST(Profile, EmptyAlignmentThrows) {
  EXPECT_THROW(Profile(Alignment{}, B62()), std::invalid_argument);
}

TEST(Profile, BadWeightsThrow) {
  const Alignment a = make({{"a", "A"}, {"b", "C"}});
  const std::vector<double> short_w{1.0};
  EXPECT_THROW(Profile(a, B62(), short_w), std::invalid_argument);
  const std::vector<double> zero_w{0.0, 0.0};
  EXPECT_THROW(Profile(a, B62(), zero_w), std::invalid_argument);
  // A negative weight is rejected even when the total stays positive
  // (it would corrupt column frequencies silently).
  const std::vector<double> neg_w{2.0, -0.5};
  EXPECT_THROW(Profile(a, B62(), neg_w), std::invalid_argument);
}

// ---- align_profiles ---------------------------------------------------------------

TEST(ProfileAlign, IdenticalProfilesAllMatch) {
  const Alignment a = make({{"a", "ACDEFG"}, {"b", "ACDEFG"}});
  const Alignment b = make({{"c", "ACDEFG"}});
  const Profile pa(a, B62());
  const Profile pb(b, B62());
  const ProfileAlignResult r = align_profiles(pa, pb);
  ASSERT_EQ(r.ops.size(), 6u);
  for (EditOp op : r.ops) EXPECT_EQ(op, EditOp::Match);
}

TEST(ProfileAlign, MismatchedAlphabetsThrow) {
  // An amino-acid A (21 codes) against a DNA B (5 codes): the B-side score
  // table must not be indexed with A's residue codes.
  const Alignment a = make({{"a", "ACDEFGHIKLMNPQRSTVWY"}});
  const Alignment b = Alignment::from_texts(Rows{{"b", "ACGTACGT"}},
                                            bio::AlphabetKind::Dna);
  const Profile pa(a, B62());
  const Profile pb(b, SubstitutionMatrix::dna_default());
  EXPECT_THROW((void)align_profiles(pa, pb), std::invalid_argument);
  EXPECT_THROW((void)align_profiles(pb, pa), std::invalid_argument);
}

TEST(ProfileAlign, ScoreMatchesPathScore) {
  util::Rng rng(5);
  const auto fam = workload::rose_sequences(
      {.num_sequences = 6, .average_length = 40, .relatedness = 300,
       .seed = 17});
  const Alignment a = Alignment::from_sequence(fam[0]);
  const Alignment b = Alignment::from_sequence(fam[1]);
  const Profile pa(a, B62());
  const Profile pb(b, B62());
  const ProfileAlignResult r = align_profiles(pa, pb);
  EXPECT_NEAR(r.score, score_profile_path(pa, pb, r.ops), 1e-2);
}

TEST(ProfileAlign, DpIsOptimalVsImpliedPaths) {
  // The DP result must score at least as well as any hand-made path.
  const Alignment a = make({{"a", "ACDEF"}});
  const Alignment b = make({{"b", "ACEF"}});
  const Profile pa(a, B62());
  const Profile pb(b, B62());
  const ProfileAlignResult best = align_profiles(pa, pb);
  const std::vector<EditOp> manual{EditOp::Match, EditOp::Match,
                                   EditOp::GapInB, EditOp::Match,
                                   EditOp::Match};
  EXPECT_GE(best.score, score_profile_path(pa, pb, manual) - 1e-4);
}

TEST(ProfileAlign, EmptySides) {
  const Alignment a = make({{"a", "ACD"}});
  const Profile pa(a, B62());
  // Align against zero-column profile via the DP entry points.
  const ProfileAlignResult r = detail::profile_dp(
      3, 0, [](std::size_t, std::size_t) { return 0.0F; },
      std::vector<float>{1, 1, 1}, std::vector<float>{}, ProfileAlignOptions{});
  ASSERT_EQ(r.ops.size(), 3u);
  for (EditOp op : r.ops) EXPECT_EQ(op, EditOp::GapInB);
}

TEST(ProfileAlign, CheckpointedTracebackMatchesFullTraceExactly) {
  // Forcing max_trace_cells = 1 pushes every DP onto the checkpointed
  // (row-checkpoint + block-recompute) traceback path; the result must be
  // bit-identical to the full-trace path, banded or not.
  const auto fam = workload::rose_sequences(
      {.num_sequences = 8, .average_length = 90, .relatedness = 500,
       .seed = 29});
  for (std::size_t t = 0; t + 1 < fam.size(); t += 2) {
    const Alignment a = Alignment::from_sequence(fam[t]);
    const Alignment b = Alignment::from_sequence(fam[t + 1]);
    const Profile pa(a, B62());
    const Profile pb(b, B62());
    for (std::size_t band : {std::size_t{0}, std::size_t{8}}) {
      ProfileAlignOptions full;
      full.band = band;
      ProfileAlignOptions ckpt = full;
      ckpt.max_trace_cells = 1;
      const ProfileAlignResult want = align_profiles(pa, pb, full);
      const ProfileAlignResult got = align_profiles(pa, pb, ckpt);
      EXPECT_EQ(want.score, got.score) << "pair " << t << " band " << band;
      ASSERT_EQ(want.ops.size(), got.ops.size())
          << "pair " << t << " band " << band;
      for (std::size_t k = 0; k < want.ops.size(); ++k)
        ASSERT_EQ(want.ops[k], got.ops[k])
            << "pair " << t << " band " << band << " op " << k;
    }
  }
}

TEST(ProfileAlign, BandedMatchesFullForSimilarProfiles) {
  const auto fam = workload::rose_sequences(
      {.num_sequences = 2, .average_length = 60, .relatedness = 150,
       .seed = 23});
  const Alignment a = Alignment::from_sequence(fam[0]);
  const Alignment b = Alignment::from_sequence(fam[1]);
  const Profile pa(a, B62());
  const Profile pb(b, B62());
  ProfileAlignOptions full;
  ProfileAlignOptions banded;
  banded.band = 16;
  EXPECT_NEAR(align_profiles(pa, pb, full).score,
              align_profiles(pa, pb, banded).score, 1e-3);
}

// ---- merge_alignments ----------------------------------------------------------------

TEST(MergeAlignments, CombinesRowsAndInsertsGaps) {
  const Alignment a = make({{"a", "AC"}});
  const Alignment b = make({{"b", "AGC"}});
  const std::vector<EditOp> ops{EditOp::Match, EditOp::GapInA, EditOp::Match};
  const Alignment m = merge_alignments(a, b, ops);
  ASSERT_EQ(m.num_rows(), 2u);
  EXPECT_EQ(m.row_text(0), "A-C");
  EXPECT_EQ(m.row_text(1), "AGC");
}

TEST(MergeAlignments, DegapPreservesInputs) {
  const auto fam = workload::rose_sequences(
      {.num_sequences = 4, .average_length = 30, .relatedness = 400,
       .seed = 31});
  const Alignment a = Alignment::from_sequence(fam[0]);
  const Alignment b = Alignment::from_sequence(fam[1]);
  const Profile pa(a, B62());
  const Profile pb(b, B62());
  const ProfileAlignResult r = align_profiles(pa, pb);
  const Alignment m = merge_alignments(a, b, r.ops);
  EXPECT_EQ(m.degapped(0), fam[0]);
  EXPECT_EQ(m.degapped(1), fam[1]);
}

TEST(MergeAlignments, IncompletePathThrows) {
  const Alignment a = make({{"a", "AC"}});
  const Alignment b = make({{"b", "A"}});
  const std::vector<EditOp> ops{EditOp::Match};  // leaves A's C unconsumed
  EXPECT_THROW((void)merge_alignments(a, b, ops), std::invalid_argument);
}

TEST(MergeAlignments, OverrunPathThrows) {
  const Alignment a = make({{"a", "A"}});
  const Alignment b = make({{"b", "A"}});
  const std::vector<EditOp> ops{EditOp::Match, EditOp::Match};
  EXPECT_THROW((void)merge_alignments(a, b, ops), std::invalid_argument);
}

// ---- implied_path ----------------------------------------------------------------------

TEST(ImpliedPath, RecoversMergePath) {
  const Alignment a = make({{"a", "AC"}, {"b", "AC"}});
  const Alignment b = make({{"c", "AGC"}});
  const std::vector<EditOp> ops{EditOp::Match, EditOp::GapInA, EditOp::Match};
  const Alignment m = merge_alignments(a, b, ops);
  const std::vector<std::size_t> ga{0, 1};
  const std::vector<std::size_t> gb{2};
  const std::vector<EditOp> implied = implied_path(m, ga, gb);
  EXPECT_EQ(implied, ops);
}

TEST(ImpliedPath, DropsColumnsEmptyInBothGroups) {
  const Alignment m = make({{"a", "A-C"}, {"b", "A-C"}});
  const std::vector<std::size_t> ga{0};
  const std::vector<std::size_t> gb{1};
  const std::vector<EditOp> implied = implied_path(m, ga, gb);
  ASSERT_EQ(implied.size(), 2u);  // all-gap middle column dropped
  EXPECT_EQ(implied[0], EditOp::Match);
  EXPECT_EQ(implied[1], EditOp::Match);
}

}  // namespace
}  // namespace salign::msa
