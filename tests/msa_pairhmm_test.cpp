#include "msa/pairhmm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "msa/muscle_like.hpp"
#include "msa/probcons_like.hpp"
#include "msa/scoring.hpp"
#include "util/string_util.hpp"
#include "workload/evolver.hpp"

namespace salign::msa {
namespace {

using bio::Sequence;
using bio::SubstitutionMatrix;

Sequence aa(std::string id, std::string_view text) {
  return Sequence(std::move(id), text, bio::AlphabetKind::AminoAcid);
}

// ---- SparsePosterior --------------------------------------------------------

TEST(SparsePosterior, EmptyMatrixHasNoEntries) {
  const SparsePosterior p(3, 4);
  EXPECT_EQ(p.rows(), 3u);
  EXPECT_EQ(p.cols(), 4u);
  EXPECT_EQ(p.nonzeros(), 0u);
  EXPECT_FLOAT_EQ(p.at(0, 0), 0.0F);
  EXPECT_DOUBLE_EQ(p.total(), 0.0);
}

TEST(SparsePosterior, AppendAndLookup) {
  SparsePosterior p(2, 5);
  const std::vector<SparsePosterior::Entry> r0{{1, 0.5F}, {3, 0.25F}};
  const std::vector<SparsePosterior::Entry> r1{{0, 1.0F}};
  p.append_row(r0);
  p.append_row(r1);
  EXPECT_EQ(p.nonzeros(), 3u);
  EXPECT_FLOAT_EQ(p.at(0, 1), 0.5F);
  EXPECT_FLOAT_EQ(p.at(0, 3), 0.25F);
  EXPECT_FLOAT_EQ(p.at(0, 2), 0.0F);
  EXPECT_FLOAT_EQ(p.at(1, 0), 1.0F);
  EXPECT_DOUBLE_EQ(p.total(), 1.75);
}

TEST(SparsePosterior, AppendRejectsOutOfRangeColumn) {
  SparsePosterior p(1, 2);
  const std::vector<SparsePosterior::Entry> row{{2, 0.5F}};
  EXPECT_THROW(p.append_row(row), std::out_of_range);
}

TEST(SparsePosterior, AppendRejectsUnsortedRow) {
  SparsePosterior p(1, 5);
  const std::vector<SparsePosterior::Entry> row{{3, 0.5F}, {1, 0.5F}};
  EXPECT_THROW(p.append_row(row), std::invalid_argument);
}

TEST(SparsePosterior, TransposeRoundTrip) {
  SparsePosterior p(3, 4);
  p.append_row(std::vector<SparsePosterior::Entry>{{0, 0.1F}, {3, 0.2F}});
  p.append_row(std::vector<SparsePosterior::Entry>{{1, 0.3F}});
  p.append_row(std::vector<SparsePosterior::Entry>{{0, 0.4F}, {2, 0.5F}});
  const SparsePosterior t = p.transposed();
  EXPECT_EQ(t.rows(), 4u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.nonzeros(), p.nonzeros());
  for (std::size_t i = 0; i < p.rows(); ++i)
    for (const auto& e : p.row(i))
      EXPECT_FLOAT_EQ(t.at(e.col, i), e.prob) << i << "," << e.col;
  // Double transpose restores the original.
  const SparsePosterior tt = t.transposed();
  for (std::size_t i = 0; i < p.rows(); ++i)
    for (const auto& e : p.row(i)) EXPECT_FLOAT_EQ(tt.at(i, e.col), e.prob);
}

// ---- PairHmm parameter validation ------------------------------------------

TEST(PairHmm, RejectsInvalidParams) {
  PairHmmParams bad;
  bad.gap_open = 0.0;
  EXPECT_THROW(PairHmm(SubstitutionMatrix::blosum62(), bad),
               std::invalid_argument);
  bad = PairHmmParams{};
  bad.gap_open = 0.5;
  EXPECT_THROW(PairHmm(SubstitutionMatrix::blosum62(), bad),
               std::invalid_argument);
  bad = PairHmmParams{};
  bad.gap_extend = 1.0;
  EXPECT_THROW(PairHmm(SubstitutionMatrix::blosum62(), bad),
               std::invalid_argument);
  bad = PairHmmParams{};
  bad.temperature = 0.0;
  EXPECT_THROW(PairHmm(SubstitutionMatrix::blosum62(), bad),
               std::invalid_argument);
}

TEST(PairHmm, RejectsEmptySequences) {
  const PairHmm hmm;
  const Sequence a = aa("a", "ACD");
  const Sequence empty("e", std::vector<std::uint8_t>{},
                       bio::AlphabetKind::AminoAcid);
  EXPECT_THROW((void)hmm.posterior(a, empty), std::invalid_argument);
  EXPECT_THROW((void)hmm.posterior(empty, a), std::invalid_argument);
}

TEST(PairHmm, RejectsAlphabetMismatch) {
  const PairHmm hmm;  // amino-acid BLOSUM62
  const Sequence a = aa("a", "ACD");
  const Sequence d("d", "ACGT", bio::AlphabetKind::Dna);
  EXPECT_THROW((void)hmm.posterior(a, d), std::invalid_argument);
}

// ---- posterior properties ---------------------------------------------------

TEST(PairHmm, PosteriorValuesAreProbabilities) {
  const PairHmm hmm;
  const auto p = hmm.posterior(aa("a", "MKVLATTWYGGSDERKL"),
                               aa("b", "MKVLATSWYGADERKL"));
  EXPECT_EQ(p.rows(), 17u);
  EXPECT_EQ(p.cols(), 16u);
  for (std::size_t i = 0; i < p.rows(); ++i)
    for (const auto& e : p.row(i)) {
      EXPECT_GT(e.prob, 0.0F);
      EXPECT_LE(e.prob, 1.0F);
    }
}

TEST(PairHmm, RowAndColumnMassAtMostOne) {
  // Each residue aligns to at most one partner residue on any path, so the
  // posterior mass of every row and every column is <= 1 (up to the
  // sparsification cut, which only removes mass).
  const PairHmm hmm;
  const auto p = hmm.posterior(aa("a", "MKVLATTWYGGSDERKLAAC"),
                               aa("b", "MKVATTWYGGSERKLAC"));
  std::vector<double> col_mass(p.cols(), 0.0);
  for (std::size_t i = 0; i < p.rows(); ++i) {
    double row_mass = 0.0;
    for (const auto& e : p.row(i)) {
      row_mass += e.prob;
      col_mass[e.col] += e.prob;
    }
    EXPECT_LE(row_mass, 1.0 + 1e-4) << "row " << i;
  }
  for (std::size_t j = 0; j < p.cols(); ++j)
    EXPECT_LE(col_mass[j], 1.0 + 1e-4) << "col " << j;
}

TEST(PairHmm, PosteriorIsSymmetricUnderSwap) {
  // The model is symmetric (same transitions for X and Y), so
  // P_ab(i, j) == P_ba(j, i).
  const PairHmm hmm;
  const Sequence a = aa("a", "MKVLATTWYGG");
  const Sequence b = aa("b", "MKVATTWYG");
  const auto pab = hmm.posterior(a, b);
  const auto pba = hmm.posterior(b, a);
  for (std::size_t i = 0; i < pab.rows(); ++i)
    for (const auto& e : pab.row(i))
      EXPECT_NEAR(pba.at(e.col, i), e.prob, 1e-4) << i << "," << e.col;
}

TEST(PairHmm, IdenticalSequencesConcentrateOnDiagonal) {
  const PairHmm hmm;
  const Sequence s = aa("s", "MKVLATTWYGGSDERKLAAC");
  const auto p = hmm.posterior(s, s);
  for (std::size_t i = 0; i < p.rows(); ++i) {
    EXPECT_GT(p.at(i, i), 0.5F) << "diagonal " << i;
    float best = 0.0F;
    std::size_t best_j = 0;
    for (const auto& e : p.row(i))
      if (e.prob > best) {
        best = e.prob;
        best_j = e.col;
      }
    EXPECT_EQ(best_j, i) << "row " << i;
  }
}

TEST(PairHmm, UnrelatedSequencesCarryLittleMass) {
  const PairHmm hmm;
  const auto related = hmm.posterior(aa("a", "MKVLATTWYGGSDERKLAAC"),
                                     aa("b", "MKVLATTWYGGSDERKLAAC"));
  const auto unrelated = hmm.posterior(aa("a", "MKVLATTWYGGSDERKLAAC"),
                                       aa("b", "PPPPGGGGHHHHNNNNQQQQ"));
  EXPECT_GT(related.total(), 4.0 * unrelated.total());
}

TEST(PairHmm, HigherGapOpenSpreadsPosterior) {
  // More permissive gaps admit more alternative paths, so the mass of the
  // best-scoring cell drops.
  const Sequence a = aa("a", "MKVLATTWYGGSDE");
  const Sequence b = aa("b", "MKVLTTWYGGSDE");
  PairHmmParams tight;
  tight.gap_open = 0.005;
  PairHmmParams loose;
  loose.gap_open = 0.15;
  const auto pt = PairHmm(SubstitutionMatrix::blosum62(), tight).posterior(a, b);
  const auto pl = PairHmm(SubstitutionMatrix::blosum62(), loose).posterior(a, b);
  EXPECT_GT(pt.at(0, 0), pl.at(0, 0));
}

TEST(PairHmm, CutoffControlsSparsity) {
  const Sequence a = aa("a", "MKVLATTWYGGSDERKLAAC");
  const Sequence b = aa("b", "MKVATTWYGGSERKLAC");
  PairHmmParams fine;
  fine.posterior_cutoff = 0.001;
  PairHmmParams coarse;
  coarse.posterior_cutoff = 0.2;
  const auto pf = PairHmm(SubstitutionMatrix::blosum62(), fine).posterior(a, b);
  const auto pc =
      PairHmm(SubstitutionMatrix::blosum62(), coarse).posterior(a, b);
  EXPECT_GT(pf.nonzeros(), pc.nonzeros());
  EXPECT_GE(pf.total(), pc.total());
}

TEST(PairHmm, SingleResiduePair) {
  const PairHmm hmm;
  const auto p = hmm.posterior(aa("a", "M"), aa("b", "M"));
  EXPECT_EQ(p.rows(), 1u);
  EXPECT_EQ(p.cols(), 1u);
  // With start prob (1-2d) into M, the only-match path dominates.
  EXPECT_GT(p.at(0, 0), 0.8F);
}

// ---- MEA decode -------------------------------------------------------------

TEST(PairHmm, MeaAlignRecoversIdentity) {
  const PairHmm hmm;
  const Sequence s = aa("s", "MKVLATTWYGGSDERKLAAC");
  const auto p = hmm.posterior(s, s);
  const MeaResult mea = PairHmm::mea_align(p);
  ASSERT_EQ(mea.matches.size(), s.size());
  for (std::size_t i = 0; i < mea.matches.size(); ++i) {
    EXPECT_EQ(mea.matches[i].first, i);
    EXPECT_EQ(mea.matches[i].second, i);
  }
  EXPECT_GT(mea.expected_accuracy, 0.8);
  EXPECT_LE(mea.expected_accuracy, 1.0 + 1e-6);
}

TEST(PairHmm, MeaMatchesAreStrictlyIncreasing) {
  const PairHmm hmm;
  const auto p = hmm.posterior(aa("a", "MKVLATTWYGGSDERKLAAC"),
                               aa("b", "MKVATTWYGVSERKLAC"));
  const MeaResult mea = PairHmm::mea_align(p);
  for (std::size_t k = 1; k < mea.matches.size(); ++k) {
    EXPECT_LT(mea.matches[k - 1].first, mea.matches[k].first);
    EXPECT_LT(mea.matches[k - 1].second, mea.matches[k].second);
  }
}

TEST(PairHmm, MeaOnEmptyPosterior) {
  const MeaResult mea = PairHmm::mea_align(SparsePosterior(0, 0));
  EXPECT_EQ(mea.matches.size(), 0u);
  EXPECT_DOUBLE_EQ(mea.expected_correct, 0.0);
}

TEST(PairHmm, ExpectedAccuracyTracksDivergence) {
  // Expected accuracy must fall as true divergence grows — it is the
  // distance signal the ProbCons guide tree is built from.
  double prev = 1.1;
  for (const double d : {0.05, 0.4, 1.2}) {
    workload::EvolveParams ep;
    ep.num_sequences = 2;
    ep.root_length = 100;
    ep.mean_branch_distance = d;
    ep.seed = 17;
    const auto fam = workload::evolve_family(ep);
    const PairHmm hmm;
    const auto p = hmm.posterior(fam.sequences[0], fam.sequences[1]);
    const double acc = PairHmm::mea_align(p).expected_accuracy;
    EXPECT_LT(acc, prev) << "divergence " << d;
    prev = acc;
  }
}

TEST(PairHmm, CheckpointedForwardMatchesFullMatrix) {
  // The checkpointed forward pass (max_forward_cells exceeded → K-th-row
  // checkpoints + block recompute) must reproduce the full-matrix
  // posteriors bit for bit: both paths run the identical row recurrence.
  workload::EvolveParams ep;
  ep.num_sequences = 2;
  ep.root_length = 230;  // odd-sized, not a checkpoint-interval multiple
  ep.mean_branch_distance = 0.6;
  ep.seed = 23;
  const auto fam = workload::evolve_family(ep);

  PairHmmParams full_params;
  const PairHmm full_hmm(SubstitutionMatrix::blosum62(), full_params);
  PairHmmParams ck_params;
  ck_params.max_forward_cells = 1;  // force checkpointing
  const PairHmm ck_hmm(SubstitutionMatrix::blosum62(), ck_params);

  for (const auto& [x, y] : {std::pair{0, 1}, std::pair{1, 0}}) {
    const SparsePosterior a = full_hmm.posterior(
        fam.sequences[static_cast<std::size_t>(x)],
        fam.sequences[static_cast<std::size_t>(y)]);
    const SparsePosterior b = ck_hmm.posterior(
        fam.sequences[static_cast<std::size_t>(x)],
        fam.sequences[static_cast<std::size_t>(y)]);
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.nonzeros(), b.nonzeros());
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const auto ra = a.row(i);
      const auto rb = b.row(i);
      ASSERT_EQ(ra.size(), rb.size()) << "row " << i;
      for (std::size_t k = 0; k < ra.size(); ++k) {
        EXPECT_EQ(ra[k].col, rb[k].col) << i;
        EXPECT_EQ(ra[k].prob, rb[k].prob) << i;  // bit-identical
      }
    }
  }
}

TEST(PairHmm, CheckpointedForwardShortSequences) {
  // Tiny inputs (m < checkpoint interval) on the forced-checkpoint path.
  PairHmmParams p;
  p.max_forward_cells = 1;
  const PairHmm ck(SubstitutionMatrix::blosum62(), p);
  const PairHmm full;
  const Sequence sa = aa("a", "MKV");
  const Sequence sb = aa("b", "MKVW");
  const SparsePosterior pa = full.posterior(sa, sb);
  const SparsePosterior pb = ck.posterior(sa, sb);
  ASSERT_EQ(pa.nonzeros(), pb.nonzeros());
  for (std::size_t i = 0; i < pa.rows(); ++i) {
    const auto ra = pa.row(i);
    const auto rb = pb.row(i);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t k = 0; k < ra.size(); ++k)
      EXPECT_EQ(ra[k].prob, rb[k].prob);
  }
}

// ---- ProbConsAligner specifics ----------------------------------------------

TEST(ProbConsAligner, RejectsOversizedInput) {
  std::vector<Sequence> seqs;
  for (std::size_t i = 0; i <= kMaxConsistencySequences; ++i)
    seqs.push_back(aa(util::indexed_name("s", i), "ACDEF"));
  EXPECT_THROW((void)ProbConsAligner().align(seqs), std::invalid_argument);
}

TEST(ProbConsAligner, RejectsInvalidOptions) {
  ProbConsOptions o;
  o.consistency_reps = -1;
  EXPECT_THROW(ProbConsAligner{o}, std::invalid_argument);
  o = ProbConsOptions{};
  o.refine_passes = -2;
  EXPECT_THROW(ProbConsAligner{o}, std::invalid_argument);
}

TEST(ProbConsAligner, RejectsEmptySequence) {
  std::vector<Sequence> seqs{
      aa("a", "ACDEF"),
      Sequence("b", std::vector<std::uint8_t>{}, bio::AlphabetKind::AminoAcid)};
  EXPECT_THROW((void)ProbConsAligner().align(seqs), std::invalid_argument);
}

TEST(ProbConsAligner, TwoIdenticalSequencesAlignWithoutGaps) {
  std::vector<Sequence> seqs{aa("a", "MKVLATTWYGGSDERKL"),
                             aa("b", "MKVLATTWYGGSDERKL")};
  const Alignment a = ProbConsAligner().align(seqs);
  EXPECT_EQ(a.num_cols(), 17u);
  EXPECT_EQ(a.row_text(0), a.row_text(1));
}

TEST(ProbConsAligner, HandlesSingleInsertion) {
  std::vector<Sequence> seqs{aa("a", "MKVLATTWYGGSDERKL"),
                             aa("b", "MKVLATTAWYGGSDERKL")};
  const Alignment a = ProbConsAligner().align(seqs);
  EXPECT_EQ(a.num_cols(), 18u);
  EXPECT_EQ(a.degapped(0).text(), "MKVLATTWYGGSDERKL");
  EXPECT_EQ(a.degapped(1).text(), "MKVLATTAWYGGSDERKL");
}

TEST(ProbConsAligner, ConsistencyImprovesDivergentFamilies) {
  // The consistency transform is ProbCons's contribution; on divergent
  // families it should not hurt (and usually helps) reference recovery.
  workload::EvolveParams ep;
  ep.num_sequences = 8;
  ep.root_length = 80;
  ep.mean_branch_distance = 0.8;
  ep.seed = 23;
  const auto fam = workload::evolve_family(ep);
  ProbConsOptions none;
  none.consistency_reps = 0;
  none.refine_passes = 0;
  ProbConsOptions two;
  two.consistency_reps = 2;
  two.refine_passes = 0;
  const double q0 =
      q_score(ProbConsAligner(none).align(fam.sequences), fam.reference);
  const double q2 =
      q_score(ProbConsAligner(two).align(fam.sequences), fam.reference);
  EXPECT_GE(q2, q0 - 0.02);
}

TEST(ProbConsAligner, RefinementPreservesContract) {
  workload::EvolveParams ep;
  ep.num_sequences = 7;
  ep.root_length = 60;
  ep.mean_branch_distance = 0.5;
  ep.seed = 29;
  const auto fam = workload::evolve_family(ep);
  ProbConsOptions o;
  o.refine_passes = 5;
  const Alignment a = ProbConsAligner(o).align(fam.sequences);
  a.validate();
  for (std::size_t i = 0; i < fam.sequences.size(); ++i)
    EXPECT_EQ(a.degapped(i), fam.sequences[i]);
}

TEST(ProbConsAligner, BeatsOrMatchesProgressiveOnHardFamilies) {
  // The headline property of consistency methods (and why ProbCons tops
  // quality benchmarks): better recovery on divergent sets than plain
  // progressive alignment. Averaged over seeds to damp variance.
  double probcons_total = 0.0;
  double muscle_total = 0.0;
  for (std::uint64_t seed : {31ULL, 37ULL, 41ULL}) {
    workload::EvolveParams ep;
    ep.num_sequences = 8;
    ep.root_length = 70;
    ep.mean_branch_distance = 0.9;
    ep.seed = seed;
    const auto fam = workload::evolve_family(ep);
    probcons_total +=
        q_score(ProbConsAligner().align(fam.sequences), fam.reference);
    muscle_total +=
        q_score(MuscleAligner().align(fam.sequences), fam.reference);
  }
  EXPECT_GT(probcons_total, muscle_total - 0.15);
}

}  // namespace
}  // namespace salign::msa
