#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "kmer/kmer_rank.hpp"
#include "msa/consensus.hpp"
#include "msa/guide_tree.hpp"
#include "msa/induced_identity.hpp"
#include "msa/profile.hpp"
#include "msa/profile_align.hpp"
#include "msa/progressive.hpp"
#include "msa/refinement.hpp"
#include "msa/scoring.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "workload/evolver.hpp"
#include "workload/rose.hpp"

namespace salign::msa {
namespace {

using bio::Sequence;
using bio::SubstitutionMatrix;

const SubstitutionMatrix& B62() { return SubstitutionMatrix::blosum62(); }

std::vector<Sequence> family(std::size_t n, std::size_t len, double rel,
                             std::uint64_t seed) {
  return workload::rose_sequences(
      {.num_sequences = n, .average_length = len, .relatedness = rel,
       .seed = seed});
}

GuideTree tree_for(std::span<const Sequence> seqs) {
  return GuideTree::upgma(kmer::distance_matrix(seqs, {}));
}

// ---- progressive_align -----------------------------------------------------------

TEST(Progressive, SingleSequence) {
  const auto seqs = family(1, 30, 300, 1);
  const Alignment a = progressive_align(seqs, tree_for(seqs), B62());
  EXPECT_EQ(a.num_rows(), 1u);
  EXPECT_EQ(a.degapped(0), seqs[0]);
}

TEST(Progressive, AllRowsEqualLength) {
  const auto seqs = family(12, 50, 600, 2);
  const Alignment a = progressive_align(seqs, tree_for(seqs), B62());
  EXPECT_EQ(a.num_rows(), 12u);
  a.validate();
  EXPECT_GE(a.num_cols(), 50u);
}

TEST(Progressive, DegapRestoresEveryInput) {
  const auto seqs = family(10, 40, 700, 3);
  const Alignment a = progressive_align(seqs, tree_for(seqs), B62());
  // Rows are in tree leaf order; match them back by id.
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    const Sequence d = a.degapped(r);
    bool found = false;
    for (const auto& s : seqs)
      if (s.id() == d.id()) {
        EXPECT_EQ(d, s);
        found = true;
      }
    EXPECT_TRUE(found) << d.id();
  }
}

TEST(Progressive, IdenticalSequencesAlignWithoutGaps) {
  std::vector<Sequence> seqs;
  for (std::size_t i = 0; i < 5; ++i)
    seqs.emplace_back(util::indexed_name("s", i), "MKVLATTWYGGSDERK");
  const Alignment a = progressive_align(seqs, tree_for(seqs), B62());
  EXPECT_EQ(a.num_cols(), 16u);
  for (std::size_t r = 0; r < a.num_rows(); ++r)
    EXPECT_EQ(a.residue_count(r), 16u);
}

TEST(Progressive, MismatchedTreeThrows) {
  const auto seqs = family(5, 30, 300, 4);
  const auto small = family(3, 30, 300, 5);
  EXPECT_THROW(
      (void)progressive_align(seqs, tree_for(small), B62()),
      std::invalid_argument);
}

TEST(Progressive, WeightsAreAccepted) {
  const auto seqs = family(6, 40, 500, 6);
  const GuideTree t = tree_for(seqs);
  ProgressiveOptions po;
  po.weights = t.leaf_weights();
  const Alignment a = progressive_align(seqs, t, B62(), po);
  a.validate();
  EXPECT_EQ(a.num_rows(), 6u);
}

TEST(Progressive, BandProviderIsCalled) {
  const auto seqs = family(4, 40, 300, 7);
  ProgressiveOptions po;
  int calls = 0;
  po.band_provider = [&calls](const Alignment&, const Alignment&) {
    ++calls;
    return std::size_t{0};
  };
  (void)progressive_align(seqs, tree_for(seqs), B62(), po);
  EXPECT_EQ(calls, 3);  // n-1 merges
}

// ---- sequence-sequence merges ---------------------------------------------------
//
// A merge of two leaves runs the pairwise integer ladder when the
// penalties are integers; every merge must still equal the profile DP on
// the two one-row profiles, ties included.

/// Two-leaf progressive_align of (a, b) against the profile path's merge of
/// the same two leaves, in the tree's child order.
void expect_profile_merge(const Sequence& a, const Sequence& b,
                          const SubstitutionMatrix& matrix,
                          bio::GapPenalties gaps, double wa, double wb,
                          const std::string& what) {
  const std::vector<Sequence> seqs{a, b};
  util::SymmetricMatrix<double> d(2);
  d(1, 0) = 0.5;
  const GuideTree tree = GuideTree::upgma(std::move(d));
  ProgressiveOptions po;
  po.gaps = gaps;
  po.weights = {wa, wb};
  const Alignment got = progressive_align(seqs, tree, matrix, po);

  const TreeNode& root = tree.node(static_cast<std::size_t>(tree.root()));
  const auto leaf = [&](int id) {
    return static_cast<std::size_t>(
        tree.node(static_cast<std::size_t>(id)).leaf_index);
  };
  const std::size_t l = leaf(root.left);
  const std::size_t r = leaf(root.right);
  const Alignment left = Alignment::from_sequence(seqs[l]);
  const Alignment right = Alignment::from_sequence(seqs[r]);
  const std::vector<double> wl{po.weights[l]};
  const std::vector<double> wr{po.weights[r]};
  ProfileAlignOptions pa;
  pa.gaps = gaps;
  const Alignment want = merge_alignments(
      left, right,
      align_profiles(Profile(left, matrix, wl), Profile(right, matrix, wr), pa)
          .ops);
  ASSERT_EQ(got.num_rows(), 2u) << what;
  for (std::size_t row = 0; row < 2; ++row)
    ASSERT_EQ(got.row_text(row), want.row_text(row))
        << what << " open " << gaps.open << " ext " << gaps.extend;
}

/// Random, near-identical and low-complexity (tie-heavy) pairs with lengths
/// 1..600 over the matrix's alphabet.
std::vector<std::pair<Sequence, Sequence>> merge_pairs(
    const SubstitutionMatrix& matrix, util::Rng& rng) {
  const bio::AlphabetKind kind = matrix.alphabet_kind();
  const auto letters =
      static_cast<std::uint64_t>(bio::Alphabet::get(kind).size()) - 1;
  const auto seq = [&](const char* id, std::vector<std::uint8_t> codes) {
    return Sequence(id, std::move(codes), kind);
  };
  const auto random_codes = [&](std::size_t len, std::uint64_t alpha) {
    std::vector<std::uint8_t> c(len);
    for (auto& x : c) x = static_cast<std::uint8_t>(rng.below(alpha));
    return c;
  };
  std::vector<std::pair<Sequence, Sequence>> out;
  for (std::size_t len : {1, 2, 3, 4, 5, 9, 31, 64, 150, 333, 600}) {
    const std::size_t other = 1 + rng.below(std::min<std::size_t>(600, 2 * len));
    out.emplace_back(seq("a", random_codes(len, letters)),
                     seq("b", random_codes(other, letters)));
    // Near-identical: point substitutions and short indels.
    const std::vector<std::uint8_t> base = random_codes(len, letters);
    std::vector<std::uint8_t> near;
    for (std::uint8_t c : base) {
      if (rng.chance(0.03)) continue;
      near.push_back(rng.chance(0.05)
                         ? static_cast<std::uint8_t>(rng.below(letters))
                         : c);
      if (rng.chance(0.03)) near.push_back(c);
    }
    if (near.empty()) near.push_back(base.front());
    out.emplace_back(seq("a", base), seq("b", near));
    // Low complexity: two-letter and one-letter runs tie almost every move.
    out.emplace_back(seq("a", random_codes(len, 2)),
                     seq("b", random_codes(other, 2)));
    out.emplace_back(seq("a", std::vector<std::uint8_t>(len, 0)),
                     seq("b", std::vector<std::uint8_t>(other, 0)));
  }
  return out;
}

TEST(ProgressiveSequenceMerge, MatchesProfileMergeOnEveryShippedMatrix) {
  util::Rng rng(2929);
  for (const SubstitutionMatrix* matrix :
       {&SubstitutionMatrix::blosum62(), &SubstitutionMatrix::pam250(),
        &SubstitutionMatrix::dna_default()}) {
    const bio::GapPenalties integral = matrix->default_gaps();
    for (const auto& [a, b] : merge_pairs(*matrix, rng)) {
      const double wa = rng.chance(0.5) ? 1.0 : rng.uniform(0.05, 3.0);
      const double wb = rng.chance(0.5) ? 1.0 : rng.uniform(0.05, 3.0);
      const std::string what = std::string(matrix->name()) + " " +
                               std::to_string(a.size()) + "x" +
                               std::to_string(b.size());
      expect_profile_merge(a, b, *matrix, integral, wa, wb, what);
      // Fractional penalties keep the merge on the profile path: the
      // pairwise boundary runs -(open + ext * (k - 1)) round differently
      // from the profile DP's accumulated ones.
      for (const bio::GapPenalties fractional :
           {bio::GapPenalties{10.5F, 0.5F}, bio::GapPenalties{10.1F, 0.3F},
            bio::GapPenalties{integral.open + 0.7F, integral.extend}})
        expect_profile_merge(a, b, *matrix, fractional, wa, wb, what);
    }
  }
}

TEST(ProgressiveSequenceMerge, RejectedInputsThrowTheProfileErrors) {
  const std::vector<Sequence> seqs{Sequence("a", "MKVLATTWYG"),
                                   Sequence("b", "MKVLSTWYG")};
  util::SymmetricMatrix<double> d(2);
  d(1, 0) = 0.5;
  const GuideTree tree = GuideTree::upgma(std::move(d));
  const auto message = [&](const std::vector<Sequence>& in,
                           std::vector<double> weights) -> std::string {
    ProgressiveOptions po;
    po.gaps = B62().default_gaps();
    po.weights = std::move(weights);
    try {
      (void)progressive_align(in, tree, B62(), po);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no exception";
  };
  EXPECT_EQ(message(seqs, {1.0, 0.0}), "Profile: non-positive weights");
  EXPECT_EQ(message(seqs, {0.0, 1.0}), "Profile: non-positive weights");
  EXPECT_EQ(message(seqs, {1.0, -2.0}), "Profile: negative weight");
  const std::vector<Sequence> dna{Sequence("a", "ACGT", bio::AlphabetKind::Dna),
                                  Sequence("b", "ACT", bio::AlphabetKind::Dna)};
  EXPECT_EQ(message(dna, {}), "Profile: matrix/alignment alphabet mismatch");
}

// ---- replaying a recorded pass ---------------------------------------------
//
// progressive_realign must equal progressive_align byte for byte, replaying
// only the merges whose inputs are provably the recorded pass's.

std::string rows_text(const Alignment& aln) {
  std::string out;
  for (std::size_t r = 0; r < aln.num_rows(); ++r)
    out += aln.row(r).id + " " + aln.row_text(r) + "\n";
  return out;
}

/// A tree over `n` leaves whose internal node n + k merges merges[k]
/// (left, right); the last one is the root.
GuideTree tree_from(std::size_t n,
                    std::initializer_list<std::pair<int, int>> merges) {
  std::vector<TreeNode> nodes(n);
  for (std::size_t i = 0; i < n; ++i) nodes[i].leaf_index = static_cast<int>(i);
  for (const auto& [l, r] : merges) {
    const int id = static_cast<int>(nodes.size());
    nodes[static_cast<std::size_t>(l)].parent = id;
    nodes[static_cast<std::size_t>(r)].parent = id;
    TreeNode parent;
    parent.left = l;
    parent.right = r;
    nodes.push_back(parent);
  }
  const int root = static_cast<int>(nodes.size()) - 1;
  return GuideTree::from_nodes(std::move(nodes), n, root);
}

/// The record of a pass along `tree` at `po`, holding its tree and weights.
MergeRecord record_pass(std::span<const Sequence> seqs, const GuideTree& tree,
                        const ProgressiveOptions& po) {
  MergeRecord first;
  (void)progressive_align(seqs, tree, B62(), po, &first);
  first.tree = tree;
  first.weights = po.weights;
  return first;
}

/// Realigns along `tree` at `po` from `first`, checks the result against a
/// fresh pass and returns the number of merges replayed.
std::size_t realign_checked(std::span<const Sequence> seqs,
                            const GuideTree& tree, const ProgressiveOptions& po,
                            const MergeRecord& first) {
  std::size_t replayed = 0;
  const Alignment got =
      progressive_realign(seqs, tree, B62(), po, first, &replayed);
  EXPECT_EQ(rows_text(got),
            rows_text(progressive_align(seqs, tree, B62(), po)));
  return replayed;
}

TEST(ProgressiveRealign, MatchesAFreshPassOnRoseFamilies) {
  // MiniMuscle's two passes: k-mer UPGMA, then UPGMA on the Kimura
  // distances of the first alignment, each with its tree's weights.
  for (const auto& [n, len, seed] :
       {std::tuple{80, 120, 1}, std::tuple{160, 100, 2}}) {
    const auto seqs = family(static_cast<std::size_t>(n),
                             static_cast<std::size_t>(len), 700,
                             static_cast<std::uint64_t>(seed));
    for (const unsigned threads : {1U, 4U}) {
      const std::string what = std::to_string(n) + "x" + std::to_string(len) +
                               " threads " + std::to_string(threads);
      ProgressiveOptions po;
      po.gaps = B62().default_gaps();
      po.threads = threads;
      const GuideTree tree1 = tree_for(seqs);
      po.weights = tree1.leaf_weights();
      MergeRecord first;
      const Alignment stage1 =
          progressive_align(seqs, tree1, B62(), po, &first);
      ASSERT_EQ(first.offsets.size(), seqs.size()) << what;
      first.tree = tree1;
      first.weights = po.weights;

      const GuideTree tree2 = GuideTree::upgma(
          induced_kimura_distances(in_input_order(stage1, seqs), threads));
      po.weights = tree2.leaf_weights();
      std::size_t replayed = 0;
      const Alignment got =
          progressive_realign(seqs, tree2, B62(), po, first, &replayed);
      EXPECT_EQ(rows_text(got),
                rows_text(progressive_align(seqs, tree2, B62(), po)))
          << what;
      EXPECT_GT(replayed, 0U) << what;
      EXPECT_LT(replayed, seqs.size() - 1) << what;
    }
  }
}

TEST(ProgressiveRealign, ReorderedOrRegroupedChildrenAreNotReplayed) {
  const auto seqs = family(4, 40, 700, 5);
  ProgressiveOptions po;
  po.gaps = B62().default_gaps();
  const GuideTree recorded = tree_from(4, {{0, 1}, {2, 3}, {4, 5}});
  const MergeRecord first = record_pass(seqs, recorded, po);
  const auto replayed = [&](const GuideTree& tree) {
    return realign_checked(seqs, tree, po, first);
  };
  EXPECT_EQ(replayed(recorded), 3U);
  // The cherry {0, 1} with its children swapped: only {2, 3} replays.
  EXPECT_EQ(replayed(tree_from(4, {{1, 0}, {2, 3}, {4, 5}})), 1U);
  // The root with its children swapped.
  EXPECT_EQ(replayed(tree_from(4, {{0, 1}, {2, 3}, {5, 4}})), 2U);
  // Children of two different recorded parents.
  EXPECT_EQ(replayed(tree_from(4, {{0, 2}, {1, 3}, {4, 5}})), 0U);
}

TEST(ProgressiveRealign, ChangedProfileWeightsAreNotReplayed) {
  // In this family, moving weight from row 0 to row 1 moves a gap of the
  // root merge.
  const auto seqs = family(3, 30, 900, 11);
  const GuideTree tree = tree_from(3, {{0, 1}, {3, 2}});
  ProgressiveOptions po;
  po.gaps = B62().default_gaps();
  po.weights = {4.0, 0.25, 1.0};
  const MergeRecord first = record_pass(seqs, tree, po);
  ProgressiveOptions moved = po;
  moved.weights = {0.25, 4.0, 1.0};
  ASSERT_NE(rows_text(progressive_align(seqs, tree, B62(), moved)),
            rows_text(progressive_align(seqs, tree, B62(), po)));
  // The cherry's sequence-pair merge ignores weights; the root does not.
  EXPECT_EQ(realign_checked(seqs, tree, moved, first), 1U);
  // Doubled weights normalize to the same floats, so the root replays too.
  ProgressiveOptions doubled = po;
  doubled.weights = {8.0, 0.5, 2.0};
  EXPECT_EQ(realign_checked(seqs, tree, doubled, first), 2U);
}

TEST(ProgressiveRealign, CherryOffTheSequencePairBranchIsNotReplayed) {
  // An infinite weight fails sequence_pair_merge's gate, so that pass
  // merges the cherry {0, 1} as profiles, on another path.
  const auto seqs = family(3, 40, 900, 3);
  const GuideTree tree = tree_from(3, {{0, 1}, {3, 2}});
  ProgressiveOptions po;
  po.gaps = B62().default_gaps();
  po.weights = {1.0, 1.0, 1.0};
  ProgressiveOptions gated = po;
  gated.weights = {std::numeric_limits<double>::infinity(), 1.0, 1.0};
  ASSERT_NE(rows_text(progressive_align(seqs, tree, B62(), gated)),
            rows_text(progressive_align(seqs, tree, B62(), po)));
  // Off the pair branch in the replaying pass, then in the recorded one.
  EXPECT_EQ(realign_checked(seqs, tree, gated, record_pass(seqs, tree, po)),
            0U);
  EXPECT_EQ(realign_checked(seqs, tree, po, record_pass(seqs, tree, gated)),
            0U);
}

TEST(ProgressiveRealign, NothingIsReplayedUnderABandOrOtherGaps) {
  const auto seqs = family(6, 40, 700, 4);
  const GuideTree tree = tree_for(seqs);
  ProgressiveOptions po;
  po.gaps = B62().default_gaps();
  const MergeRecord first = record_pass(seqs, tree, po);
  EXPECT_EQ(realign_checked(seqs, tree, po, first), seqs.size() - 1);
  ProgressiveOptions banded = po;
  banded.band = 8;
  EXPECT_EQ(realign_checked(seqs, tree, banded, first), 0U);
  ProgressiveOptions other = po;
  other.gaps.open += 1.0F;
  EXPECT_EQ(realign_checked(seqs, tree, other, first), 0U);
  // A banded pass records nothing to replay.
  EXPECT_TRUE(record_pass(seqs, tree, banded).offsets.empty());
  // A record of other sequences is refused.
  const auto five = std::span<const Sequence>(seqs).first(5);
  EXPECT_THROW(
      (void)progressive_realign(five, tree_for(five), B62(), po, first),
      std::invalid_argument);
}

// ---- consensus ---------------------------------------------------------------------

TEST(Consensus, MajorityResidues) {
  const Alignment a = Alignment::from_texts(
      std::vector<std::pair<std::string, std::string>>{
          {"a", "AC"}, {"b", "AC"}, {"c", "AD"}});
  const Sequence c = consensus_sequence(a, "anc");
  EXPECT_EQ(c.text(), "AC");
  EXPECT_EQ(c.id(), "anc");
}

TEST(Consensus, GappyColumnsDropped) {
  const Alignment a = Alignment::from_texts(
      std::vector<std::pair<std::string, std::string>>{
          {"a", "A-C"}, {"b", "A-C"}, {"c", "AWC"}});
  const Sequence c = consensus_sequence(a, "anc");
  EXPECT_EQ(c.text(), "AC");  // middle column is 2/3 gaps
}

TEST(Consensus, ThresholdConfigurable) {
  const Alignment a = Alignment::from_texts(
      std::vector<std::pair<std::string, std::string>>{
          {"a", "A-"}, {"b", "AW"}});
  ConsensusOptions keep_all;
  keep_all.max_gap_fraction = 0.6;
  EXPECT_EQ(consensus_sequence(a, "anc", keep_all).text(), "AW");
  ConsensusOptions strict;
  strict.max_gap_fraction = 0.3;
  EXPECT_EQ(consensus_sequence(a, "anc", strict).text(), "A");
}

TEST(Consensus, TieBreaksTowardLowerCode) {
  // Two A's vs two C's: A (code 0) wins deterministically.
  const Alignment a = Alignment::from_texts(
      std::vector<std::pair<std::string, std::string>>{
          {"a", "A"}, {"b", "A"}, {"c", "C"}, {"d", "C"}});
  EXPECT_EQ(consensus_sequence(a, "anc").text(), "A");
}

TEST(Consensus, EmptyAlignmentThrows) {
  EXPECT_THROW((void)consensus_sequence(Alignment{}, "anc"),
               std::invalid_argument);
}

TEST(Consensus, ConsensusOfIdenticalRowsIsTheSequence) {
  std::vector<Sequence> seqs;
  for (std::size_t i = 0; i < 4; ++i)
    seqs.emplace_back(util::indexed_name("s", i), "MKWVLT");
  const Alignment a = progressive_align(seqs, tree_for(seqs), B62());
  EXPECT_EQ(consensus_sequence(a, "anc").text(), "MKWVLT");
}

// ---- refinement ------------------------------------------------------------------

TEST(Refine, NeverDegradesObjective) {
  const auto seqs = family(8, 40, 800, 8);
  const GuideTree t = tree_for(seqs);
  Alignment a = progressive_align(seqs, t, B62());
  const double before = sp_score(a, B62(), B62().default_gaps());

  // Rows are in tree leaf order; build row_of_leaf accordingly.
  std::vector<std::size_t> row_of_leaf(seqs.size());
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    for (std::size_t s = 0; s < seqs.size(); ++s)
      if (seqs[s].id() == a.row(r).id) row_of_leaf[s] = r;
  }
  RefineOptions ro;
  ro.passes = 2;
  ro.gaps = B62().default_gaps();
  refine(a, t, row_of_leaf, B62(), ro);
  a.validate();
  const double after = sp_score(a, B62(), B62().default_gaps());
  // The PSP objective is not identical to SP, but refinement should not
  // collapse the alignment; allow slack but catch catastrophic regressions.
  EXPECT_GT(after, before - std::abs(before) * 0.2 - 50.0);
  // Degap invariant survives refinement.
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    const Sequence d = a.degapped(r);
    bool found = false;
    for (const auto& s : seqs)
      if (s == d) found = true;
    EXPECT_TRUE(found);
  }
}

TEST(Refine, ReportsAcceptedCount) {
  const auto seqs = family(6, 30, 900, 9);
  const GuideTree t = tree_for(seqs);
  Alignment a = progressive_align(seqs, t, B62());
  std::vector<std::size_t> row_of_leaf(seqs.size());
  for (std::size_t r = 0; r < a.num_rows(); ++r)
    for (std::size_t s = 0; s < seqs.size(); ++s)
      if (seqs[s].id() == a.row(r).id) row_of_leaf[s] = r;
  RefineOptions ro;
  ro.passes = 1;
  const std::size_t accepted = refine(a, t, row_of_leaf, B62(), ro);
  // Progressive output is already PSP-locally-optimal at the root edge, so
  // few acceptances are expected — just require the call to be well-formed.
  EXPECT_LE(accepted, 2 * seqs.size());
}

TEST(Refine, TwoRowAlignmentIsStable) {
  const auto seqs = family(2, 30, 400, 10);
  const GuideTree t = tree_for(seqs);
  Alignment a = progressive_align(seqs, t, B62());
  const std::string before = a.row_text(0) + "/" + a.row_text(1);
  std::vector<std::size_t> row_of_leaf{0, 1};
  if (a.row(0).id != seqs[0].id()) row_of_leaf = {1, 0};
  RefineOptions ro;
  ro.passes = 3;
  refine(a, t, row_of_leaf, B62(), ro);
  // A 2-row alignment re-aligned by the same objective must stay optimal.
  EXPECT_EQ(a.row_text(0) + "/" + a.row_text(1), before);
}

TEST(Refine, BadRowMapThrows) {
  const auto seqs = family(3, 20, 400, 11);
  const GuideTree t = tree_for(seqs);
  Alignment a = progressive_align(seqs, t, B62());
  const std::vector<std::size_t> wrong_size{0, 1};
  EXPECT_THROW(refine(a, t, wrong_size, B62(), {}), std::invalid_argument);
}

}  // namespace
}  // namespace salign::msa
