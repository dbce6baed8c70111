// Invariance suites: (a) the wavefront profile DP (the library's one
// profile-DP kernel, VecF lanes wide or one lane in scalar builds) must be
// bit-identical to the row-major oracle (tests/oracles/profile_dp.hpp) on
// randomized PSP profiles and T-Coffee-style dense score matrices, bands
// and trace budgets; (b) the guide-tree task scheduler must produce
// bit-identical alignments for every thread count, across every aligner
// built on it and the full Sample-Align-D pipeline; (c) the shared thread
// pool's fork-join primitive behaves under contention and nesting.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sample_align_d.hpp"
#include "kmer/kmer_rank.hpp"
#include "msa/clustalw_like.hpp"
#include "msa/mafft_like.hpp"
#include "msa/muscle_like.hpp"
#include "msa/probcons_like.hpp"
#include "msa/profile.hpp"
#include "msa/profile_align.hpp"
#include "msa/progressive.hpp"
#include "msa/tcoffee_like.hpp"
#include "msa/tree_schedule.hpp"
#include "oracles/profile_dp.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
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

std::string fingerprint(const Alignment& a) {
  std::string fp;
  for (std::size_t r = 0; r < a.num_rows(); ++r)
    fp += a.row(r).id + ":" + a.row_text(r) + "\n";
  return fp;
}

// ---- thread pool -----------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (unsigned threads : {1U, 2U, 3U, 8U, 64U}) {
    std::vector<std::atomic<int>> hits(1000);
    util::parallel_for(
        hits.size(),
        [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) ++hits[i];
        },
        threads);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, NestedParallelForCompletes) {
  std::atomic<int> total{0};
  util::parallel_for(
      8,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
          util::parallel_for(
              16, [&](std::size_t b2, std::size_t e2) {
                total += static_cast<int>(e2 - b2);
              },
              4);
      },
      4);
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPool, RunPropagatesWorkerException) {
  util::ThreadPool& pool = util::ThreadPool::shared();
  std::atomic<int> calls{0};
  EXPECT_THROW(
      pool.run(3,
               [&] {
                 if (calls.fetch_add(1) == 0)
                   throw std::runtime_error("boom");
               }),
      std::runtime_error);
}

TEST(ThreadPool, ZeroExtraWorkersRunsInline) {
  util::ThreadPool local(0);
  int calls = 0;
  local.run(4, [&] { ++calls; });
  EXPECT_EQ(calls, 1);
}

// ---- schedule_tree ---------------------------------------------------------

TEST(ScheduleTree, RespectsDependenciesForEveryThreadCount) {
  const auto seqs = family(33, 30, 600, 11);
  const GuideTree tree =
      GuideTree::upgma(kmer::distance_matrix(seqs, {}));
  for (unsigned threads : {1U, 2U, 5U, 16U}) {
    std::vector<std::atomic<int>> done(tree.num_nodes());
    std::atomic<int> order_violations{0};
    schedule_tree(tree, threads, [&](int id) {
      const TreeNode& nd = tree.node(static_cast<std::size_t>(id));
      if (nd.left >= 0) {
        if (done[static_cast<std::size_t>(nd.left)].load() != 1 ||
            done[static_cast<std::size_t>(nd.right)].load() != 1)
          ++order_violations;
      }
      ++done[static_cast<std::size_t>(id)];
    });
    EXPECT_EQ(order_violations.load(), 0) << threads;
    for (const auto& d : done) EXPECT_EQ(d.load(), 1);
  }
}

TEST(ScheduleTree, PropagatesNodeException) {
  const auto seqs = family(9, 20, 600, 12);
  const GuideTree tree =
      GuideTree::upgma(kmer::distance_matrix(seqs, {}));
  EXPECT_THROW(schedule_tree(tree, 4,
                             [&](int id) {
                               if (id == tree.root())
                                 throw std::runtime_error("root");
                             }),
               std::runtime_error);
}

// ---- wavefront profile DP vs row-major reference ---------------------------

/// The row-major oracle on align_profiles' own scorer and occupancies.
ProfileAlignResult row_major(const Profile& a, const Profile& b,
                             const ProfileAlignOptions& po) {
  const detail::PspProblem p(a, b);
  return reference::profile_dp(p, po);
}

/// Randomized differential: random sub-families aligned into two profiles,
/// random weights, random gap penalties, random band / trace budget; the
/// wavefront and row-major kernels must agree on score bits and ops
/// exactly, on the full-trace and the checkpointed traceback paths alike.
TEST(ProfileDpDifferential, WavefrontMatchesScalarRandomized) {
  util::Rng rng(991);
  const MuscleAligner aligner;
  for (int rep = 0; rep < 60; ++rep) {
    const std::size_t na = 2 + rng.below(5);
    const std::size_t nb = 2 + rng.below(5);
    const std::size_t len = 12 + rng.below(140);
    const double rel = 300 + rng.uniform(0, 900);
    const auto sa = family(na, len, rel, 1000 + rng.below(1U << 20));
    const auto sb = family(nb, len + rng.below(40), rel,
                           2000000 + rng.below(1U << 20));
    const Alignment left = aligner.align(sa);
    const Alignment right = aligner.align(sb);

    std::vector<double> wa(left.num_rows()), wb(right.num_rows());
    for (auto& w : wa) w = rng.uniform(0.2, 2.0);
    for (auto& w : wb) w = rng.uniform(0.2, 2.0);
    const Profile pa(left, B62(), rng.chance(0.5) ? wa : std::vector<double>{});
    const Profile pb(right, B62(),
                     rng.chance(0.5) ? wb : std::vector<double>{});

    ProfileAlignOptions po;
    po.gaps = bio::GapPenalties{static_cast<float>(rng.uniform(2.0, 14.0)),
                                static_cast<float>(rng.uniform(0.2, 2.0))};
    if (rng.chance(0.4)) po.band = 1 + rng.below(24);
    // Exercise tiny trace budgets so the row-major side checkpoints too.
    if (rng.chance(0.5)) po.max_trace_cells = 1 + rng.below(4096);

    const ProfileAlignResult ref = row_major(pa, pb, po);

    // Both kernels at the drawn budget, the default (full trace), one cell
    // (checkpointed) and around the full-trace boundary (m+1)(n+1).
    const std::size_t cells = (pa.num_cols() + 1) * (pb.num_cols() + 1);
    const std::size_t drawn = po.max_trace_cells;
    for (bool wavefront : {false, true})
      for (std::size_t budget : {drawn, std::size_t{0}, std::size_t{1},
                                 cells - 1, cells, cells + 1}) {
        po.max_trace_cells = budget;
        const ProfileAlignResult got = wavefront ? align_profiles(pa, pb, po)
                                                 : row_major(pa, pb, po);
        ASSERT_EQ(ref.score, got.score) << "rep " << rep << " budget "
                                        << budget;
        ASSERT_EQ(ref.ops, got.ops) << "rep " << rep << " budget " << budget;
      }
  }
}

TEST(ProfileDpDifferential, DegenerateShapes) {
  const auto one = family(1, 1, 600, 77);
  const auto big = family(3, 90, 600, 78);
  const MuscleAligner aligner;
  const Alignment tiny = Alignment::from_sequence(one[0]);
  const Alignment wide = aligner.align(big);
  for (const auto* a : {&tiny, &wide})
    for (const auto* b : {&tiny, &wide}) {
      const Profile pa(*a, B62());
      const Profile pb(*b, B62());
      ProfileAlignOptions po;
      po.gaps = B62().default_gaps();
      const ProfileAlignResult ref = row_major(pa, pb, po);
      const ProfileAlignResult vec = align_profiles(pa, pb, po);
      EXPECT_EQ(ref.score, vec.score);
      EXPECT_EQ(ref.ops, vec.ops);
    }
}

/// Single-residue columns and integer penalties make exact float ties
/// between match, open and extend moves everywhere; a profile aligned to
/// itself adds ties between the diagonal and every gap detour. Tie-breaks
/// must follow the scalar chains on both traceback paths.
TEST(ProfileDpDifferential, ExactTiesFollowScalarOrder) {
  using Rows = std::vector<std::pair<std::string, std::string>>;
  const Rows shapes = {
      {"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", "AAAAAAAAAAAAAAAAAAAAA"},
      {"ACACACACACACACACACACACACACACACACACAC", "CACACACACACACACACACA"},
      {"WWWWGGGGWWWWGGGGWWWWGGGGWWWWGGGG", "WWWWGGGGWWWWGGGGWWWWGGGGWWWWGGGG"},
      {"AAAAACCCCCAAAAACCCCCAAAAACCCCCAAAAACCCCCAAAAA", "ACACACACACAC"},
      {std::string(150, 'A'), std::string(97, 'A')}};
  for (const auto& [ta, tb] : shapes) {
    const Profile pa(Alignment::from_texts(Rows{{"a", ta}, {"a2", ta}}),
                     B62());
    const Profile pb(Alignment::from_texts(Rows{{"b", tb}}), B62());
    for (const Profile* other : {&pb, &pa})
      for (const auto& gaps : {bio::GapPenalties{4.0F, 1.0F},
                               bio::GapPenalties{2.0F, 2.0F},
                               bio::GapPenalties{0.0F, 0.0F}})
        for (std::size_t band : {std::size_t{0}, std::size_t{3}}) {
          ProfileAlignOptions po;
          po.gaps = gaps;
          po.band = band;
          const ProfileAlignResult ref = row_major(pa, *other, po);
          for (std::size_t budget : {std::size_t{0}, std::size_t{1}}) {
            po.max_trace_cells = budget;
            const ProfileAlignResult vec = align_profiles(pa, *other, po);
            EXPECT_EQ(ref.score, vec.score) << ta << " / " << tb;
            EXPECT_EQ(ref.ops, vec.ops)
                << ta << " / " << tb << " open " << gaps.open << " band "
                << band << " budget " << budget;
          }
        }
  }
}

/// T-Coffee's row source: random sparse, non-negative, integer-valued dense
/// score matrices (so exact ties between moves are common) times the
/// 1/(|A||B|) merge scale, against the oracle on the per-cell product
/// score(ca, cb) * scale. Gaps {4/1, 2/2, 0/0}, unbanded and banded, every
/// budget around the full-trace boundary, and shapes with a one-column side.
TEST(ProfileDpDifferential, DenseRowsMatchRowMajor) {
  util::Rng rng(5151);
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t m = rep % 8 == 0 ? 1 : 1 + rng.below(90);
    const std::size_t n = rep % 8 == 1 ? 1 : 1 + rng.below(90);
    util::Matrix<float> score(m, n, 0.0F);
    const double density = rng.uniform(0.05, 0.6);
    for (std::size_t ca = 0; ca < m; ++ca)
      for (std::size_t cb = 0; cb < n; ++cb)
        if (rng.chance(density))
          score(ca, cb) = static_cast<float>(1 + rng.below(6));
    const float scale = 1.0F / static_cast<float>(1 + rng.below(6)) /
                        static_cast<float>(1 + rng.below(6));
    std::vector<float> occ_a(m), occ_b(n);
    for (auto& o : occ_a) o = rng.chance(0.7) ? 1.0F : 0.5F;
    for (auto& o : occ_b) o = rng.chance(0.7) ? 1.0F : 0.5F;
    const detail::DenseRowScorer rows{&score, scale};
    const auto lambda = [&](std::size_t ca, std::size_t cb) {
      return score(ca, cb) * scale;
    };

    const std::size_t cells = (m + 1) * (n + 1);
    for (const auto& gaps : {bio::GapPenalties{4.0F, 1.0F},
                             bio::GapPenalties{2.0F, 2.0F},
                             bio::GapPenalties{0.0F, 0.0F}})
      for (std::size_t band : {std::size_t{0}, 1 + rng.below(12)}) {
        ProfileAlignOptions po;
        po.gaps = gaps;
        po.band = band;
        const ProfileAlignResult ref =
            reference::profile_dp(m, n, lambda, occ_a, occ_b, po);
        for (std::size_t budget : {std::size_t{0}, std::size_t{1}, cells - 1,
                                   cells, cells + 1}) {
          po.max_trace_cells = budget;
          const ProfileAlignResult got =
              detail::profile_dp_wavefront(m, n, rows, occ_a, occ_b, po);
          ASSERT_EQ(ref.score, got.score)
              << "rep " << rep << " " << m << "x" << n << " open "
              << gaps.open << " band " << band << " budget " << budget;
          ASSERT_EQ(ref.ops, got.ops)
              << "rep " << rep << " " << m << "x" << n << " open "
              << gaps.open << " band " << band << " budget " << budget;
        }
      }
  }
}

// ---- progressive thread invariance -----------------------------------------

TEST(ProgressiveThreads, BitIdenticalAcrossThreadCounts) {
  util::Rng rng(4242);
  for (int rep = 0; rep < 6; ++rep) {
    const std::size_t n = 6 + rng.below(22);
    const auto seqs =
        family(n, 25 + rng.below(60), 400 + rng.uniform(0, 700),
               5000 + rng.below(1U << 20));
    const GuideTree tree =
        GuideTree::upgma(kmer::distance_matrix(seqs, {}));
    ProgressiveOptions po;
    po.gaps = B62().default_gaps();
    if (rng.chance(0.5)) po.weights = tree.leaf_weights();
    if (rng.chance(0.3)) po.band = 8 + rng.below(32);
    po.threads = 1;
    const Alignment serial = progressive_align(seqs, tree, B62(), po);
    for (unsigned threads : {2U, 4U, 16U}) {
      po.threads = threads;
      const Alignment parallel = progressive_align(seqs, tree, B62(), po);
      ASSERT_EQ(fingerprint(serial), fingerprint(parallel))
          << "rep " << rep << " threads " << threads;
    }
  }
}

TEST(AlignerThreads, AllTreeAlignersThreadInvariant) {
  const auto seqs = family(10, 40, 700, 31337);
  const auto run = [&](unsigned threads) {
    std::vector<std::string> prints;
    {
      MuscleOptions o;
      o.threads = threads;
      prints.push_back(fingerprint(MuscleAligner(o).align(seqs)));
    }
    {
      ClustalWOptions o;
      o.threads = threads;
      prints.push_back(fingerprint(ClustalWAligner(o).align(seqs)));
    }
    {
      MafftOptions o;
      o.threads = threads;
      prints.push_back(fingerprint(MafftAligner(o).align(seqs)));
    }
    {
      TCoffeeOptions o;
      o.threads = threads;
      prints.push_back(fingerprint(TCoffeeAligner(o).align(seqs)));
    }
    {
      ProbConsOptions o;
      o.threads = threads;
      prints.push_back(fingerprint(ProbConsAligner(o).align(seqs)));
    }
    return prints;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(3));
  EXPECT_EQ(serial, run(8));
}

TEST(AlignerThreads, ScoreGuideTreeModeIsThreadInvariant) {
  const auto seqs = family(12, 50, 600, 97);
  MuscleOptions o;
  o.stage1_distance = MuscleOptions::GuideTree::kScore;
  o.threads = 1;
  const std::string serial = fingerprint(MuscleAligner(o).align(seqs));
  o.threads = 6;
  EXPECT_EQ(serial, fingerprint(MuscleAligner(o).align(seqs)));
}

// ---- full pipeline thread invariance ---------------------------------------

TEST(PipelineThreads, SampleAlignDBitIdenticalAcrossThreads) {
  const auto seqs = family(24, 40, 700, 271828);
  const auto run = [&](unsigned threads) {
    core::SampleAlignDConfig cfg;
    cfg.num_procs = 3;
    cfg.threads = threads;
    core::PipelineStats stats;
    const Alignment a = core::SampleAlignD(cfg).align(seqs, &stats);
    EXPECT_EQ(stats.threads, threads);
    return fingerprint(a);
  };
  const std::string serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

}  // namespace
}  // namespace salign::msa
