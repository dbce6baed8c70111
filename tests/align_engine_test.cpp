// Tests for the vectorized alignment-kernel engine (src/align/engine/):
//
//  * randomized differential suite — the anti-diagonal engine must match
//    the retained scalar reference kernels (tests/oracles/) EXACTLY:
//    bit-equal scores, identical edit-op paths, identical local start
//    offsets, across DNA and protein alphabets and lengths 0..512. Each
//    build runs its one kernel width (VecF lanes, or 1 lane in the
//    release-scalar lane), so CI covers both widths;
//  * the library and this test see the same kernel types (the
//    SALIGN_ENGINE_FORCE_SCALAR definition reaches every TU);
//  * kNegInf sentinel arithmetic — no overflow / NaN when gap penalties
//    propagate through unreachable cells;
//  * linear-memory guarantee of the score-only pass (10k x 10k).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "align/engine/engine.hpp"
#include "align/engine/pair_batch.hpp"
#include "align/engine/simd.hpp"
#include "align/engine/simd_int.hpp"
#include "align/pairwise.hpp"
#include "bio/substitution_matrix.hpp"
#include "oracles/reference.hpp"
#include "util/rng.hpp"

namespace salign::align {
namespace {

using bio::GapPenalties;
using bio::SubstitutionMatrix;

std::vector<std::uint8_t> random_codes(util::Rng& rng, std::size_t len,
                                       int letters) {
  std::vector<std::uint8_t> v(len);
  for (auto& c : v) c = static_cast<std::uint8_t>(rng.below(
      static_cast<std::uint64_t>(letters)));
  return v;
}

struct Scenario {
  const SubstitutionMatrix* matrix;
  int letters;  // sampling range for codes (includes the wildcard sometimes)
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

GapPenalties random_gaps(util::Rng& rng) {
  GapPenalties g;
  g.open = static_cast<float>(1 + rng.below(14));
  g.extend = static_cast<float>(1 + rng.below(4)) * 0.5F;
  return g;
}

void expect_same_pairwise(const PairwiseAlignment& want,
                          const PairwiseAlignment& got, const char* label,
                          int trial) {
  // Bit-exact score equality is intentional: the engine performs the same
  // IEEE operations in the same order as the reference.
  EXPECT_EQ(want.score, got.score) << label << " trial " << trial;
  ASSERT_EQ(want.ops.size(), got.ops.size()) << label << " trial " << trial;
  for (std::size_t k = 0; k < want.ops.size(); ++k)
    ASSERT_EQ(want.ops[k], got.ops[k])
        << label << " trial " << trial << " op " << k;
}

TEST(EngineDifferential, GlobalMatchesReferenceExactly) {
  util::Rng rng(0xE1);
  const auto scen = scenarios();
  for (int trial = 0; trial < 80; ++trial) {
    const Scenario& sc = scen[trial % scen.size()];
    const std::size_t la = rng.below(513);
    const std::size_t lb = rng.below(513);
    const auto a = random_codes(rng, la, sc.letters);
    const auto b = random_codes(rng, lb, sc.letters);
    const GapPenalties g = random_gaps(rng);

    const PairwiseAlignment ref =
        engine::reference::global_align(a, b, *sc.matrix, g);
    const PairwiseAlignment got = engine::global_align(a, b, *sc.matrix, g);
    expect_same_pairwise(ref, got, "global", trial);

    const float score = engine::global_score(a, b, *sc.matrix, g);
    EXPECT_EQ(ref.score, score) << "score-only trial " << trial;
  }
}

TEST(EngineDifferential, LocalMatchesReferenceExactly) {
  util::Rng rng(0xE3);
  const auto scen = scenarios();
  for (int trial = 0; trial < 60; ++trial) {
    const Scenario& sc = scen[trial % scen.size()];
    const std::size_t la = rng.below(513);
    const std::size_t lb = rng.below(513);
    const auto a = random_codes(rng, la, sc.letters);
    const auto b = random_codes(rng, lb, sc.letters);
    const GapPenalties g = random_gaps(rng);

    const LocalAlignment ref =
        engine::reference::local_align(a, b, *sc.matrix, g);
    const LocalAlignment got = engine::local_align(a, b, *sc.matrix, g);
    expect_same_pairwise(ref, got, "local", trial);
    EXPECT_EQ(ref.a_begin, got.a_begin) << "trial " << trial;
    EXPECT_EQ(ref.b_begin, got.b_begin) << "trial " << trial;
  }
}

TEST(EngineDifferential, DegenerateInputsShareOneCodePath) {
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g{11.0F, 1.0F};
  const std::vector<std::uint8_t> a{1, 2, 3};
  const std::vector<std::uint8_t> empty;

  const PairwiseAlignment r1 = engine::global_align(a, empty, m, g);
  EXPECT_EQ(r1.ops, std::vector<EditOp>(3, EditOp::GapInB));
  EXPECT_FLOAT_EQ(r1.score, -13.0F);
  const PairwiseAlignment r2 = engine::global_align(empty, a, m, g);
  EXPECT_EQ(r2.ops, std::vector<EditOp>(3, EditOp::GapInA));
  EXPECT_FLOAT_EQ(r2.score, -13.0F);
  const PairwiseAlignment r3 = engine::global_align(empty, empty, m, g);
  EXPECT_TRUE(r3.ops.empty());
  EXPECT_EQ(r3.score, 0.0F);
  EXPECT_TRUE(engine::local_align(a, empty, m, g).ops.empty());
}

TEST(EngineNegInf, SurvivesGapExtendAccumulation) {
  // The sentinel must stay finite and non-NaN under the arithmetic the
  // kernels actually perform on unreachable cells: repeated gap-open/extend
  // subtraction and substitution-score addition.
  float v = kNegInf;
  for (int k = 0; k < 1000000; ++k) v -= 1.0F;  // a million gap extends
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_EQ(v, kNegInf);  // absorbed by rounding, not drifting toward -inf

  EXPECT_TRUE(std::isfinite(kNegInf - 1e6F * 11.0F));
  EXPECT_TRUE(std::isfinite(kNegInf + kNegInf / 2));  // worst-case compare arg
  EXPECT_EQ(kNegInf + 15.0F, kNegInf);   // best BLOSUM62 score
  EXPECT_EQ(kNegInf - 100.0F, kNegInf);  // harsh gap open
  EXPECT_FALSE(std::isnan(kNegInf - kNegInf / 2));

  // Headroom: still clearly separated from float limits.
  EXPECT_GT(kNegInf, -std::numeric_limits<float>::max() / 2);
  EXPECT_LT(kNegInf, -std::numeric_limits<float>::max() / 8);
}

TEST(EngineMemory, ScoreOnlyTenKByTenKIsLinear) {
  // A 10k x 10k score-only global alignment must allocate O(m + n) DP
  // workspace. The historical kernel's traceback matrix alone would be
  // 3 * (m+1) * (n+1) bytes ≈ 300 MB; the engine reports its actual
  // workspace, which must stay within a small linear bound.
  util::Rng rng(0xE4);
  const std::size_t len = 10000;
  const auto a = random_codes(rng, len, 4);
  const auto b = random_codes(rng, len, 4);
  const auto& m = SubstitutionMatrix::dna_default();

  std::size_t ws_bytes = 0;
  const float score = engine::global_score(a, b, m, {}, &ws_bytes);
  EXPECT_TRUE(std::isfinite(score));
  EXPECT_GT(ws_bytes, 0u);
  EXPECT_LT(ws_bytes, 256 * (a.size() + b.size() + 64));
}

TEST(EngineKernel, LibraryAndHeadersAgreeOnLanes) {
  // kernel_lanes() is VecF::kLanes as compiled into engine.cpp; the
  // right-hand sides are what this TU's headers say. They differ when a
  // build definition that picks the kernel types (SALIGN_ENGINE_FORCE_SCALAR)
  // reaches the library's sources but not its users.
  EXPECT_EQ(engine::kernel_lanes(), engine::VecF::kLanes);
  EXPECT_EQ(engine::PairBatch(SubstitutionMatrix::blosum62(), {}).lanes(),
            static_cast<std::size_t>(engine::VecI8::kLanes));
  EXPECT_STREQ(engine::kernel_name(),
               engine::VecF::kLanes > 1 ? "vector" : "scalar");
}

}  // namespace
}  // namespace salign::align
