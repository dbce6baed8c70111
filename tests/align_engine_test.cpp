// Tests for the vectorized alignment-kernel engine (src/align/engine/):
//
//  * randomized differential suite — the anti-diagonal engine must match
//    the retained scalar reference kernels (tests/oracles/) EXACTLY:
//    bit-equal scores, identical edit-op paths, identical local start
//    offsets, across DNA and protein alphabets and lengths 0..512, plus
//    shapes around the row blocks, DPs past the full-traceback budget
//    (checkpointed traceback) and local ties across anti-diagonals. Each
//    case runs every compiled float width explicitly: VecF's (4 lanes, or 1
//    in the release-scalar lane) always, and 8 lanes when the CPU has AVX2
//    (skipped, with the reason, when it does not);
//  * the library dispatches the width the CPU supports, and it and this
//    test see the same kernel types (the SALIGN_ENGINE_FORCE_SCALAR
//    definition reaches every TU);
//  * kNegInf sentinel arithmetic — no overflow / NaN when gap penalties
//    propagate through unreachable cells;
//  * linear-memory guarantee of the score-only pass (10k x 10k).

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "align/engine/engine.hpp"
#include "align/engine/simd.hpp"
#include "align/engine/wavefront.hpp"
#include "align/pairwise.hpp"
#include "bio/alphabet.hpp"
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

/// Float-kernel widths under test: the parameter is a lane count. Cases
/// of a width this build or CPU cannot run skip with the reason.
class EngineDifferential : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (!engine::kernel_lanes_supported(GetParam()))
      GTEST_SKIP() << GetParam()
                   << "-lane float kernel: needs an x86-64 vector build on "
                      "a CPU with AVX2";
  }
  [[nodiscard]] int lanes() const { return GetParam(); }
};

INSTANTIATE_TEST_SUITE_P(
    Width, EngineDifferential, ::testing::Values(engine::VecF::kLanes, 8),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::to_string(info.param) + "Lanes";
    });

// The float kernel `lanes` wide; an empty side (which the kernel does not
// take) goes through the public entry's gap run.
PairwiseAlignment float_global(int lanes, const std::vector<std::uint8_t>& a,
                               const std::vector<std::uint8_t>& b,
                               const SubstitutionMatrix& m, GapPenalties g) {
  if (a.empty() || b.empty()) return engine::global_align(a, b, m, g);
  return engine::detail::global_align_impl(a, b, m, g, lanes);
}
float float_score(int lanes, const std::vector<std::uint8_t>& a,
                  const std::vector<std::uint8_t>& b,
                  const SubstitutionMatrix& m, GapPenalties g) {
  if (a.empty() || b.empty()) return engine::global_score(a, b, m, g);
  return engine::detail::global_score_impl(a, b, m, g, nullptr, lanes);
}
LocalAlignment float_local(int lanes, const std::vector<std::uint8_t>& a,
                           const std::vector<std::uint8_t>& b,
                           const SubstitutionMatrix& m, GapPenalties g) {
  if (a.empty() || b.empty()) return engine::local_align(a, b, m, g);
  return engine::detail::local_align_impl(a, b, m, g, lanes);
}

TEST_P(EngineDifferential, GlobalMatchesReferenceExactly) {
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
    expect_same_pairwise(ref, float_global(lanes(), a, b, *sc.matrix, g),
                         "float global", trial);

    const float score = engine::global_score(a, b, *sc.matrix, g);
    EXPECT_EQ(ref.score, score) << "score-only trial " << trial;
    EXPECT_EQ(ref.score, float_score(lanes(), a, b, *sc.matrix, g))
        << "float score-only trial " << trial;
  }
}

TEST_P(EngineDifferential, LocalMatchesReferenceExactly) {
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
    const LocalAlignment got = float_local(lanes(), a, b, *sc.matrix, g);
    expect_same_pairwise(ref, got, "local", trial);
    EXPECT_EQ(ref.a_begin, got.a_begin) << "trial " << trial;
    EXPECT_EQ(ref.b_begin, got.b_begin) << "trial " << trial;
  }
}

/// Sides one row short of, at and past one and two row blocks of the
/// widest kernel (64 rows at 8 lanes; 32 at 4), against columns that end
/// mid-vector, so the last block, the last tile and the tail lanes all
/// overhang.
TEST_P(EngineDifferential, RowBlockEdgesMatchReferenceExactly) {
  util::Rng rng(0xE7);
  const auto& matrix = SubstitutionMatrix::blosum62();
  const std::size_t rows[] = {31, 32, 33, 63, 64, 65, 127, 128, 129};
  const std::size_t cols[] = {1, 7, 9, 64, 65, 129};
  int trial = 0;
  for (std::size_t la : rows)
    for (std::size_t lb : cols) {
      const auto a = random_codes(rng, la, 20);
      const auto b = random_codes(rng, lb, 20);
      const GapPenalties g = random_gaps(rng);
      expect_same_pairwise(engine::reference::global_align(a, b, matrix, g),
                           float_global(lanes(), a, b, matrix, g),
                           "block-edge global", trial);
      EXPECT_EQ(engine::reference::global_align(a, b, matrix, g).score,
                float_score(lanes(), a, b, matrix, g))
          << "trial " << trial;
      const LocalAlignment lref =
          engine::reference::local_align(a, b, matrix, g);
      const LocalAlignment lgot = float_local(lanes(), a, b, matrix, g);
      expect_same_pairwise(lref, lgot, "block-edge local", trial);
      EXPECT_EQ(lref.a_begin, lgot.a_begin) << "trial " << trial;
      EXPECT_EQ(lref.b_begin, lgot.b_begin) << "trial " << trial;
      ++trial;
    }
}

/// A copy of `a` with substitutions and short indels, so a long alignment
/// (global or local) runs through every row block of the DP.
std::vector<std::uint8_t> mutated(util::Rng& rng,
                                  const std::vector<std::uint8_t>& a,
                                  int letters) {
  std::vector<std::uint8_t> out;
  out.reserve(a.size() + a.size() / 8);
  for (std::uint8_t c : a) {
    if (rng.chance(0.03)) continue;  // deletion
    if (rng.chance(0.03))            // insertion
      for (std::uint64_t k = 1 + rng.below(4); k > 0; --k)
        out.push_back(static_cast<std::uint8_t>(
            rng.below(static_cast<std::uint64_t>(letters))));
    out.push_back(rng.chance(0.2) ? static_cast<std::uint8_t>(rng.below(
                                        static_cast<std::uint64_t>(letters)))
                                  : c);
  }
  return out;
}

TEST_P(EngineDifferential, PastTraceBudgetMatchesReferenceExactly) {
  // DPs past kDefaultTraceCells keep checkpoint rows and rerun row blocks
  // during traceback instead of storing a decision byte per cell.
  util::Rng rng(0xE5);
  const auto& matrix = SubstitutionMatrix::blosum62();
  const GapPenalties g{11.0F, 1.0F};
  const std::pair<std::size_t, std::size_t> shapes[] = {{2100, 2100},
                                                        {1300, 3400}};
  for (const auto& [la, lb] : shapes) {
    ASSERT_GT((la + 1) * (lb + 1), engine::kDefaultTraceCells);
    const auto a = random_codes(rng, la, 20);
    auto b = mutated(rng, a, 20);
    b.resize(lb);
    while (b.size() < lb)
      b.push_back(static_cast<std::uint8_t>(rng.below(20)));

    const PairwiseAlignment ref =
        engine::reference::global_align(a, b, matrix, g);
    const PairwiseAlignment got = float_global(lanes(), a, b, matrix, g);
    expect_same_pairwise(ref, got, "global past budget",
                         static_cast<int>(la));
    EXPECT_EQ(ref.score, float_score(lanes(), a, b, matrix, g));

    const LocalAlignment lref = engine::reference::local_align(a, b, matrix, g);
    const LocalAlignment lgot = float_local(lanes(), a, b, matrix, g);
    EXPECT_GT(lref.ops.size(), la / 2);  // the path crosses many blocks
    expect_same_pairwise(lref, lgot, "local past budget",
                         static_cast<int>(la));
    EXPECT_EQ(lref.a_begin, lgot.a_begin);
    EXPECT_EQ(lref.b_begin, lgot.b_begin);
  }
}

TEST_P(EngineDifferential, LocalTieAcrossDiagonalsTakesRowMajorFirst) {
  // BLOSUM62 scores Y-Y and P-P 7, and every other pair here at most -2, so
  // the best M value 7 sits at (2, 1) (P against P, anti-diagonal 3) and at
  // (1, 3) (Y against Y, anti-diagonal 4). The wavefront reaches (2, 1)
  // first; the reference scans rows first and keeps (1, 3).
  const auto& alpha = bio::Alphabet::amino_acid();
  auto codes = [&](std::string_view s) {
    std::vector<std::uint8_t> v;
    for (char c : s) v.push_back(alpha.encode(c));
    return v;
  };
  const auto a = codes("YP");
  const auto b = codes("PGY");
  const auto& matrix = SubstitutionMatrix::blosum62();
  const GapPenalties g{11.0F, 1.0F};

  const LocalAlignment ref = engine::reference::local_align(a, b, matrix, g);
  ASSERT_EQ(ref.score, 7.0F);
  ASSERT_EQ(ref.a_begin, 0u);
  ASSERT_EQ(ref.b_begin, 2u);
  const LocalAlignment got = float_local(lanes(), a, b, matrix, g);
  expect_same_pairwise(ref, got, "local tie", 0);
  EXPECT_EQ(got.a_begin, 0u);
  EXPECT_EQ(got.b_begin, 2u);

  // The same tie many times over: low-complexity sequences over two
  // letters, whose equal maxima spread over many rows and diagonals.
  util::Rng rng(0xE6);
  const std::uint8_t pair[] = {alpha.encode('Y'), alpha.encode('P')};
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::uint8_t> x(1 + rng.below(80)), y(1 + rng.below(80));
    for (auto& c : x) c = pair[rng.below(2)];
    for (auto& c : y) c = pair[rng.below(2)];
    const GapPenalties tg{static_cast<float>(4 + rng.below(12)), 1.0F};
    const LocalAlignment r = engine::reference::local_align(x, y, matrix, tg);
    const LocalAlignment w = float_local(lanes(), x, y, matrix, tg);
    expect_same_pairwise(r, w, "local low-complexity", trial);
    EXPECT_EQ(r.a_begin, w.a_begin) << "trial " << trial;
    EXPECT_EQ(r.b_begin, w.b_begin) << "trial " << trial;
  }
}

TEST(EngineDegenerate, DegenerateInputsShareOneCodePath) {
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
  // kernel_lanes() is the width engine.cpp dispatched: 8 exactly when the
  // CPU has AVX2 (x86-64 vector builds), else VecF::kLanes, which is 1 in
  // the release-scalar lane. The expectation is what this TU's headers
  // say; the two differ when a build definition that picks the kernel
  // types (SALIGN_ENGINE_FORCE_SCALAR) reaches the library's sources but
  // not its users.
#ifdef SALIGN_ENGINE_AVX2
  const int want = __builtin_cpu_supports("avx2") ? 8 : engine::VecF::kLanes;
#else
  const int want = engine::VecF::kLanes;
#endif
  EXPECT_EQ(engine::kernel_lanes(), want);
  EXPECT_TRUE(engine::kernel_lanes_supported(want));
  EXPECT_TRUE(engine::kernel_lanes_supported(engine::VecF::kLanes));
  EXPECT_FALSE(engine::kernel_lanes_supported(2));
  EXPECT_STREQ(engine::kernel_name(), want > 1 ? "vector" : "scalar");
}

}  // namespace
}  // namespace salign::align
