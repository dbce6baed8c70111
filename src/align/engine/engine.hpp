#pragma once

#include <cstddef>
#include <limits>
#include <span>

#include "align/pairwise.hpp"

namespace salign::align {

/// Shared "effectively minus infinity" sentinel for float DP cells.
///
/// A quarter of FLT_MAX leaves headroom so that the affine recurrences can
/// keep subtracting gap penalties from unreachable cells without ever
/// overflowing to -inf or producing NaN: the sentinel's magnitude (~8.5e37)
/// is so large that subtracting any realistic penalty (or even millions of
/// accumulated extends) is absorbed by float rounding — kNegInf - x == kNegInf
/// for every |x| < 2^-1 ULP(kNegInf) ≈ 2e30. Reachable cells always win
/// comparisons against it by ~1e37, so it never perturbs an optimal path.
/// Covered by EngineNegInf.* in tests/align_engine_test.cpp.
inline constexpr float kNegInf = -0.25F * std::numeric_limits<float>::max();

namespace engine {

/// Full-traceback budget of the float kernel: alignments whose DP has at
/// most this many (m+1)*(n+1) cells keep one traceback decision byte per
/// cell; larger ones keep a checkpoint row every ~sqrt(m) rows and rerun
/// one row block at a time during traceback.
inline constexpr std::size_t kDefaultTraceCells = std::size_t{1} << 22;

/// The float kernel this process runs: "vector" when it is more than one
/// lane wide, "scalar" in the release-scalar lane
/// (-DSALIGN_ENGINE_FORCE_SCALAR=ON) or without compiler vector extensions.
[[nodiscard]] const char* kernel_name();
/// Lane count of the float kernel this process runs, chosen once from the
/// CPU: 8 on x86-64 CPUs with AVX2, else VecF's (simd.hpp) 4 under
/// SSE2/NEON, and 1 in scalar builds.
[[nodiscard]] int kernel_lanes();
/// Whether the float kernel can run `lanes` wide in this build on this
/// CPU: VecF's width always, and 8 in x86-64 vector builds on CPUs with
/// AVX2. Every width gives the same bits; the differential tests run each.
[[nodiscard]] bool kernel_lanes_supported(int lanes);

/// Numeric tier of a score-only pass.
///
/// kAuto runs the adaptive promotion ladder: start at the narrowest tier
/// that is statically viable for the input (integral scores, open >= extend
/// >= 1, boundary gap runs inside the rails), detect saturation at run time,
/// and retry one tier wider — int8 -> int16 -> float. Results are
/// bit-identical to the float reference kernels on EVERY input; forcing a
/// tier only changes where the ladder starts, never the result (a forced
/// tier that saturates or is statically non-viable still promotes).
/// Striped int8 runs VecI8 lanes at a time, int16 half that
/// (see simd_int.hpp); kFloat is the wavefront float kernel
/// (wavefront.hpp).
enum class ScoreTier : std::uint8_t { kAuto = 0, kInt8, kInt16, kFloat };

[[nodiscard]] const char* tier_name(ScoreTier tier);

/// Score-only global (Needleman–Wunsch/Gotoh) alignment through the tier
/// ladder. Allocates O(m + n) DP workspace plus the striped query profile
/// (O(alphabet * m) integers) — no traceback state of any kind.
/// `workspace_bytes`, when non-null, receives the number of bytes of DP
/// workspace the call allocated, striped profiles included (tests pin the
/// linear-memory guarantee through it). To score one sequence against many,
/// build an engine::ScoreBatch (batch.hpp) instead — it amortizes the
/// profile across counterparts.
[[nodiscard]] float global_score(std::span<const std::uint8_t> a,
                                 std::span<const std::uint8_t> b,
                                 const bio::SubstitutionMatrix& matrix,
                                 bio::GapPenalties gaps,
                                 std::size_t* workspace_bytes = nullptr,
                                 ScoreTier first_tier = ScoreTier::kAuto);

/// Full global alignment with checkpointed traceback, through the same
/// tier ladder as global_score: striped int8/int16 kernels with the
/// column-checkpointed integer traceback where the rails allow, the float
/// wavefront kernel otherwise (one decision byte per cell up to
/// kDefaultTraceCells, row checkpoints + block rerun above it). Results
/// (score, ops, tie-breaks) are identical to the row-major reference kernel
/// (tests/oracles/reference.cpp) for every `first_tier` value. To align one
/// query against many, build an engine::AlignBatch (batch.hpp) — it
/// amortizes the striped profile across counterparts.
[[nodiscard]] PairwiseAlignment global_align(std::span<const std::uint8_t> a,
                                             std::span<const std::uint8_t> b,
                                             const bio::SubstitutionMatrix& matrix,
                                             bio::GapPenalties gaps,
                                             ScoreTier first_tier = ScoreTier::kAuto);

/// Local (Smith–Waterman) alignment on the float wavefront kernel, with the
/// same traceback memory policy as global_align. Among equal best cells it
/// ends at the row-major first, as the reference kernel does.
[[nodiscard]] LocalAlignment local_align(std::span<const std::uint8_t> a,
                                         std::span<const std::uint8_t> b,
                                         const bio::SubstitutionMatrix& matrix,
                                         bio::GapPenalties gaps);

}  // namespace engine
}  // namespace salign::align
