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

/// Which kernel instantiation to run. Both are compiled into the library;
/// the vector backend aliases the scalar one on compilers without
/// GCC/Clang vector extensions.
enum class Backend : std::uint8_t {
  kScalar,  ///< 1-lane retained reference semantics
  kVector,  ///< multi-lane anti-diagonal kernel (ISA-dependent width:
            ///< 8 lanes under AVX, 4 under SSE/NEON; backend_lanes() tells)
};

/// Default dispatch: kVector unless the library was configured with
/// -DSALIGN_ENGINE_FORCE_SCALAR=ON or the compiler lacks vector extensions.
[[nodiscard]] Backend default_backend();
[[nodiscard]] const char* backend_name(Backend backend);
[[nodiscard]] int backend_lanes(Backend backend);

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
/// (see simd_int.hpp); kFloat is PR 2's anti-diagonal float kernel.
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
                                 Backend backend,
                                 std::size_t* workspace_bytes = nullptr,
                                 ScoreTier first_tier = ScoreTier::kAuto);

/// Full global alignment with checkpointed traceback, through the same
/// tier ladder as global_score: striped int8/int16 kernels with the
/// column-checkpointed integer traceback where the rails allow, the float
/// anti-diagonal kernel (row checkpoints + block recompute) otherwise. No
/// O(m·n) traceback matrix is ever materialized on any tier. Results
/// (score, ops, tie-breaks) are identical to the retained scalar reference
/// kernel for every `first_tier` value. To align one query against many,
/// build an engine::AlignBatch (batch.hpp) — it amortizes the striped
/// profile across counterparts.
[[nodiscard]] PairwiseAlignment global_align(std::span<const std::uint8_t> a,
                                             std::span<const std::uint8_t> b,
                                             const bio::SubstitutionMatrix& matrix,
                                             bio::GapPenalties gaps,
                                             Backend backend = default_backend(),
                                             ScoreTier first_tier = ScoreTier::kAuto);

/// Banded global alignment (same band geometry as the historical
/// banded_global_align: band half-width widened by the length difference).
[[nodiscard]] PairwiseAlignment banded_global_align(
    std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
    const bio::SubstitutionMatrix& matrix, bio::GapPenalties gaps,
    std::size_t band, Backend backend = default_backend());

/// Local (Smith–Waterman) alignment, checkpointed traceback.
[[nodiscard]] LocalAlignment local_align(std::span<const std::uint8_t> a,
                                         std::span<const std::uint8_t> b,
                                         const bio::SubstitutionMatrix& matrix,
                                         bio::GapPenalties gaps,
                                         Backend backend = default_backend());

/// Retained scalar reference kernels: the pre-engine row-major
/// implementations with a full traceback matrix. They define the exact
/// score/traceback semantics the engine must reproduce and exist solely as
/// the oracle for the randomized differential tests (and as readable
/// documentation of the recurrences).
namespace reference {

[[nodiscard]] PairwiseAlignment global_align(std::span<const std::uint8_t> a,
                                             std::span<const std::uint8_t> b,
                                             const bio::SubstitutionMatrix& matrix,
                                             bio::GapPenalties gaps);

[[nodiscard]] PairwiseAlignment banded_global_align(
    std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
    const bio::SubstitutionMatrix& matrix, bio::GapPenalties gaps,
    std::size_t band);

[[nodiscard]] LocalAlignment local_align(std::span<const std::uint8_t> a,
                                         std::span<const std::uint8_t> b,
                                         const bio::SubstitutionMatrix& matrix,
                                         bio::GapPenalties gaps);

}  // namespace reference

}  // namespace engine
}  // namespace salign::align
