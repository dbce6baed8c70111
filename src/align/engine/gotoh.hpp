#pragma once

// Internal kernel entry points of the alignment engine. Only engine.cpp and
// the tests should include this; everything else goes through
// align/engine/engine.hpp.

#include <cstddef>
#include <cstdint>
#include <span>

#include "align/engine/simd.hpp"
#include "align/pairwise.hpp"

namespace salign::align::engine::detail {

/// Score-only affine-gap global alignment over anti-diagonals. O(m + n)
/// workspace; `workspace_bytes` (optional) receives the total DP workspace
/// allocated.
template <typename V>
float global_score_impl(std::span<const std::uint8_t> a,
                        std::span<const std::uint8_t> b,
                        const bio::SubstitutionMatrix& matrix,
                        bio::GapPenalties gaps, std::size_t* workspace_bytes);

/// Full global alignment: anti-diagonal forward pass with row checkpoints
/// every ~sqrt(m) rows, then block-wise recompute during traceback. Exact
/// score/op/tie-break parity with the reference kernels.
template <typename V>
PairwiseAlignment global_align_impl(std::span<const std::uint8_t> a,
                                    std::span<const std::uint8_t> b,
                                    const bio::SubstitutionMatrix& matrix,
                                    bio::GapPenalties gaps);

/// Full local (Smith–Waterman) alignment with the same checkpointed
/// traceback machinery.
template <typename V>
LocalAlignment local_align_impl(std::span<const std::uint8_t> a,
                                std::span<const std::uint8_t> b,
                                const bio::SubstitutionMatrix& matrix,
                                bio::GapPenalties gaps);

extern template float global_score_impl<VecF>(
    std::span<const std::uint8_t>, std::span<const std::uint8_t>,
    const bio::SubstitutionMatrix&, bio::GapPenalties, std::size_t*);
extern template PairwiseAlignment global_align_impl<VecF>(
    std::span<const std::uint8_t>, std::span<const std::uint8_t>,
    const bio::SubstitutionMatrix&, bio::GapPenalties);
extern template LocalAlignment local_align_impl<VecF>(
    std::span<const std::uint8_t>, std::span<const std::uint8_t>,
    const bio::SubstitutionMatrix&, bio::GapPenalties);

}  // namespace salign::align::engine::detail
