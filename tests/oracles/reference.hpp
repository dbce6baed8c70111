#pragma once

// Reference kernels of the alignment engine, built into the tests-only
// salign_test_oracles library (see reference.cpp).

#include <cstddef>
#include <cstdint>
#include <span>

#include "align/pairwise.hpp"

namespace salign::align::engine::reference {

/// The pre-engine row-major implementations with a full traceback matrix.
/// They define the exact score/traceback semantics the engine must
/// reproduce and exist solely as the oracle for the randomized
/// differential tests (and as readable documentation of the recurrences).
[[nodiscard]] PairwiseAlignment global_align(std::span<const std::uint8_t> a,
                                             std::span<const std::uint8_t> b,
                                             const bio::SubstitutionMatrix& matrix,
                                             bio::GapPenalties gaps);

[[nodiscard]] LocalAlignment local_align(std::span<const std::uint8_t> a,
                                         std::span<const std::uint8_t> b,
                                         const bio::SubstitutionMatrix& matrix,
                                         bio::GapPenalties gaps);

}  // namespace salign::align::engine::reference
