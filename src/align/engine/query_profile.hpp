#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bio/substitution_matrix.hpp"

namespace salign::align::engine {

/// Pre-expanded substitution scores of one sequence against the whole
/// alphabet: row(c)[j] == matrix.score(c, b[j]).
///
/// The DP inner loop then replaces the two-level `matrix.score(a[i], b[j])`
/// gather (code -> row pointer -> element) with a single contiguous read from
/// the row of the current residue of A. Rows are padded to a multiple of 8
/// floats, and the table by kPad floats at both ends (all zero-filled), so
/// the wavefront's score-tile loads, which reach a few columns past either
/// end of a row, never leave the allocation.
class QueryProfile {
 public:
  /// Zero floats before the first row and after the last.
  static constexpr std::size_t kPad = 16;

  QueryProfile(std::span<const std::uint8_t> b,
               const bio::SubstitutionMatrix& matrix);

  [[nodiscard]] std::size_t length() const { return n_; }

  /// Contiguous score row for residue code `c`; valid indices [0, length).
  [[nodiscard]] const float* row(std::uint8_t c) const {
    return scores_.data() + kPad + static_cast<std::size_t>(c) * stride_;
  }

  /// Bytes held by the score table (workspace accounting).
  [[nodiscard]] std::size_t bytes() const {
    return scores_.size() * sizeof(float);
  }

 private:
  std::size_t n_ = 0;
  std::size_t stride_ = 0;
  std::vector<float> scores_;
};

}  // namespace salign::align::engine
