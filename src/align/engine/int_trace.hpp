#pragma once

// Traceback walker of the striped integer full-alignment tiers. Only
// striped.cpp includes this.
//
// The striped tiers run the combined Gotoh form H = max(M, X, Y), E = X, F = Y
// (exact under the IntGate open >= ext >= 1 condition, see striped.cpp) and
// retain exact integer H/E/F cell values. The walker re-derives the float
// reference kernel's came_from decisions from those values:
//
//   X(i,j) = E(i,j),  Y(i,j) = F(i,j),  M(i,j) = H(i-1,j-1) + sub(i,j),
//
// with the comparison chains copied verbatim from tests/oracles/reference.cpp.
// Every stored value is an exact integer a float represents exactly, so the
// integer comparisons reproduce the reference's float comparisons — same
// path, same tie-breaks. Cells the reference marks unreachable (kNegInf)
// appear here as the kNegI sentinel; the chains only ever compare two
// sentinel-derived values where the penalty offsets cannot flip the
// reference outcome (offsets enter as -open vs -ext with open >= ext, which
// orders the operands exactly as the reference's "ties prefer extend" >=
// does on equal kNegInf values).

#include <algorithm>
#include <cstdint>
#include <limits>

#include "align/pairwise.hpp"

namespace salign::align::engine::detail {

/// Unreachable-cell sentinel of the integer traceback. A quarter of the
/// int64 range: subtracting a gap penalty can never wrap, and no reachable
/// cell value (bounded by kMaxMagnitude * length) comes anywhere near it.
inline constexpr std::int64_t kNegI =
    std::numeric_limits<std::int64_t>::min() / 4;

enum IntState : std::uint8_t { kIM = 0, kIX = 1, kIY = 2 };

/// `Values` supplies exact cell values (boundaries included) as int64:
///   m(i,j), x(i,j), y(i,j)  — the three reference states;
///   open, ext               — integer gap penalties (data members);
///   ensure(j)               — make columns j and j-1 readable (the striped
///                             tier recomputes a checkpoint block here;
///                             returns false when the block discovers a
///                             clamped E/F cell and the tier must promote).
///
/// Walks rows [0,m] x cols [0,n] from the corner exactly like the reference
/// kernel; returns false only if ensure() fails (out is then invalid).
template <typename Values>
[[nodiscard]] bool integer_global_traceback(std::size_t m, std::size_t n,
                                            Values& vals,
                                            PairwiseAlignment* out) {
  if (!vals.ensure(n)) return false;

  // Final state: best of the three at (m, n), strict > displaces (M > X > Y).
  std::uint8_t state = kIM;
  std::int64_t best = vals.m(m, n);
  if (vals.x(m, n) > best) {
    best = vals.x(m, n);
    state = kIX;
  }
  if (vals.y(m, n) > best) {
    best = vals.y(m, n);
    state = kIY;
  }
  out->score = static_cast<float>(best);
  out->ops.clear();

  const std::int64_t open = vals.open;
  const std::int64_t ext = vals.ext;
  std::size_t i = m;
  std::size_t j = n;
  while (i > 0 || j > 0) {
    if (i == 0) {
      out->ops.push_back(EditOp::GapInA);
      --j;
      continue;
    }
    if (j == 0) {
      out->ops.push_back(EditOp::GapInB);
      --i;
      continue;
    }
    if (!vals.ensure(j)) return false;

    // Reference came_from chains (tests/oracles/reference.cpp), on exact
    // values.
    std::uint8_t from = kIM;
    switch (state) {
      case kIM: {
        const std::int64_t pm = vals.m(i - 1, j - 1);
        const std::int64_t px = vals.x(i - 1, j - 1);
        const std::int64_t py = vals.y(i - 1, j - 1);
        std::int64_t b = pm;
        if (px > b) {
          b = px;
          from = kIX;
        }
        if (py > b) from = kIY;
        break;
      }
      case kIX: {
        const std::int64_t open_x = vals.m(i, j - 1) - open;
        const std::int64_t ext_x = vals.x(i, j - 1) - ext;
        const std::int64_t via_y = vals.y(i, j - 1) - open;
        if (ext_x >= open_x && ext_x >= via_y)
          from = kIX;
        else
          from = open_x >= via_y ? kIM : kIY;
        break;
      }
      default: {
        const std::int64_t open_y = vals.m(i - 1, j) - open;
        const std::int64_t ext_y = vals.y(i - 1, j) - ext;
        const std::int64_t via_x = vals.x(i - 1, j) - open;
        if (ext_y >= open_y && ext_y >= via_x)
          from = kIY;
        else
          from = open_y >= via_x ? kIM : kIX;
        break;
      }
    }
    switch (state) {
      case kIM:
        out->ops.push_back(EditOp::Match);
        --i;
        --j;
        break;
      case kIX:
        out->ops.push_back(EditOp::GapInA);
        --j;
        break;
      default:
        out->ops.push_back(EditOp::GapInB);
        --i;
        break;
    }
    state = from;
  }
  std::reverse(out->ops.begin(), out->ops.end());
  return true;
}

}  // namespace salign::align::engine::detail
