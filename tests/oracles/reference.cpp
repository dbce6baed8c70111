// Retained scalar reference kernels.
//
// These are the pre-engine row-major Gotoh implementations, kept verbatim
// (full O(m·n) traceback matrix and all). They are NOT on any production
// path and are not part of libsalign: they build into the tests-only
// salign_test_oracles library. They exist because the engine promises
// *exact* score and traceback equality with them, and the randomized
// differential tests in tests/align_*_test.cpp enforce that promise on
// every build.

#include <algorithm>
#include <vector>

#include "align/engine/engine.hpp"
#include "oracles/reference.hpp"
#include "util/matrix.hpp"

namespace salign::align::engine::reference {

namespace {

enum State : std::uint8_t { kM = 0, kX = 1, kY = 2, kStop = 3 };

struct Cell {
  // came_from[s] = predecessor state of state s at this cell.
  std::uint8_t came_from[3] = {kM, kM, kM};
};

struct LocalCell {
  std::uint8_t came_from[3] = {kStop, kStop, kStop};
};

}  // namespace

PairwiseAlignment global_align(std::span<const std::uint8_t> a,
                               std::span<const std::uint8_t> b,
                               const bio::SubstitutionMatrix& matrix,
                               bio::GapPenalties gaps) {
  const std::size_t m = a.size();
  const std::size_t n = b.size();

  PairwiseAlignment out;
  if (m == 0 && n == 0) return out;
  if (m == 0) {
    out.ops.assign(n, EditOp::GapInA);
    out.score = -(gaps.open + gaps.extend * static_cast<float>(n - 1));
    return out;
  }
  if (n == 0) {
    out.ops.assign(m, EditOp::GapInB);
    out.score = -(gaps.open + gaps.extend * static_cast<float>(m - 1));
    return out;
  }

  // Rolling score rows, full traceback.
  std::vector<float> prev_m(n + 1), prev_x(n + 1), prev_y(n + 1);
  std::vector<float> cur_m(n + 1), cur_x(n + 1), cur_y(n + 1);
  util::Matrix<Cell> trace(m + 1, n + 1);

  prev_m[0] = 0.0F;
  prev_x[0] = kNegInf;
  prev_y[0] = kNegInf;
  for (std::size_t j = 1; j <= n; ++j) {
    prev_m[j] = kNegInf;
    prev_x[j] = -(gaps.open + gaps.extend * static_cast<float>(j - 1));
    prev_y[j] = kNegInf;
    trace(0, j).came_from[kX] = kX;
  }

  for (std::size_t i = 1; i <= m; ++i) {
    cur_m[0] = kNegInf;
    cur_x[0] = kNegInf;
    cur_y[0] = -(gaps.open + gaps.extend * static_cast<float>(i - 1));
    trace(i, 0).came_from[kY] = kY;

    for (std::size_t j = 1; j <= n; ++j) {
      Cell& t = trace(i, j);

      // State M: consume a[i-1] and b[j-1].
      const float sub = matrix.score(a[i - 1], b[j - 1]);
      float best = prev_m[j - 1];
      std::uint8_t from = kM;
      if (prev_x[j - 1] > best) {
        best = prev_x[j - 1];
        from = kX;
      }
      if (prev_y[j - 1] > best) {
        best = prev_y[j - 1];
        from = kY;
      }
      cur_m[j] = best + sub;
      t.came_from[kM] = from;

      // State X: gap in A (consume b[j-1]); horizontal move.
      const float open_x = cur_m[j - 1] - gaps.open;
      const float ext_x = cur_x[j - 1] - gaps.extend;
      const float via_y = cur_y[j - 1] - gaps.open;
      if (ext_x >= open_x && ext_x >= via_y) {
        cur_x[j] = ext_x;
        t.came_from[kX] = kX;
      } else if (open_x >= via_y) {
        cur_x[j] = open_x;
        t.came_from[kX] = kM;
      } else {
        cur_x[j] = via_y;
        t.came_from[kX] = kY;
      }

      // State Y: gap in B (consume a[i-1]); vertical move.
      const float open_y = prev_m[j] - gaps.open;
      const float ext_y = prev_y[j] - gaps.extend;
      const float via_x = prev_x[j] - gaps.open;
      if (ext_y >= open_y && ext_y >= via_x) {
        cur_y[j] = ext_y;
        t.came_from[kY] = kY;
      } else if (open_y >= via_x) {
        cur_y[j] = open_y;
        t.came_from[kY] = kM;
      } else {
        cur_y[j] = via_x;
        t.came_from[kY] = kX;
      }
    }
    std::swap(prev_m, cur_m);
    std::swap(prev_x, cur_x);
    std::swap(prev_y, cur_y);
  }

  // Final state: best of the three at (m, n).
  std::uint8_t state = kM;
  float best = prev_m[n];
  if (prev_x[n] > best) {
    best = prev_x[n];
    state = kX;
  }
  if (prev_y[n] > best) {
    best = prev_y[n];
    state = kY;
  }
  out.score = best;

  // Traceback.
  std::size_t i = m;
  std::size_t j = n;
  while (i > 0 || j > 0) {
    const std::uint8_t from = trace(i, j).came_from[state];
    switch (state) {
      case kM:
        out.ops.push_back(EditOp::Match);
        --i;
        --j;
        break;
      case kX:
        out.ops.push_back(EditOp::GapInA);
        --j;
        break;
      case kY:
        out.ops.push_back(EditOp::GapInB);
        --i;
        break;
      default: break;
    }
    state = from;
  }
  std::reverse(out.ops.begin(), out.ops.end());
  return out;
}

LocalAlignment local_align(std::span<const std::uint8_t> a,
                           std::span<const std::uint8_t> b,
                           const bio::SubstitutionMatrix& matrix,
                           bio::GapPenalties gaps) {
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  LocalAlignment out;
  if (m == 0 || n == 0) return out;

  std::vector<float> prev_m(n + 1, kNegInf), prev_x(n + 1, kNegInf),
      prev_y(n + 1, kNegInf);
  std::vector<float> cur_m(n + 1), cur_x(n + 1), cur_y(n + 1);
  util::Matrix<LocalCell> trace(m + 1, n + 1);

  float best = 0.0F;
  std::size_t best_i = 0;
  std::size_t best_j = 0;
  std::uint8_t best_state = kStop;

  for (std::size_t i = 1; i <= m; ++i) {
    cur_m[0] = kNegInf;
    cur_x[0] = kNegInf;
    cur_y[0] = kNegInf;
    for (std::size_t j = 1; j <= n; ++j) {
      LocalCell& t = trace(i, j);

      const float sub = matrix.score(a[i - 1], b[j - 1]);
      // M may also start fresh (score 0 predecessor).
      float bm = 0.0F;
      std::uint8_t from = kStop;
      if (prev_m[j - 1] > bm) {
        bm = prev_m[j - 1];
        from = kM;
      }
      if (prev_x[j - 1] > bm) {
        bm = prev_x[j - 1];
        from = kX;
      }
      if (prev_y[j - 1] > bm) {
        bm = prev_y[j - 1];
        from = kY;
      }
      cur_m[j] = bm + sub;
      t.came_from[kM] = from;

      const float open_x = cur_m[j - 1] - gaps.open;
      const float ext_x = cur_x[j - 1] - gaps.extend;
      if (ext_x >= open_x) {
        cur_x[j] = ext_x;
        t.came_from[kX] = kX;
      } else {
        cur_x[j] = open_x;
        t.came_from[kX] = kM;
      }

      const float open_y = prev_m[j] - gaps.open;
      const float ext_y = prev_y[j] - gaps.extend;
      if (ext_y >= open_y) {
        cur_y[j] = ext_y;
        t.came_from[kY] = kY;
      } else {
        cur_y[j] = open_y;
        t.came_from[kY] = kM;
      }

      if (cur_m[j] > best) {
        best = cur_m[j];
        best_i = i;
        best_j = j;
        best_state = kM;
      }
    }
    std::swap(prev_m, cur_m);
    std::swap(prev_x, cur_x);
    std::swap(prev_y, cur_y);
  }

  out.score = best;
  if (best_state == kStop) return out;  // empty alignment

  std::size_t i = best_i;
  std::size_t j = best_j;
  std::uint8_t state = best_state;
  while (state != kStop) {
    const std::uint8_t from = trace(i, j).came_from[state];
    switch (state) {
      case kM:
        out.ops.push_back(EditOp::Match);
        --i;
        --j;
        break;
      case kX:
        out.ops.push_back(EditOp::GapInA);
        --j;
        break;
      case kY:
        out.ops.push_back(EditOp::GapInB);
        --i;
        break;
      default: break;
    }
    state = from;
    if (i == 0 && j == 0) break;
  }
  std::reverse(out.ops.begin(), out.ops.end());
  out.a_begin = i;
  out.b_begin = j;
  return out;
}

}  // namespace salign::align::engine::reference
