// Blocked anti-diagonal Gotoh kernels.
//
// Layout: the three affine states (M = match, X = gap in A, Y = gap in B)
// are held per anti-diagonal d = i + j as arrays indexed by the row i. On a
// diagonal every cell depends only on diagonals d-1 (X from the left cell,
// Y from the cell above) and d-2 (M from the diagonal cell), so the whole
// diagonal updates with element-wise vector max/add — no in-loop dependency
// and no branches. Substitution scores come from a QueryProfile row gather
// into a scratch diagonal, the only scalar step per cell.
//
// Exactness: each cell performs the same IEEE single-precision operations in
// the same operand order as the retained reference kernels
// (tests/oracles/reference.cpp), so scores are bit-identical and traceback
// decisions — re-derived from stored state values with the reference's
// comparison chains — are identical too. Unreachable cells use the
// align::kNegInf sentinel; adding or subtracting any realistic score is
// absorbed by float rounding (see engine.hpp).
//
// Memory: score-only passes keep three diagonals (O(m + n)). Full
// alignments store every ~sqrt(m)-th row of state values during the forward
// pass and recompute one block of rows at a time during traceback, so no
// O(m·n) traceback matrix is ever allocated.

#include "align/engine/gotoh.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "align/engine/engine.hpp"
#include "align/engine/query_profile.hpp"

namespace salign::align::engine::detail {

namespace {

enum State : std::uint8_t { kM = 0, kX = 1, kY = 2, kStop = 3 };

// ---- forward-pass sinks ----------------------------------------------------

/// Row-state checkpoints captured during the forward pass: full (M, X, Y)
/// rows every K-th row, kNegInf elsewhere.
struct Checkpoints {
  std::size_t interval = 0;  // K
  std::size_t stride = 0;    // n + 1
  std::vector<float> m, x, y;

  void init(std::size_t k, std::size_t rows, std::size_t cols) {
    interval = k;
    stride = cols;
    const std::size_t count = rows / k + 1;
    m.assign(count * stride, kNegInf);
    x.assign(count * stride, kNegInf);
    y.assign(count * stride, kNegInf);
  }
  [[nodiscard]] const float* row_m(std::size_t row) const {
    return m.data() + row / interval * stride;
  }
  [[nodiscard]] const float* row_x(std::size_t row) const {
    return x.data() + row / interval * stride;
  }
  [[nodiscard]] const float* row_y(std::size_t row) const {
    return y.data() + row / interval * stride;
  }
};

/// All three state values of a contiguous row block [r0, r0 + rows), used by
/// the traceback to re-derive the reference kernels' came_from decisions.
/// Values are stored diagonal-major — cell (local diag d, local row r) lives
/// at slot d * rows + r — so the kernel's per-diagonal output arrays land
/// with three contiguous copies instead of a per-cell scatter.
struct Block {
  std::size_t r0 = 0;
  std::size_t rows = 0;    // includes the seed row r0
  std::size_t stride = 0;  // == rows: slots per diagonal
  std::vector<float> m, x, y;

  /// No kNegInf preload: the run writes every slot the walk ever reads.
  void init(std::size_t seed_row, std::size_t row_count, std::size_t jcap) {
    r0 = seed_row;
    rows = row_count;
    stride = row_count;
    const std::size_t need = (row_count + jcap) * stride;
    m.resize(need);
    x.resize(need);
    y.resize(need);
  }
  [[nodiscard]] std::size_t at(std::size_t i, std::size_t j) const {
    const std::size_t r = i - r0;
    return (r + j) * stride + r;
  }
  [[nodiscard]] float M(std::size_t i, std::size_t j) const { return m[at(i, j)]; }
  [[nodiscard]] float X(std::size_t i, std::size_t j) const { return x[at(i, j)]; }
  [[nodiscard]] float Y(std::size_t i, std::size_t j) const { return y[at(i, j)]; }
};

struct NullSink {
  void diagonal(std::size_t, bool, std::size_t, std::size_t, bool,
                std::size_t, const float*, const float*, const float*) {}
};

struct CheckpointSink {
  Checkpoints* cp;
  // Rows here are absolute (the forward pass runs with r0 == 0).
  void diagonal(std::size_t d, bool has_b0, std::size_t ilo, std::size_t ihi,
                bool has_bd, std::size_t /*r0*/, const float* m0,
                const float* x0, const float* y0) {
    const std::size_t k = cp->interval;
    auto capture = [&](std::size_t r) {
      const std::size_t j = d - r;
      const std::size_t at = r / k * cp->stride + j;
      cp->m[at] = m0[r];
      cp->x[at] = x0[r];
      cp->y[at] = y0[r];
    };
    if (has_b0) capture(0);
    if (ilo <= ihi)
      for (std::size_t r = (ilo + k - 1) / k * k; r <= ihi; r += k)
        capture(r);
    if (has_bd && d % k == 0 && d > 0) capture(d);
  }
};

/// Short inline copy: block diagonals are a few dozen floats, where an
/// out-of-line memmove call costs more than the copy itself.
inline void copy_floats(const float* src, float* dst, std::size_t len) {
  for (std::size_t t = 0; t < len; ++t) dst[t] = src[t];
}

struct BlockSink {
  Block* blk;
  // Rows handed to diagonal() are block-local (0 = seed row); the seed row
  // itself is filled by the caller, so has_b0 cells are skipped. The block's
  // diagonal-major layout makes each capture a contiguous copy.
  void diagonal(std::size_t d, bool /*has_b0*/, std::size_t ilo,
                std::size_t ihi, bool has_bd, std::size_t /*r0*/,
                const float* m0, const float* x0, const float* y0) {
    const std::size_t base = d * blk->stride;
    if (ilo <= ihi) {
      const std::size_t len = ihi - ilo + 1;
      copy_floats(m0 + ilo, blk->m.data() + base + ilo, len);
      copy_floats(x0 + ilo, blk->x.data() + base + ilo, len);
      copy_floats(y0 + ilo, blk->y.data() + base + ilo, len);
    }
    if (has_bd) {  // column-0 cell; always above the interior range
      blk->m[base + d] = m0[d];
      blk->x[base + d] = x0[d];
      blk->y[base + d] = y0[d];
    }
  }
};

/// Running best M cell for local alignment, with the reference's row-major
/// first-winner tie rule (scan order there: i ascending, then j ascending,
/// strict >).
struct LocalBest {
  float value = 0.0F;
  std::size_t i = 0, j = 0;
  bool found = false;

  void offer(float v, std::size_t ci, std::size_t cj) {
    if (!found) {
      if (v > value) {
        value = v;
        i = ci;
        j = cj;
        found = true;
      }
      return;
    }
    if (v > value || (v == value && (ci < i || (ci == i && cj < j)))) {
      value = v;
      i = ci;
      j = cj;
      found = true;
    }
  }
};

// ---- the anti-diagonal kernel ----------------------------------------------

/// Shared problem description for one run of the kernel.
struct Problem {
  const float* const* score_rows = nullptr;   // per absolute row: QP row
  std::size_t m = 0, n = 0;                   // full DP extents
  float open = 0.0F, ext = 0.0F;
};

/// Reusable diagonal workspace: 9 state diagonals + score scratch, padded so
/// vector loads/stores at the range ends stay inside the allocation.
struct DiagWorkspace {
  std::vector<float> buf;
  std::size_t padded = 0;

  void init(std::size_t rows, int lanes) {
    padded = rows + 2 + static_cast<std::size_t>(lanes);
    buf.assign(10 * padded, kNegInf);
    std::fill_n(buf.begin() + static_cast<std::ptrdiff_t>(9 * padded), padded,
                0.0F);
  }
  [[nodiscard]] float* lane(std::size_t idx) { return buf.data() + idx * padded; }
  [[nodiscard]] std::size_t bytes() const {
    return buf.capacity() * sizeof(float);
  }
};

/// Runs rows [r0+1, r0+rows] x cols [0, jcap] of the DP over anti-diagonals,
/// seeded with row r0's state values (seed_* index by column). Invokes
/// `sink.diagonal()` after every diagonal; tracks the local best-M cell when
/// `best` is non-null; writes the (r0+rows, jcap) corner state values into
/// `corner[3]` when non-null.
template <typename V, bool kLocal, typename Sink>
void run_diagonals(const Problem& pb, std::size_t r0, std::size_t rows,
                   std::size_t jcap, const float* seed_m, const float* seed_x,
                   const float* seed_y, DiagWorkspace& ws, Sink&& sink,
                   [[maybe_unused]] LocalBest* best, float* corner) {
  constexpr std::size_t W = static_cast<std::size_t>(V::kLanes);
  ws.init(rows, V::kLanes);
  float* m2 = ws.lane(0);
  float* x2 = ws.lane(1);
  float* y2 = ws.lane(2);
  float* m1 = ws.lane(3);
  float* x1 = ws.lane(4);
  float* y1 = ws.lane(5);
  float* m0 = ws.lane(6);
  float* x0 = ws.lane(7);
  float* y0 = ws.lane(8);
  float* sub = ws.lane(9);

  const V vopen = V::splat(pb.open);
  const V vext = V::splat(pb.ext);
  const V vneg = V::splat(kNegInf);
  [[maybe_unused]] const V vzero = V::splat(0.0F);

  const std::size_t last = rows + jcap;
  for (std::size_t d = 0; d <= last; ++d) {
    // Interior cells: i' in [1, rows], j = d - i' in [1, jcap].
    std::size_t ilo = 1;
    std::size_t ihi = 0;
    if (d >= 2) {
      ilo = d > jcap ? d - jcap : 1;
      ihi = std::min(rows, d - 1);
    }

    if (ilo <= ihi) {
      for (std::size_t i = ilo; i <= ihi; ++i)
        sub[i] = pb.score_rows[r0 + i][d - i - 1];
      for (std::size_t i = ilo; i <= ihi; i += W) {
        V mm = max3(V::load(m2 + i - 1), V::load(x2 + i - 1),
                    V::load(y2 + i - 1));
        if constexpr (kLocal) mm = V::max(mm, vzero);
        const V mv = mm + V::load(sub + i);
        V xv, yv;
        if constexpr (kLocal) {
          xv = V::max(V::load(m1 + i) - vopen, V::load(x1 + i) - vext);
          yv = V::max(V::load(m1 + i - 1) - vopen, V::load(y1 + i - 1) - vext);
        } else {
          xv = max3(V::load(m1 + i) - vopen, V::load(x1 + i) - vext,
                    V::load(y1 + i) - vopen);
          yv = max3(V::load(m1 + i - 1) - vopen, V::load(y1 + i - 1) - vext,
                    V::load(x1 + i - 1) - vopen);
        }
        mv.store(m0 + i);
        xv.store(x0 + i);
        yv.store(y0 + i);
      }
      // Neutralize tail-lane overrun and mark the range edge for the next
      // two diagonals (ranges shift by at most one per diagonal).
      vneg.store(m0 + ihi + 1);
      vneg.store(x0 + ihi + 1);
      vneg.store(y0 + ihi + 1);
      if (ilo >= 1) {
        m0[ilo - 1] = kNegInf;
        x0[ilo - 1] = kNegInf;
        y0[ilo - 1] = kNegInf;
      }

      if constexpr (kLocal) {
        if (best != nullptr) {
          float diag_max = kNegInf;
          std::size_t i = ilo;
          if (ihi - ilo + 1 >= W) {
            V acc = V::load(m0 + i);
            for (i += W; i + W - 1 <= ihi; i += W)
              acc = V::max(acc, V::load(m0 + i));
            for (std::size_t l = 0; l < W; ++l)
              diag_max = std::max(diag_max, acc.lane(static_cast<int>(l)));
          }
          for (; i <= ihi; ++i) diag_max = std::max(diag_max, m0[i]);
          if (diag_max > best->value ||
              (best->found && diag_max == best->value)) {
            for (std::size_t c = ilo; c <= ihi; ++c)
              if (m0[c] == diag_max) {
                best->offer(diag_max, r0 + c, d - c);
                break;
              }
          }
        }
      }
    }

    // Border cells. Row r0 (i' == 0) comes from the seed row; column 0 uses
    // the standard origin-anchored gap run (global) or stays unreachable
    // (local), exactly as in the reference kernels.
    const bool has_b0 = d <= jcap;
    if (has_b0) {
      m0[0] = seed_m[d];
      x0[0] = seed_x[d];
      y0[0] = seed_y[d];
    }
    const bool has_bd = d >= 1 && d <= rows;
    if (has_bd) {
      m0[d] = kNegInf;
      x0[d] = kNegInf;
      const std::size_t abs_row = r0 + d;
      y0[d] = kLocal ? kNegInf
                     : -(pb.open + pb.ext * static_cast<float>(abs_row - 1));
    }

    sink.diagonal(d, has_b0, ilo, ihi, has_bd, r0, m0, x0, y0);

    if (corner != nullptr && d == last) {
      corner[kM] = m0[rows];
      corner[kX] = x0[rows];
      corner[kY] = y0[rows];
    }

    // Rotate: current becomes d-1, d-1 becomes d-2, d-2 is recycled.
    std::swap(m2, m1);
    std::swap(x2, x1);
    std::swap(y2, y1);
    std::swap(m1, m0);
    std::swap(x1, x0);
    std::swap(y1, y0);
  }
}

// ---- shared setup ----------------------------------------------------------

/// Standard first-row boundary values (cols 0..n): the seed of the top-level
/// forward pass.
void make_row0_seed(std::size_t n, float open, float ext, bool local,
                    std::vector<float>& sm, std::vector<float>& sx,
                    std::vector<float>& sy) {
  sm.assign(n + 1, kNegInf);
  sx.assign(n + 1, kNegInf);
  sy.assign(n + 1, kNegInf);
  if (local) return;
  sm[0] = 0.0F;
  for (std::size_t j = 1; j <= n; ++j)
    sx[j] = -(open + ext * static_cast<float>(j - 1));
}

/// Checkpoint interval: ~sqrt(m), floored so tiny problems use one block.
std::size_t checkpoint_interval(std::size_t m) {
  const auto root = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(m))));
  return std::clamp<std::size_t>(root, 32, 4096);
}

struct ForwardState {
  QueryProfile qp;
  std::vector<const float*> score_rows;  // per absolute row 1..m
  std::vector<float> seed_m, seed_x, seed_y;
  Problem pb;

  ForwardState(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
               const bio::SubstitutionMatrix& matrix, bio::GapPenalties gaps,
               bool local)
      : qp(b, matrix) {
    const std::size_t m = a.size();
    const std::size_t n = b.size();
    score_rows.assign(m + 1, nullptr);
    for (std::size_t i = 1; i <= m; ++i) score_rows[i] = qp.row(a[i - 1]);
    make_row0_seed(n, gaps.open, gaps.extend, local, seed_m, seed_x, seed_y);
    pb = Problem{score_rows.data(), m, n, gaps.open, gaps.extend};
  }

  [[nodiscard]] std::size_t bytes() const {
    return qp.bytes() + score_rows.capacity() * sizeof(const float*) +
           (seed_m.capacity() + seed_x.capacity() + seed_y.capacity()) *
               sizeof(float);
  }
};

std::uint8_t pick_final_state(const float corner[3]) {
  std::uint8_t state = kM;
  float best = corner[kM];
  if (corner[kX] > best) {
    best = corner[kX];
    state = kX;
  }
  if (corner[kY] > best) state = kY;
  return state;
}

// ---- traceback: came_from re-derivation ------------------------------------

/// Reference global chains, applied to the stored state values. Must stay in
/// lock-step with tests/oracles/reference.cpp.
std::uint8_t came_from_global(const Block& blk, std::size_t i, std::size_t j,
                              std::uint8_t state, float open, float ext) {
  switch (state) {
    case kM: {
      const float pm = blk.M(i - 1, j - 1);
      const float px = blk.X(i - 1, j - 1);
      const float py = blk.Y(i - 1, j - 1);
      float best = pm;
      std::uint8_t from = kM;
      if (px > best) {
        best = px;
        from = kX;
      }
      if (py > best) from = kY;
      return from;
    }
    case kX: {
      const float open_x = blk.M(i, j - 1) - open;
      const float ext_x = blk.X(i, j - 1) - ext;
      const float via_y = blk.Y(i, j - 1) - open;
      if (ext_x >= open_x && ext_x >= via_y) return kX;
      return open_x >= via_y ? kM : kY;
    }
    default: {
      const float open_y = blk.M(i - 1, j) - open;
      const float ext_y = blk.Y(i - 1, j) - ext;
      const float via_x = blk.X(i - 1, j) - open;
      if (ext_y >= open_y && ext_y >= via_x) return kY;
      return open_y >= via_x ? kM : kX;
    }
  }
}

/// Reference local chains (no X<->Y cross moves; M may start fresh).
std::uint8_t came_from_local(const Block& blk, std::size_t i, std::size_t j,
                             std::uint8_t state, float open, float ext) {
  switch (state) {
    case kM: {
      float best = 0.0F;
      std::uint8_t from = kStop;
      if (blk.M(i - 1, j - 1) > best) {
        best = blk.M(i - 1, j - 1);
        from = kM;
      }
      if (blk.X(i - 1, j - 1) > best) {
        best = blk.X(i - 1, j - 1);
        from = kX;
      }
      if (blk.Y(i - 1, j - 1) > best) from = kY;
      return from;
    }
    case kX:
      return blk.X(i, j - 1) - ext >= blk.M(i, j - 1) - open ? kX : kM;
    default:
      return blk.Y(i - 1, j) - ext >= blk.M(i - 1, j) - open ? kY : kM;
  }
}

/// Recomputes block rows [r0+1, top] x cols [0, jcap] from the checkpoint at
/// r0, storing all state values for the traceback walk.
template <typename V, bool kLocal>
void load_block(const ForwardState& fs, const Checkpoints& cp, std::size_t top,
                std::size_t jcap, DiagWorkspace& ws, Block& blk) {
  const std::size_t k = cp.interval;
  const std::size_t r0 = (top - 1) / k * k;
  blk.init(r0, top - r0 + 1, jcap);
  const float* sm = cp.row_m(r0);
  const float* sx = cp.row_x(r0);
  const float* sy = cp.row_y(r0);
  for (std::size_t j = 0; j <= jcap; ++j) {
    const std::size_t at = j * blk.stride;  // seed row: local row 0, diag j
    blk.m[at] = sm[j];
    blk.x[at] = sx[j];
    blk.y[at] = sy[j];
  }
  run_diagonals<V, kLocal>(fs.pb, r0, top - r0, jcap, sm, sx, sy, ws,
                           BlockSink{&blk}, nullptr, nullptr);
}

}  // namespace

// ---- entry points ----------------------------------------------------------

template <typename V>
float global_score_impl(std::span<const std::uint8_t> a,
                        std::span<const std::uint8_t> b,
                        const bio::SubstitutionMatrix& matrix,
                        bio::GapPenalties gaps, std::size_t* workspace_bytes) {
  const ForwardState fs(a, b, matrix, gaps, /*local=*/false);
  DiagWorkspace ws;
  float corner[3] = {kNegInf, kNegInf, kNegInf};
  run_diagonals<V, false>(fs.pb, 0, a.size(), b.size(), fs.seed_m.data(),
                          fs.seed_x.data(), fs.seed_y.data(), ws, NullSink{},
                          nullptr, corner);
  if (workspace_bytes != nullptr) *workspace_bytes = fs.bytes() + ws.bytes();
  return std::max({corner[kM], corner[kX], corner[kY]});
}

template <typename V>
PairwiseAlignment global_align_impl(std::span<const std::uint8_t> a,
                                    std::span<const std::uint8_t> b,
                                    const bio::SubstitutionMatrix& matrix,
                                    bio::GapPenalties gaps) {
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  const ForwardState fs(a, b, matrix, gaps, /*local=*/false);

  Checkpoints cp;
  cp.init(checkpoint_interval(m), m, n + 1);
  DiagWorkspace ws;
  float corner[3] = {kNegInf, kNegInf, kNegInf};
  run_diagonals<V, false>(fs.pb, 0, m, n, fs.seed_m.data(), fs.seed_x.data(),
                          fs.seed_y.data(), ws, CheckpointSink{&cp}, nullptr,
                          corner);

  PairwiseAlignment out;
  std::uint8_t state = pick_final_state(corner);
  out.score = corner[state];

  Block blk;
  std::size_t i = m;
  std::size_t j = n;
  while (i > 0 || j > 0) {
    if (i == 0) {
      out.ops.push_back(EditOp::GapInA);
      --j;
      continue;
    }
    if (j == 0) {
      out.ops.push_back(EditOp::GapInB);
      --i;
      continue;
    }
    if (blk.rows == 0 || i <= blk.r0)
      load_block<V, false>(fs, cp, i, j, ws, blk);
    const std::uint8_t from =
        came_from_global(blk, i, j, state, gaps.open, gaps.extend);
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
      default:
        out.ops.push_back(EditOp::GapInB);
        --i;
        break;
    }
    state = from;
  }
  std::reverse(out.ops.begin(), out.ops.end());
  return out;
}

template <typename V>
LocalAlignment local_align_impl(std::span<const std::uint8_t> a,
                                std::span<const std::uint8_t> b,
                                const bio::SubstitutionMatrix& matrix,
                                bio::GapPenalties gaps) {
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  const ForwardState fs(a, b, matrix, gaps, /*local=*/true);

  Checkpoints cp;
  cp.init(checkpoint_interval(m), m, n + 1);
  DiagWorkspace ws;
  LocalBest best;
  run_diagonals<V, true>(fs.pb, 0, m, n, fs.seed_m.data(), fs.seed_x.data(),
                         fs.seed_y.data(), ws, CheckpointSink{&cp}, &best,
                         nullptr);

  LocalAlignment out;
  out.score = best.found ? best.value : 0.0F;
  if (!best.found) return out;  // empty alignment

  Block blk;
  std::size_t i = best.i;
  std::size_t j = best.j;
  std::uint8_t state = kM;
  while (state != kStop) {
    if (blk.rows == 0 || i <= blk.r0)
      load_block<V, true>(fs, cp, i, j, ws, blk);
    const std::uint8_t from =
        came_from_local(blk, i, j, state, gaps.open, gaps.extend);
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
      default:
        out.ops.push_back(EditOp::GapInB);
        --i;
        break;
    }
    state = from;
    if (i == 0 && j == 0) break;
  }
  std::reverse(out.ops.begin(), out.ops.end());
  out.a_begin = i;
  out.b_begin = j;
  return out;
}

template float global_score_impl<VecF>(std::span<const std::uint8_t>,
                                       std::span<const std::uint8_t>,
                                       const bio::SubstitutionMatrix&,
                                       bio::GapPenalties, std::size_t*);
template PairwiseAlignment global_align_impl<VecF>(
    std::span<const std::uint8_t>, std::span<const std::uint8_t>,
    const bio::SubstitutionMatrix&, bio::GapPenalties);
template LocalAlignment local_align_impl<VecF>(
    std::span<const std::uint8_t>, std::span<const std::uint8_t>,
    const bio::SubstitutionMatrix&, bio::GapPenalties);

}  // namespace salign::align::engine::detail
