// Blocked anti-diagonal (wavefront) PSP profile DP.
//
// The row-major profile_dp's inner loop carries a dependency through the
// gap-in-A state (cx[j] reads cx[j-1] of the same row), so rows cannot be
// vectorized directly, and the occupancy-scaled gap penalties rule out the
// closed-form carry scans the striped integer kernels use (float rounding
// would differ from the sequential subtraction chain). On an anti-diagonal,
// however, all three states read only the two previous diagonals, so a
// whole diagonal updates with element-wise vector max/add — the same layout
// as the engine's pairwise Gotoh kernel (align/engine/gotoh.cpp), with two
// adaptations:
//
//  * scores come from dense PspRowScorer rows, materialized one row block
//    (kRowBlock rows) at a time with the scorer's own saxpy sweeps, and
//    gathered per diagonal — O(block * n) scratch, never O(m * n);
//  * the gap penalties are position-dependent (open/extend scaled by the
//    occupancy of the consumed column), so they are precomputed as gap
//    vectors: forward along A for gap-in-B moves (contiguous in the
//    diagonal's row index), reversed along B for gap-in-A moves (a reversed
//    copy makes the j-indexed factor contiguous in the row index too).
//
// Exactness: every cell performs the same IEEE single-precision multiplies,
// subtractions, adds and maxes as the scalar kernel's per-cell chains, and
// unreachable cells hold exactly align::kNegInf in both (subtracting any
// realistic penalty from the sentinel is absorbed by rounding, and the
// scalar path's `best > kNegInf / 2` clamp only ever fires on exact
// sentinels, where `best + sub` rounds back to the sentinel anyway) — so
// scores are bit-identical. Traceback decisions are taken in the same
// vector step by comparing each operand against the max it fed (see
// kChoice), which reproduces the scalar kernel's tie chains, so paths are
// identical too. The randomized differential suite in
// tests/msa_parallel_test.cpp pins this against the row-major profile_dp.
//
// Memory: the forward pass keeps three diagonals and one score block. DPs
// within ProfileAlignOptions::max_trace_cells also keep one decision byte
// per cell (row blocks stored diagonal-major), and traceback walks those
// bytes. Larger DPs keep one checkpoint row every K ~ sqrt(m) rows instead;
// traceback reruns one block of rows at a time from its checkpoint with
// decision bytes on, so both paths decode one format.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "align/engine/simd.hpp"
#include "msa/profile_align.hpp"
#include "util/matrix.hpp"

namespace salign::msa::detail {

namespace {

constexpr float kNegInf = align::kNegInf;
using V = align::engine::VecF;
constexpr std::size_t kW = static_cast<std::size_t>(V::kLanes);

/// Forward-pass score-block height. Diagonals inside a block are at most
/// this long, so the wavefront ramp-up costs ~kRowBlock/n of the cells —
/// negligible for the wide DPs this kernel exists for — while the dense
/// score scratch stays at kRowBlock * n floats.
constexpr std::size_t kRowBlock = 32;

/// Checkpoint interval: ~sqrt(m) rounded up to a whole number of score
/// blocks so checkpoint rows coincide with block-final rows. The 1024 cap
/// bounds the traceback block recompute's decision bytes (diagonal-major)
/// on extreme inputs.
std::size_t checkpoint_interval(std::size_t m) {
  const auto root = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(m))));
  const std::size_t blocks = (root + kRowBlock - 1) / kRowBlock;
  return std::clamp<std::size_t>(blocks * kRowBlock, kRowBlock, 1024);
}

/// Shared problem description: band geometry (the scalar kernel's formulas,
/// verbatim) plus the precomputed occupancy-scaled gap vectors and the
/// accumulated column-0 / row-0 boundary runs.
struct Geometry {
  std::size_t m = 0, n = 0;
  float open = 0.0F, ext = 0.0F;
  bool banded = false;
  std::vector<std::size_t> lo, hi;  // per row 0..m
  // Gap vectors, padded by kW so diagonal-end vector loads stay in bounds:
  // open_a[i] = open * occ_a[i] (gap-in-B penalties, contiguous in the
  // diagonal row index), rev_open_b[t] = open * occ_b[n-1-t] (gap-in-A
  // penalties; on diagonal d the j-indexed factor lives at (n + i) - d,
  // ascending in the row index i).
  std::vector<float> open_a, ext_a, rev_open_b, rev_ext_b;
  std::vector<float> yborder;  // column-0 gap run per row 0..m
  std::vector<float> seed0_m, seed0_x, seed0_y;  // row-0 boundary

  Geometry(std::size_t m_, std::size_t n_, std::span<const float> occ_a,
           std::span<const float> occ_b, const ProfileAlignOptions& opts)
      : m(m_), n(n_), open(opts.gaps.open), ext(opts.gaps.extend),
        banded(opts.band > 0) {
    const std::size_t diff = m > n ? m - n : n - m;
    const std::size_t eff_band =
        banded ? std::max<std::size_t>(opts.band, 1) + diff : n;
    lo.assign(m + 1, 0);
    hi.assign(m + 1, n);
    if (banded) {
      for (std::size_t i = 0; i <= m; ++i) {
        const auto center = static_cast<std::size_t>(
            static_cast<double>(i) * static_cast<double>(n) /
            static_cast<double>(m));
        lo[i] = center > eff_band ? center - eff_band : 0;
        hi[i] = std::min(n, center + eff_band);
      }
    }
    open_a.assign(m + kW, 0.0F);
    ext_a.assign(m + kW, 0.0F);
    for (std::size_t i = 0; i < m; ++i) {
      open_a[i] = open * occ_a[i];
      ext_a[i] = ext * occ_a[i];
    }
    rev_open_b.assign(n + kW, 0.0F);
    rev_ext_b.assign(n + kW, 0.0F);
    for (std::size_t t = 0; t < n; ++t) {
      rev_open_b[t] = open * occ_b[n - 1 - t];
      rev_ext_b[t] = ext * occ_b[n - 1 - t];
    }
    yborder.assign(m + 1, 0.0F);
    {
      float acc = 0.0F;
      for (std::size_t i = 1; i <= m; ++i) {
        acc -= (i == 1 ? open : ext) * occ_a[i - 1];
        yborder[i] = acc;
      }
    }
    seed0_m.assign(n + 1, kNegInf);
    seed0_x.assign(n + 1, kNegInf);
    seed0_y.assign(n + 1, kNegInf);
    seed0_m[0] = 0.0F;
    {
      float acc = 0.0F;
      for (std::size_t j = 1; j <= hi[0]; ++j) {
        acc -= (j == 1 ? open : ext) * occ_b[j - 1];
        seed0_x[j] = acc;
      }
    }
  }
};

/// Dense scorer rows of one row block: local row r (1-based, absolute row
/// r0 + r) covers B columns cb in [0, n), filled only on the row's in-band
/// range with the scorer's exact saxpy order.
struct ScoreBlock {
  std::size_t stride = 0;
  std::vector<float> buf;

  void fill(const PspRowScorer& scorer, const Geometry& g, std::size_t r0,
            std::size_t rows, std::size_t jcap) {
    stride = g.n;
    buf.resize(rows * stride);
    for (std::size_t r = 1; r <= rows; ++r) {
      const std::size_t i = r0 + r;
      const std::size_t js = std::max<std::size_t>(g.lo[i], 1);
      const std::size_t je = std::min(g.hi[i], jcap);
      if (js > je) continue;
      const std::size_t cb_lo = js - 1;
      const std::size_t len = je - js + 1;
      float* out = buf.data() + (r - 1) * stride;
      psp_fill_row(*scorer.svt, scorer.column(i - 1), cb_lo, len,
                   out + cb_lo);
    }
  }

  [[nodiscard]] float at(std::size_t r, std::size_t cb) const {
    return buf[(r - 1) * stride + cb];
  }
};

/// Reusable diagonal workspace: 9 state diagonals + score scratch, padded
/// so vector loads/stores at range ends stay inside the allocation.
struct DiagWorkspace {
  std::vector<float> buf;
  std::size_t padded = 0;

  void init(std::size_t rows) {
    padded = rows + 2 + kW;
    buf.assign(10 * padded, kNegInf);
    std::fill_n(buf.begin() + static_cast<std::ptrdiff_t>(9 * padded), padded,
                0.0F);
  }
  [[nodiscard]] float* lane(std::size_t idx) {
    return buf.data() + idx * padded;
  }
};

/// Traceback decision codes, one byte per cell with two bits per state.
/// For state s the bits (code >> 2s) & 3 pick kChoice[s][0] when bit 0 is
/// set, else kChoice[s][1] when bit 1 is set, else kChoice[s][2]. Each bit
/// tests `operand == max` on values the vector step already holds:
///   M: pm == max3(pm, px, py), then px == max3;
///   X: ext_x == xv, then open_x == xv;
///   Y: ext_y == yv, then open_y == yv.
/// A max equals an operand exactly when that operand is >= every other, so
/// these orders are the scalar kernel's tie chains.
constexpr std::uint8_t kChoice[3][3] = {
    {kPdM, kPdX, kPdY}, {kPdX, kPdM, kPdY}, {kPdY, kPdM, kPdX}};

std::uint8_t decode(std::uint8_t code, std::uint8_t state) {
  const unsigned bits = (code >> (2U * state)) & 3U;
  return kChoice[state][(bits & 1U) != 0 ? 0 : (bits & 2U) != 0 ? 1 : 2];
}

#ifdef SALIGN_HAVE_VECTOR_EXT
using Codes = V::Mask;

/// `bit` in every lane where a == b, else 0.
inline Codes bit_if_equal(V a, V b, int bit) { return (a.v == b.v) & bit; }

/// Stores each lane's low byte at out[0, kW). A convert to a byte vector is
/// scalarized on baseline x86-64; folding each lane pair as one 64-bit word
/// (little-endian: the odd lane's code moves down to bits 8..15) costs a
/// shift, an or and one 16-bit store per pair.
inline void store_codes(Codes c, std::uint8_t* out) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t words[kW / 2];
    std::memcpy(words, &c, sizeof words);
    for (std::size_t k = 0; k < kW / 2; ++k) {
      const auto pair = static_cast<std::uint16_t>(words[k] | words[k] >> 24);
      std::memcpy(out + 2 * k, &pair, sizeof pair);
    }
  } else {
    for (std::size_t k = 0; k < kW; ++k)
      out[k] = static_cast<std::uint8_t>(c[k]);
  }
}
#else
using Codes = int;
inline Codes bit_if_equal(V a, V b, int bit) { return a.v == b.v ? bit : 0; }
inline void store_codes(Codes c, std::uint8_t* out) {
  *out = static_cast<std::uint8_t>(c);
}
#endif

/// Decision bytes of a row block of `rows` rows over columns [0, jcap]:
/// cell (local diag d, local row r) at d * rows + r - 1, plus kW bytes for
/// the last vector step's tail lanes.
std::size_t code_bytes(std::size_t rows, std::size_t jcap) {
  return (rows + jcap + 1) * rows + kW;
}

/// Traceback view of one row block (r0, r0 + rows].
struct CodeBlock {
  std::size_t r0 = 0;
  std::size_t rows = 0;
  const std::uint8_t* codes = nullptr;

  [[nodiscard]] std::uint8_t at(std::size_t i, std::size_t j) const {
    const std::size_t r = i - r0;
    return codes[(r + j) * rows + r - 1];
  }
};

/// The block's final row (the next block's seed and, on checkpoint rows,
/// the checkpoint).
struct LastRow {
  float* m;
  float* x;
  float* y;

  void capture(std::size_t rows, std::size_t d, std::size_t ilo,
               std::size_t ihi, bool has_bd, const float* m0, const float* x0,
               const float* y0) const {
    if (has_bd && d == rows) {
      m[0] = m0[d];
      x[0] = x0[d];
      y[0] = y0[d];
    }
    if (ilo <= rows && rows <= ihi) {
      const std::size_t j = d - rows;
      m[j] = m0[rows];
      x[j] = x0[rows];
      y[j] = y0[rows];
    }
  }
};

/// Runs rows [r0+1, r0+rows] x cols [0, jcap] over anti-diagonals, seeded
/// with row r0's state values (seed_* index by column). Captures the final
/// row into `last` when given; with kCodes, writes every interior cell's
/// decision byte into `codes` (code_bytes(rows, jcap) bytes).
template <bool kCodes>
void run_block(const Geometry& g, const ScoreBlock& sb, std::size_t r0,
               std::size_t rows, std::size_t jcap, const float* seed_m,
               const float* seed_x, const float* seed_y, DiagWorkspace& ws,
               const LastRow* last, std::uint8_t* codes) {
  ws.init(rows);
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

  const V vneg = V::splat(kNegInf);

  // Monotone band pointers over block-local rows (absolute row r0 + i).
  std::size_t pmin = 1;
  std::size_t pmax = 0;
  auto eff_hi = [&](std::size_t i) { return std::min(g.hi[r0 + i], jcap); };

  const std::size_t last_diag = rows + jcap;
  for (std::size_t d = 0; d <= last_diag; ++d) {
    // Interior cells: i in [1, rows], j = d - i in [1, jcap], inside band.
    std::size_t ilo = 1;
    std::size_t ihi = 0;
    if (d >= 2) {
      ilo = d > jcap ? d - jcap : 1;
      ihi = std::min(rows, d - 1);
      while (pmin <= rows && pmin + eff_hi(pmin) < d) ++pmin;
      while (pmax + 1 <= rows && (pmax + 1) + g.lo[r0 + pmax + 1] <= d)
        ++pmax;
      ilo = std::max(ilo, pmin);
      ihi = std::min(ihi, pmax);
    }

    if (ilo <= ihi) {
      for (std::size_t i = ilo; i <= ihi; ++i)
        sub[i] = sb.at(i, d - i - 1);
      const float* gb_open = g.rev_open_b.data() + ((g.n + ilo) - d);
      const float* gb_ext = g.rev_ext_b.data() + ((g.n + ilo) - d);
      const float* ga_open = g.open_a.data() + (r0 + ilo - 1);
      const float* ga_ext = g.ext_a.data() + (r0 + ilo - 1);
      std::uint8_t* dcodes = kCodes ? codes + d * rows : nullptr;
      for (std::size_t i = ilo; i <= ihi; i += kW) {
        const std::size_t off = i - ilo;
        // M from the up-left diagonal; the scalar clamp is a no-op on the
        // exact-sentinel values both paths propagate (see file comment).
        const V pm = V::load(m2 + i - 1);
        const V px = V::load(x2 + i - 1);
        const V best = align::engine::max3(pm, px, V::load(y2 + i - 1));
        const V mv = best + V::load(sub + i);
        // Gap in A consuming B's column j-1: left neighbor, B-scaled gaps.
        const V gbo = V::load(gb_open + off);
        const V open_x = V::load(m1 + i) - gbo;
        const V ext_x = V::load(x1 + i) - V::load(gb_ext + off);
        const V xv =
            align::engine::max3(open_x, ext_x, V::load(y1 + i) - gbo);
        // Gap in B consuming A's column i-1: up neighbor, A-scaled gaps.
        const V gao = V::load(ga_open + off);
        const V open_y = V::load(m1 + i - 1) - gao;
        const V ext_y = V::load(y1 + i - 1) - V::load(ga_ext + off);
        const V yv =
            align::engine::max3(open_y, ext_y, V::load(x1 + i - 1) - gao);
        mv.store(m0 + i);
        xv.store(x0 + i);
        yv.store(y0 + i);
        // Tail lanes past ihi write bytes of cells outside the range, which
        // traceback never reads (and the kW-byte pad keeps them in bounds).
        if constexpr (kCodes)
          store_codes(bit_if_equal(pm, best, 1) | bit_if_equal(px, best, 2) |
                          bit_if_equal(ext_x, xv, 4) |
                          bit_if_equal(open_x, xv, 8) |
                          bit_if_equal(ext_y, yv, 16) |
                          bit_if_equal(open_y, yv, 32),
                      dcodes + i - 1);
      }
      // Neutralize tail-lane overrun and mark the range edges for the next
      // two diagonals (ranges shift by at most one per diagonal).
      vneg.store(m0 + ihi + 1);
      vneg.store(x0 + ihi + 1);
      vneg.store(y0 + ihi + 1);
      m0[ilo - 1] = kNegInf;
      x0[ilo - 1] = kNegInf;
      y0[ilo - 1] = kNegInf;
    }

    // Border cells: row r0 comes from the seed, column 0 from the
    // accumulated leading-gap run (exactly the scalar boundary values).
    if (d <= jcap) {
      m0[0] = seed_m[d];
      x0[0] = seed_x[d];
      y0[0] = seed_y[d];
    }
    const bool has_bd = d >= 1 && d <= rows;
    if (has_bd) {
      const std::size_t abs_row = r0 + d;
      m0[d] = kNegInf;
      x0[d] = kNegInf;
      y0[d] = g.lo[abs_row] == 0 ? g.yborder[abs_row] : kNegInf;
    }

    if (last != nullptr)
      last->capture(rows, d, ilo, ihi, has_bd, m0, x0, y0);

    // Rotate: current becomes d-1, d-1 becomes d-2, d-2 is recycled.
    std::swap(m2, m1);
    std::swap(x2, x1);
    std::swap(y2, y1);
    std::swap(m1, m0);
    std::swap(x1, x0);
    std::swap(y1, y0);
  }
}

}  // namespace

ProfileAlignResult profile_dp_wavefront(std::size_t m, std::size_t n,
                                        const PspRowScorer& scorer,
                                        std::span<const float> occ_a,
                                        std::span<const float> occ_b,
                                        const ProfileAlignOptions& opts) {
  const Geometry g(m, n, occ_a, occ_b, opts);
  const std::size_t budget = opts.max_trace_cells != 0
                                 ? opts.max_trace_cells
                                 : kDefaultProfileTraceCells;
  const bool full_trace = (m + 1) * (n + 1) <= budget;
  const std::size_t ckpt_k = checkpoint_interval(m);

  // Forward pass: row blocks of kRowBlock, each seeded by its predecessor's
  // final row. The full-trace path stores every block's decision bytes
  // (block b at b * trace_stride); the checkpointed path instead keeps
  // every ckpt_k-th row (block-aligned by construction) for the traceback
  // recompute.
  const std::size_t trace_stride = code_bytes(kRowBlock, n);
  std::vector<std::uint8_t> trace;
  util::Matrix<float> ck_m, ck_x, ck_y;
  if (full_trace) {
    trace.assign((m + kRowBlock - 1) / kRowBlock * trace_stride, 0);
  } else {
    ck_m = util::Matrix<float>(m / ckpt_k + 1, n + 1, kNegInf);
    ck_x = util::Matrix<float>(m / ckpt_k + 1, n + 1, kNegInf);
    ck_y = util::Matrix<float>(m / ckpt_k + 1, n + 1, kNegInf);
    for (std::size_t j = 0; j <= n; ++j) {
      ck_m(0, j) = g.seed0_m[j];
      ck_x(0, j) = g.seed0_x[j];
      ck_y(0, j) = g.seed0_y[j];
    }
  }

  std::vector<float> cur_m = g.seed0_m, cur_x = g.seed0_x, cur_y = g.seed0_y;
  std::vector<float> next_m(n + 1), next_x(n + 1), next_y(n + 1);
  ScoreBlock sb;
  DiagWorkspace ws;
  for (std::size_t r0 = 0; r0 < m; r0 += kRowBlock) {
    const std::size_t rows = std::min(kRowBlock, m - r0);
    sb.fill(scorer, g, r0, rows, n);
    std::fill(next_m.begin(), next_m.end(), kNegInf);
    std::fill(next_x.begin(), next_x.end(), kNegInf);
    std::fill(next_y.begin(), next_y.end(), kNegInf);
    const LastRow last{next_m.data(), next_x.data(), next_y.data()};
    if (full_trace)
      run_block<true>(g, sb, r0, rows, n, cur_m.data(), cur_x.data(),
                      cur_y.data(), ws, &last,
                      trace.data() + r0 / kRowBlock * trace_stride);
    else
      run_block<false>(g, sb, r0, rows, n, cur_m.data(), cur_x.data(),
                       cur_y.data(), ws, &last, nullptr);
    cur_m.swap(next_m);
    cur_x.swap(next_x);
    cur_y.swap(next_y);
    const std::size_t row = r0 + rows;
    if (!full_trace && row % ckpt_k == 0) {
      const std::size_t r = row / ckpt_k;
      for (std::size_t j = 0; j <= n; ++j) {
        ck_m(r, j) = cur_m[j];
        ck_x(r, j) = cur_x[j];
        ck_y(r, j) = cur_y[j];
      }
    }
  }

  ProfileAlignResult out;
  std::uint8_t state = kPdM;
  {
    float best = cur_m[n];
    if (cur_x[n] > best) {
      best = cur_x[n];
      state = kPdX;
    }
    if (cur_y[n] > best) {
      best = cur_y[n];
      state = kPdY;
    }
    out.score = best;
  }

  // Traceback walks decision bytes one row block at a time: the stored
  // block on the full-trace path, else block (r0, top] rerun from the
  // checkpoint at r0 with decision bytes on.
  CodeBlock blk;
  std::vector<std::uint8_t> blk_codes;
  auto load_block = [&](std::size_t top, std::size_t jcap) {
    if (full_trace) {
      const std::size_t b = (top - 1) / kRowBlock;
      blk.r0 = b * kRowBlock;
      blk.rows = std::min(kRowBlock, m - blk.r0);
      blk.codes = trace.data() + b * trace_stride;
      return;
    }
    blk.r0 = (top - 1) / ckpt_k * ckpt_k;
    blk.rows = top - blk.r0;
    blk_codes.assign(code_bytes(blk.rows, jcap), 0);
    blk.codes = blk_codes.data();
    const std::size_t r = blk.r0 / ckpt_k;
    sb.fill(scorer, g, blk.r0, blk.rows, jcap);
    run_block<true>(g, sb, blk.r0, blk.rows, jcap, &ck_m(r, 0), &ck_x(r, 0),
                    &ck_y(r, 0), ws, nullptr, blk_codes.data());
  };

  auto came_from_at = [&](std::size_t i, std::size_t j) -> std::uint8_t {
    // Boundary cells mirror the scalar path's preset decisions.
    if (i == 0) return state == kPdX ? kPdX : kPdM;
    if (j == 0) return state == kPdY && g.lo[i] == 0 ? kPdY : kPdM;
    if (blk.codes == nullptr || i <= blk.r0) load_block(i, j);
    return decode(blk.at(i, j), state);
  };

  std::size_t i = m;
  std::size_t j = n;
  while (i > 0 || j > 0) {
    const std::uint8_t from = came_from_at(i, j);
    switch (state) {
      case kPdM:
        out.ops.push_back(align::EditOp::Match);
        --i;
        --j;
        break;
      case kPdX:
        out.ops.push_back(align::EditOp::GapInA);
        --j;
        break;
      case kPdY:
        out.ops.push_back(align::EditOp::GapInB);
        --i;
        break;
      default: break;
    }
    state = from;
  }
  std::reverse(out.ops.begin(), out.ops.end());
  return out;
}

}  // namespace salign::msa::detail
