#pragma once

// Blocked anti-diagonal (wavefront) Gotoh kernel: the library's one float
// DP kernel. Pairwise global and local alignment (wavefront.cpp) and the
// occupancy-scaled profile DP (msa/profile_dp_simd.cpp) both run it.
//
// Layout: the three affine states (M = match, X = gap in A, Y = gap in B)
// are held per anti-diagonal d = i + j as arrays indexed by the row i. A
// row-major sweep carries a dependency through X (cell j reads cell j-1 of
// the same row); on an anti-diagonal every state reads only diagonals d-1
// (X from the left cell, Y from the cell above) and d-2 (M from the
// diagonal cell), so a whole diagonal updates with element-wise vector
// max/add and no branches. Substitution scores are read from a ring of kW
// diagonals (indexed by row, like the states): every kW-th diagonal,
// transpose_tile turns kW x kW tiles of the score rows (one unaligned row
// load each) into kW diagonal vectors, so no cell gathers its score alone.
//
// Each caller fixes three choices through its types, at compile time:
//
//  * score rows: `rows.row(r)` points at DP row r's scores, indexed by B
//    column, with kScorePad readable floats on both sides. Pairwise runs
//    keep one pointer per row straight into padded QueryProfile rows
//    (RowPointers); the profile DP's rows are the contiguous, padded row
//    block its scorer filled (RowBlock);
//  * gaps: ConstGaps (pairwise) splats one open/extend pair; ScaledGaps
//    (profiles) loads penalties scaled by the occupancy of the consumed
//    column, precomputed as gap vectors — forward along A for gap-in-B
//    moves (contiguous in the diagonal's row index), reversed along B for
//    gap-in-A moves (a reversed copy makes the j-indexed factor contiguous
//    in the row index too) — and restricts rows to a band;
//  * Mode: kGlobal, or kLocal (Smith–Waterman: M restarts from 0, no X<->Y
//    moves, and the best M cell is tracked with the row-major first-winner
//    rule of the reference kernel).
//
// The driver supplies the boundary values — the row-0 seed and the column-0
// gap run — so each caller keeps its oracle's exact floats: pairwise runs
// `-(open + ext * (k - 1))`, the profile DP its accumulated
// occupancy-scaled runs.
//
// Exactness: every cell performs the same IEEE single-precision operations
// in the same operand order as the row-major oracles (tests/oracles/), and
// unreachable cells hold exactly align::kNegInf there and here (subtracting
// any realistic penalty from the sentinel is absorbed by rounding), so
// scores are bit-identical. Traceback decisions are taken in the same
// vector step by comparing each operand against the max it fed (see
// kChoice), which reproduces the oracles' tie chains, so paths are
// identical too.
//
// Memory: the forward pass keeps three diagonals. Alignments within
// `trace_cells` DP cells also keep one decision byte per cell (row blocks
// of kRowBlock rows, stored diagonal-major), and traceback walks those
// bytes. Larger DPs keep one checkpoint row every K ~ sqrt(m) rows instead;
// traceback reruns one block of rows at a time from its checkpoint with
// decision bytes on, so both paths decode one format and no O(m·n) state
// is kept above the cap.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "align/engine/engine.hpp"
#include "align/engine/simd.hpp"
#include "align/pairwise.hpp"

// The 4-lane x86 build transposes score tiles and packs decision bytes with
// SSE2 shuffles and packs; other widths (scalar, AVX, NEON) run the
// portable loops.
#if defined(SALIGN_HAVE_VECTOR_EXT) && SALIGN_ENGINE_LANES == 4 && \
    defined(__SSE2__)
#include <emmintrin.h>
#define SALIGN_WAVEFRONT_SSE2 1
#endif

namespace salign::align::engine {

namespace wavefront {

using V = VecF;
inline constexpr std::size_t kW = static_cast<std::size_t>(V::kLanes);

enum Move : std::uint8_t { kM = 0, kX = 1, kY = 2, kStop = 3 };
enum class Mode : std::uint8_t { kGlobal, kLocal };

/// Row-block height of alignments. Diagonals inside a block are at most
/// this long, so the wavefront ramp-up costs ~kRowBlock/n of the cells,
/// while a block's decision bytes and score rows stay ~kRowBlock * n.
inline constexpr std::size_t kRowBlock = 32;

/// Score-row padding in floats. run_block reads score_rows.row(r) at
/// columns [-kScorePad, jcap + kScorePad) for r in [1, rows rounded up to
/// kW]: a tile reaches up to 2kW - 2 columns past either end of the cells
/// it serves. Values read there reach only lanes outside the diagonal's
/// cell range, whose results are overwritten or never read.
inline constexpr std::size_t kScorePad = 2 * kW;

/// Checkpoint interval: ~sqrt(m) rounded up to a whole number of row blocks
/// so checkpoint rows coincide with block-final rows. The 1024 cap bounds
/// the traceback block rerun's decision bytes on extreme inputs.
inline std::size_t checkpoint_interval(std::size_t m) {
  const auto root = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(m))));
  const std::size_t blocks = (root + kRowBlock - 1) / kRowBlock;
  return std::clamp<std::size_t>(blocks * kRowBlock, kRowBlock, 1024);
}

/// One open/extend pair for every cell, no band: pairwise alignment.
struct ConstGaps {
  static constexpr bool kBanded = false;
  float open = 0.0F;
  float ext = 0.0F;

  struct Diagonal {
    V open, ext;
    [[nodiscard]] V x_open(std::size_t) const { return open; }
    [[nodiscard]] V x_ext(std::size_t) const { return ext; }
    [[nodiscard]] V y_open(std::size_t) const { return open; }
    [[nodiscard]] V y_ext(std::size_t) const { return ext; }
  };
  [[nodiscard]] Diagonal diagonal(std::size_t, std::size_t,
                                  std::size_t) const {
    return {V::splat(open), V::splat(ext)};
  }
};

/// Occupancy-scaled gap vectors and a per-row band [lo[i], hi[i]]: the
/// profile DP. Vectors are padded by kW so diagonal-end loads stay in
/// bounds: open_a[i] = open * occ_a[i] (gap-in-B penalties),
/// rev_open_b[t] = open * occ_b[n-1-t] (gap-in-A penalties; on diagonal d
/// the j-indexed factor lives at (n + i) - d, ascending in the row index i).
struct ScaledGaps {
  static constexpr bool kBanded = true;
  std::size_t n = 0;
  const float* open_a = nullptr;
  const float* ext_a = nullptr;
  const float* rev_open_b = nullptr;
  const float* rev_ext_b = nullptr;
  const std::size_t* lo = nullptr;  // per row 0..m
  const std::size_t* hi = nullptr;

  struct Diagonal {
    const float* xo;
    const float* xe;
    const float* yo;
    const float* ye;
    [[nodiscard]] V x_open(std::size_t off) const { return V::load(xo + off); }
    [[nodiscard]] V x_ext(std::size_t off) const { return V::load(xe + off); }
    [[nodiscard]] V y_open(std::size_t off) const { return V::load(yo + off); }
    [[nodiscard]] V y_ext(std::size_t off) const { return V::load(ye + off); }
  };
  /// Gap views of block rows [ilo, ...] (absolute row r0 + ilo) on
  /// diagonal d.
  [[nodiscard]] Diagonal diagonal(std::size_t r0, std::size_t ilo,
                                  std::size_t d) const {
    const std::size_t b = (n + ilo) - d;
    const std::size_t a = r0 + ilo - 1;
    return {rev_open_b + b, rev_ext_b + b, open_a + a, ext_a + a};
  }
};

/// Score rows as one pointer per row: rows [1, count] of a block are
/// p[1..count].
struct RowPointers {
  const float* const* p;
  [[nodiscard]] const float* row(std::size_t r) const { return p[r]; }
};

/// Score rows stored back to back: row r of a block starts at
/// base + (r - 1) * stride.
struct RowBlock {
  const float* base;
  std::size_t stride;
  [[nodiscard]] const float* row(std::size_t r) const {
    return base + (r - 1) * stride;
  }
};

/// Read-only state row (M, X, Y indexed by column): a block's seed.
struct RowView {
  const float* m;
  const float* x;
  const float* y;
};

/// Reusable diagonal workspace: 9 state diagonals + the kW-diagonal score
/// ring, padded so vector loads/stores at range ends stay inside the
/// allocation.
struct Workspace {
  static constexpr std::size_t kStates = 9;
  std::vector<float> buf;
  std::size_t padded = 0;

  void init(std::size_t rows) {
    padded = rows + 2 + kW;
    buf.assign((kStates + kW) * padded, kNegInf);
    std::fill(buf.begin() + static_cast<std::ptrdiff_t>(kStates * padded),
              buf.end(), 0.0F);
  }
  [[nodiscard]] float* lane(std::size_t idx) {
    return buf.data() + idx * padded;
  }
  [[nodiscard]] std::size_t bytes() const {
    return buf.capacity() * sizeof(float);
  }
};

/// A block's final row (the next block's seed and, on checkpoint rows, the
/// checkpoint).
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

/// Running best M cell of a local alignment, with the reference's row-major
/// first-winner tie rule (scan order there: i ascending, then j ascending,
/// strict >).
struct LocalBest {
  float value = 0.0F;
  std::size_t i = 0, j = 0;
  bool found = false;

  void offer(float v, std::size_t ci, std::size_t cj) {
    if (v > value ||
        (found && v == value && (ci < i || (ci == i && cj < j)))) {
      value = v;
      i = ci;
      j = cj;
      found = true;
    }
  }
};

/// Traceback decision codes, one byte per cell with two bits per state.
/// For state s the bits (code >> 2s) & 3 pick kChoice[s][0] when bit 0 is
/// set, else kChoice[s][1] when bit 1 is set, else kChoice[s][2]. Each bit
/// tests `operand == max` on values the vector step already holds:
///   M: pm == best, then px == best (best = max3(pm, px, py), and in local
///      mode max'd with 0);
///   X: ext_x == xv, then open_x == xv;
///   Y: ext_y == yv, then open_y == yv.
/// A max equals an operand exactly when that operand is >= every other, so
/// these orders are the oracles' tie chains. In local mode kStopBit marks
/// an M cell whose best predecessor is the fresh start (best == 0), which
/// the reference's strict `> 0` chain takes before any state.
inline constexpr std::uint8_t kChoice[3][3] = {
    {kM, kX, kY}, {kX, kM, kY}, {kY, kM, kX}};
inline constexpr int kStopBit = 64;

inline std::uint8_t decode(std::uint8_t code, std::uint8_t state) {
  if (state == kM && (code & kStopBit) != 0) return kStop;
  const unsigned bits = (code >> (2U * state)) & 3U;
  return kChoice[state][(bits & 1U) != 0 ? 0 : (bits & 2U) != 0 ? 1 : 2];
}

#ifdef SALIGN_HAVE_VECTOR_EXT
using Codes = V::Mask;

/// `bit` in every lane where a == b, else 0.
inline Codes bit_if_equal(V a, V b, int bit) { return (a.v == b.v) & bit; }

/// Stores each lane's low byte at out[0, kW). A convert to a byte vector is
/// scalarized on baseline x86-64. SSE2 narrows the four codes (each < 128)
/// with two saturating packs and stores them as one 32-bit word; other
/// widths fold each lane pair as one 64-bit word (little-endian: the odd
/// lane's code moves down to bits 8..15), a shift, an or and one 16-bit
/// store per pair.
inline void store_codes(Codes c, std::uint8_t* out) {
#ifdef SALIGN_WAVEFRONT_SSE2
  const auto words = std::bit_cast<__m128i>(c);
  const __m128i halves = _mm_packs_epi32(words, words);
  const int bytes = _mm_cvtsi128_si32(_mm_packus_epi16(halves, halves));
  std::memcpy(out, &bytes, sizeof bytes);
#else
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
#endif
}
#else
using Codes = int;
inline Codes bit_if_equal(V a, V b, int bit) { return a.v == b.v ? bit : 0; }
inline void store_codes(Codes c, std::uint8_t* out) {
  *out = static_cast<std::uint8_t>(c);
}
#endif

/// Writes the scores of block rows [g, g + kW) on diagonals [d0, d0 + kW)
/// into the ring: ring[t][g + k] = row(g + k)[d0 + t - (g + k) - 1], the
/// score of cell (g + k, d0 + t - g - k). Those are kW consecutive columns
/// of each row, starting one column further left per row, so each row is
/// one unaligned load and a kW x kW transpose turns the row vectors into
/// diagonal vectors.
template <typename Rows>
inline void transpose_tile(const Rows& score_rows, std::size_t g,
                           std::size_t d0, float* const* ring) {
  const std::ptrdiff_t at =
      static_cast<std::ptrdiff_t>(d0) - static_cast<std::ptrdiff_t>(g) - 1;
#ifdef SALIGN_WAVEFRONT_SSE2
  __m128 r0 = _mm_loadu_ps(score_rows.row(g) + at);
  __m128 r1 = _mm_loadu_ps(score_rows.row(g + 1) + (at - 1));
  __m128 r2 = _mm_loadu_ps(score_rows.row(g + 2) + (at - 2));
  __m128 r3 = _mm_loadu_ps(score_rows.row(g + 3) + (at - 3));
  _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
  _mm_storeu_ps(ring[0] + g, r0);
  _mm_storeu_ps(ring[1] + g, r1);
  _mm_storeu_ps(ring[2] + g, r2);
  _mm_storeu_ps(ring[3] + g, r3);
#else
  for (std::size_t k = 0; k < kW; ++k) {
    const float* src =
        score_rows.row(g + k) + (at - static_cast<std::ptrdiff_t>(k));
    for (std::size_t t = 0; t < kW; ++t) ring[t][g + k] = src[t];
  }
#endif
}

/// Decision bytes of a row block of `rows` rows over columns [0, jcap]:
/// cell (local diag d, local row r) at d * rows + r - 1, plus kW bytes for
/// the last vector step's tail lanes.
inline std::size_t code_bytes(std::size_t rows, std::size_t jcap) {
  return (rows + jcap + 1) * rows + kW;
}

/// Runs rows [r0+1, r0+rows] x cols [0, jcap] over anti-diagonals, seeded
/// with row r0's state values; col0[i] is column 0's Y value of absolute
/// row i. score_rows.row(r) holds row r0 + r's scores by B column, padded
/// as kScorePad says. Captures the final row into `last` when given; with
/// kCodes, writes every interior cell's decision byte into `codes`
/// (code_bytes(rows, jcap) bytes); in local mode offers each diagonal's
/// best M cell to `best` when given.
///
/// Kept out of line: inlined into a pairwise driver, GCC spilled a vector
/// to the stack in every iteration of the cell loop; out of line, each
/// instantiation's cell loop runs from registers.
template <Mode kMode, bool kCodes, typename Gaps, typename Rows>
[[gnu::noinline]] void run_block(const Gaps& gaps, Rows score_rows,
                                 std::size_t r0, std::size_t rows,
                                 std::size_t jcap, RowView seed,
                                 const float* col0, Workspace& ws,
                                 const LastRow* last, std::uint8_t* codes,
                                 [[maybe_unused]] LocalBest* best) {
  constexpr bool kLocal = kMode == Mode::kLocal;
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
  float* ring[kW];
  for (std::size_t t = 0; t < kW; ++t)
    ring[t] = ws.lane(Workspace::kStates + t);

  const V vneg = V::splat(kNegInf);
  [[maybe_unused]] const V vzero = V::splat(0.0F);

  // Monotone band pointers over block-local rows (absolute row r0 + i):
  // the first row whose band reaches diagonal d, the last row whose band
  // starts by d, and that last row for the ring's final diagonal.
  [[maybe_unused]] std::size_t pmin = 1;
  [[maybe_unused]] std::size_t pmax = 0;
  [[maybe_unused]] std::size_t pahead = 0;

  const std::size_t last_diag = rows + jcap;
  for (std::size_t d = 0; d <= last_diag; ++d) {
    // Interior cells: i in [1, rows], j = d - i in [1, jcap], inside band.
    std::size_t ilo = 1;
    std::size_t ihi = 0;
    if (d >= 2) {
      ilo = d > jcap ? d - jcap : 1;
      ihi = std::min(rows, d - 1);
      if constexpr (Gaps::kBanded) {
        auto eff_hi = [&](std::size_t i) {
          return std::min(gaps.hi[r0 + i], jcap);
        };
        while (pmin <= rows && pmin + eff_hi(pmin) < d) ++pmin;
        while (pmax + 1 <= rows && (pmax + 1) + gaps.lo[r0 + pmax + 1] <= d)
          ++pmax;
        ilo = std::max(ilo, pmin);
        ihi = std::min(ihi, pmax);
      }
    }

    // Refill the ring for diagonals [d, d + kW): rows from this diagonal's
    // ilo (which only grows) to the last diagonal's ihi bound. Tiles start
    // on rows 1 mod kW, so the cell loop's loads match the tile stores
    // whenever ilo does.
    const std::size_t slot = d % kW;
    if (slot == 0 && d + kW >= 3) {
      const std::size_t dlast = d + kW - 1;
      std::size_t hi_row = std::min(rows, dlast - 1);
      if constexpr (Gaps::kBanded) {
        while (pahead + 1 <= rows &&
               (pahead + 1) + gaps.lo[r0 + pahead + 1] <= dlast)
          ++pahead;
        hi_row = std::min(hi_row, pahead);
      }
      for (std::size_t top = (ilo - 1) / kW * kW + 1; top <= hi_row;
           top += kW)
        transpose_tile(score_rows, top, d, ring);
    }

    if (ilo <= ihi) {
      const float* sub = ring[slot];
      const auto g = gaps.diagonal(r0, ilo, d);
      [[maybe_unused]] std::uint8_t* dcodes =
          kCodes ? codes + d * rows : nullptr;
      for (std::size_t i = ilo; i <= ihi; i += kW) {
        const std::size_t off = i - ilo;
        // M from the up-left diagonal (local: or a fresh start at 0).
        const V pm = V::load(m2 + i - 1);
        const V px = V::load(x2 + i - 1);
        V bm = max3(pm, px, V::load(y2 + i - 1));
        if constexpr (kLocal) bm = V::max(bm, vzero);
        const V mv = bm + V::load(sub + i);
        // Gap in A consuming B's column j-1: the left neighbor.
        const V gxo = g.x_open(off);
        const V open_x = V::load(m1 + i) - gxo;
        const V ext_x = V::load(x1 + i) - g.x_ext(off);
        const V xv = kLocal ? V::max(open_x, ext_x)
                            : max3(open_x, ext_x, V::load(y1 + i) - gxo);
        // Gap in B consuming A's column i-1: the up neighbor.
        const V gyo = g.y_open(off);
        const V open_y = V::load(m1 + i - 1) - gyo;
        const V ext_y = V::load(y1 + i - 1) - g.y_ext(off);
        const V yv = kLocal ? V::max(open_y, ext_y)
                            : max3(open_y, ext_y, V::load(x1 + i - 1) - gyo);
        mv.store(m0 + i);
        xv.store(x0 + i);
        yv.store(y0 + i);
        // Tail lanes past ihi write bytes of cells outside the range, which
        // traceback never reads (and the kW-byte pad keeps them in bounds).
        if constexpr (kCodes) {
          Codes c = bit_if_equal(pm, bm, 1) | bit_if_equal(px, bm, 2) |
                    bit_if_equal(ext_x, xv, 4) | bit_if_equal(open_x, xv, 8) |
                    bit_if_equal(ext_y, yv, 16) | bit_if_equal(open_y, yv, 32);
          if constexpr (kLocal) c |= bit_if_equal(bm, vzero, kStopBit);
          store_codes(c, dcodes + i - 1);
        }
      }
      // Neutralize tail-lane overrun and mark the range edges for the next
      // two diagonals (ranges shift by at most one per diagonal).
      vneg.store(m0 + ihi + 1);
      vneg.store(x0 + ihi + 1);
      vneg.store(y0 + ihi + 1);
      m0[ilo - 1] = kNegInf;
      x0[ilo - 1] = kNegInf;
      y0[ilo - 1] = kNegInf;

      if constexpr (kLocal) {
        if (best != nullptr) {
          float diag_max = kNegInf;
          std::size_t i = ilo;
          if (ihi - ilo + 1 >= kW) {
            V acc = V::load(m0 + i);
            for (i += kW; i + kW - 1 <= ihi; i += kW)
              acc = V::max(acc, V::load(m0 + i));
            for (std::size_t l = 0; l < kW; ++l)
              diag_max = std::max(diag_max, acc.lane(static_cast<int>(l)));
          }
          for (; i <= ihi; ++i) diag_max = std::max(diag_max, m0[i]);
          // The diagonal's first maximum is its row-major first; offer()
          // orders it against earlier diagonals.
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

    // Border cells: row r0 comes from the seed, column 0 from the caller's
    // gap run.
    if (d <= jcap) {
      m0[0] = seed.m[d];
      x0[0] = seed.x[d];
      y0[0] = seed.y[d];
    }
    const bool has_bd = d >= 1 && d <= rows;
    if (has_bd) {
      m0[d] = kNegInf;
      x0[d] = kNegInf;
      y0[d] = col0[r0 + d];
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

/// Full alignment of an m x n DP (m, n >= 1) through run_block: the forward
/// pass in row blocks of kRowBlock, each seeded by its predecessor's final
/// row, then the decision-byte traceback. `rows.block(r0, count, jcap)`
/// returns the score rows (RowPointers or RowBlock) of rows r0 + 1 ..
/// r0 + count (index 1 .. count) covering columns [1, jcap]. seed0 is row 0
/// (columns 0..n), col0 column 0's Y run (rows 0..m). Global runs end at
/// (m, n) in the best of its three states; local runs end at the best M
/// cell, and the returned a_begin/b_begin are where the path starts.
template <Mode kMode, typename Gaps, typename RowSource>
LocalAlignment align(std::size_t m, std::size_t n, const Gaps& gaps,
                     RowSource& rows, RowView seed0, const float* col0,
                     std::size_t trace_cells) {
  const bool full_trace = (m + 1) * (n + 1) <= trace_cells;
  const std::size_t ckpt_k = checkpoint_interval(m);

  // The full-trace path stores every block's decision bytes (block b at
  // b * trace_stride); the checkpointed path instead keeps every ckpt_k-th
  // row (block-aligned by construction) for the traceback rerun.
  const std::size_t trace_stride = code_bytes(kRowBlock, n);
  const std::size_t stride = n + 1;
  std::vector<std::uint8_t> trace;
  std::vector<float> ck_m, ck_x, ck_y;
  if (full_trace) {
    trace.assign((m + kRowBlock - 1) / kRowBlock * trace_stride, 0);
  } else {
    const std::size_t count = (m / ckpt_k + 1) * stride;
    ck_m.assign(count, kNegInf);
    ck_x.assign(count, kNegInf);
    ck_y.assign(count, kNegInf);
    std::copy_n(seed0.m, stride, ck_m.begin());
    std::copy_n(seed0.x, stride, ck_x.begin());
    std::copy_n(seed0.y, stride, ck_y.begin());
  }

  std::vector<float> cur_m(seed0.m, seed0.m + stride);
  std::vector<float> cur_x(seed0.x, seed0.x + stride);
  std::vector<float> cur_y(seed0.y, seed0.y + stride);
  std::vector<float> next_m(stride), next_x(stride), next_y(stride);
  Workspace ws;
  LocalBest best;
  LocalBest* track = kMode == Mode::kLocal ? &best : nullptr;
  for (std::size_t r0 = 0; r0 < m; r0 += kRowBlock) {
    const std::size_t count = std::min(kRowBlock, m - r0);
    const auto score_rows = rows.block(r0, count, n);
    std::fill(next_m.begin(), next_m.end(), kNegInf);
    std::fill(next_x.begin(), next_x.end(), kNegInf);
    std::fill(next_y.begin(), next_y.end(), kNegInf);
    const LastRow last{next_m.data(), next_x.data(), next_y.data()};
    const RowView seed{cur_m.data(), cur_x.data(), cur_y.data()};
    if (full_trace)
      run_block<kMode, true>(gaps, score_rows, r0, count, n, seed, col0, ws,
                             &last,
                             trace.data() + r0 / kRowBlock * trace_stride,
                             track);
    else
      run_block<kMode, false>(gaps, score_rows, r0, count, n, seed, col0, ws,
                              &last, nullptr, track);
    cur_m.swap(next_m);
    cur_x.swap(next_x);
    cur_y.swap(next_y);
    const std::size_t row = r0 + count;
    if (!full_trace && row % ckpt_k == 0) {
      const std::size_t at = row / ckpt_k * stride;
      std::copy(cur_m.begin(), cur_m.end(), ck_m.begin() + at);
      std::copy(cur_x.begin(), cur_x.end(), ck_x.begin() + at);
      std::copy(cur_y.begin(), cur_y.end(), ck_y.begin() + at);
    }
  }

  LocalAlignment out;
  std::size_t i = m;
  std::size_t j = n;
  std::uint8_t state = kM;
  if constexpr (kMode == Mode::kLocal) {
    out.score = best.value;
    if (!best.found) return out;  // empty alignment
    i = best.i;
    j = best.j;
  } else {
    out.score = cur_m[n];
    if (cur_x[n] > out.score) {
      out.score = cur_x[n];
      state = kX;
    }
    if (cur_y[n] > out.score) {
      out.score = cur_y[n];
      state = kY;
    }
  }

  // Traceback walks decision bytes one row block at a time: the stored
  // block on the full-trace path, else block (r0, top] rerun from the
  // checkpoint at r0 with decision bytes on.
  std::size_t blk_r0 = 0;
  std::size_t blk_rows = 0;
  const std::uint8_t* blk_codes = nullptr;
  std::vector<std::uint8_t> rerun_codes;
  auto load_block = [&](std::size_t top, std::size_t jcap) {
    if (full_trace) {
      const std::size_t b = (top - 1) / kRowBlock;
      blk_r0 = b * kRowBlock;
      blk_rows = std::min(kRowBlock, m - blk_r0);
      blk_codes = trace.data() + b * trace_stride;
      return;
    }
    blk_r0 = (top - 1) / ckpt_k * ckpt_k;
    blk_rows = top - blk_r0;
    rerun_codes.assign(code_bytes(blk_rows, jcap), 0);
    blk_codes = rerun_codes.data();
    const std::size_t at = blk_r0 / ckpt_k * stride;
    run_block<kMode, true>(
        gaps, rows.block(blk_r0, blk_rows, jcap), blk_r0, blk_rows, jcap,
        RowView{ck_m.data() + at, ck_x.data() + at, ck_y.data() + at}, col0,
        ws, nullptr, rerun_codes.data(), nullptr);
  };

  // Boundary cells mirror the oracles' preset decisions: a global path
  // runs along row 0 / column 0 in its gap state, a local one stops there.
  auto came_from = [&](std::size_t ci, std::size_t cj) -> std::uint8_t {
    if constexpr (kMode == Mode::kLocal) {
      if (ci == 0 || cj == 0) return kStop;
    } else {
      if (ci == 0) return state == kX ? kX : kM;
      if (cj == 0) return state == kY ? kY : kM;
    }
    if (blk_codes == nullptr || ci <= blk_r0) load_block(ci, cj);
    const std::size_t r = ci - blk_r0;
    return decode(blk_codes[(r + cj) * blk_rows + r - 1], state);
  };

  while (state != kStop && (i > 0 || j > 0)) {
    const std::uint8_t from = came_from(i, j);
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
  out.a_begin = i;
  out.b_begin = j;
  return out;
}

}  // namespace wavefront

namespace detail {

/// Score-only affine-gap global alignment: one run_block over all rows,
/// reading QueryProfile rows, with no decision bytes. O(m + n) workspace;
/// `workspace_bytes` (optional) receives the total DP workspace allocated.
float global_score_impl(std::span<const std::uint8_t> a,
                        std::span<const std::uint8_t> b,
                        const bio::SubstitutionMatrix& matrix,
                        bio::GapPenalties gaps, std::size_t* workspace_bytes);

/// Full global alignment through wavefront::align. Exact score/op/tie-break
/// parity with the reference kernel.
PairwiseAlignment global_align_impl(std::span<const std::uint8_t> a,
                                    std::span<const std::uint8_t> b,
                                    const bio::SubstitutionMatrix& matrix,
                                    bio::GapPenalties gaps);

/// Full local (Smith–Waterman) alignment through wavefront::align.
LocalAlignment local_align_impl(std::span<const std::uint8_t> a,
                                std::span<const std::uint8_t> b,
                                const bio::SubstitutionMatrix& matrix,
                                bio::GapPenalties gaps);

}  // namespace detail

}  // namespace salign::align::engine
