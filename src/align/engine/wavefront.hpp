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
// A diagonal's M, X and Y arrays, and the ring's slots, sit a compile-time
// kStride apart in one workspace, so the cell loop addresses all nine state
// arrays from three pointers (one per diagonal).
//
// The kernel is a template over its vector type V (simd.hpp): VecF (4
// lanes, or 1 in scalar builds) and, on x86-64, VecF8, whose instantiations
// carry __attribute__((target("avx2"))). align() and the pairwise drivers
// take the width as `lanes` and run VecF8 only when kernel_lanes_supported
// says the CPU has AVX2; every width gives the same bits.
//
// Each caller fixes three more choices through its types, at compile time:
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
// traceback reruns the row blocks between two checkpoints with decision
// bytes on, so both paths decode one format and no O(m·n) state is kept
// above the cap.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "align/engine/engine.hpp"
#include "align/engine/simd.hpp"
#include "align/pairwise.hpp"

// The x86 vector builds transpose score tiles and pack decision bytes with
// SSE2 shuffles and packs (baseline x86-64, so no target attribute is
// needed); NEON runs the portable loops.
#if defined(SALIGN_HAVE_VECTOR_EXT) && defined(__SSE2__)
#include <emmintrin.h>
#define SALIGN_WAVEFRONT_SSE2 1
#endif

namespace salign::align::engine {

namespace wavefront {

enum Move : std::uint8_t { kM = 0, kX = 1, kY = 2, kStop = 3 };
enum class Mode : std::uint8_t { kGlobal, kLocal };

/// The widest compiled lane count: every pad the kernel reads into is sized
/// for it.
inline constexpr std::size_t kMaxW = static_cast<std::size_t>(kMaxLanes);

/// Row-block height of alignments: 8 vector steps, and at least 32 rows
/// (32 at 1 and 4 lanes, 64 at 8). Diagonals inside a block are at most
/// this long, so the wavefront ramp-up costs ~kRowBlock/n of the cells,
/// while a block's decision bytes and score rows stay ~kRowBlock * n.
template <typename V>
inline constexpr std::size_t kRowBlock =
    std::max<std::size_t>(32, 8 * static_cast<std::size_t>(V::kLanes));

/// Floats between a diagonal's M, X and Y arrays and between score-ring
/// slots: a block's rows, row 0, the cell before a diagonal's range and one
/// vector of tail lanes past it.
template <typename V>
inline constexpr std::size_t kStride =
    kRowBlock<V> + 2 + static_cast<std::size_t>(V::kLanes);

/// Score-row padding in floats. run_block reads score_rows.row(r) at
/// columns [-kScorePad, jcap + kScorePad) for r in [1, rows rounded up to
/// kW]: a tile reaches up to 2kW - 2 columns past either end of the cells
/// it serves. Values read there reach only lanes outside the diagonal's
/// cell range, whose results are overwritten or never read.
inline constexpr std::size_t kScorePad = 2 * kMaxW;

/// Checkpoint interval: ~sqrt(m) rounded up to a whole number of row blocks
/// so checkpoint rows coincide with block-final rows. The 1024 cap bounds
/// the traceback rerun's decision bytes on extreme inputs.
template <typename V>
std::size_t checkpoint_interval(std::size_t m) {
  constexpr std::size_t kRB = kRowBlock<V>;
  const auto root = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(m))));
  const std::size_t blocks = (root + kRB - 1) / kRB;
  return std::clamp<std::size_t>(blocks * kRB, kRB, 1024);
}

/// Calls fn(std::type_identity<V>{}) with the vector type of a `lanes`-wide
/// kernel: VecF8 when lanes == 8 and kernel_lanes_supported(8), else VecF.
template <typename Fn>
decltype(auto) with_lanes([[maybe_unused]] int lanes, Fn&& fn) {
#ifdef SALIGN_ENGINE_AVX2
  if (lanes == 8 && kernel_lanes_supported(8))
    return fn(std::type_identity<VecF8>{});
#endif
  return fn(std::type_identity<VecF>{});
}

/// One open/extend pair for every cell, no band: pairwise alignment.
struct ConstGaps {
  static constexpr bool kBanded = false;
  float open = 0.0F;
  float ext = 0.0F;

  /// Holds the floats and splats at each use; the compiler hoists the
  /// splats out of the cell loop.
  template <typename V>
  struct Diagonal {
    float open, ext;
    SALIGN_SIMD_INLINE V x_open(std::size_t) const { return V::splat(open); }
    SALIGN_SIMD_INLINE V x_ext(std::size_t) const { return V::splat(ext); }
    SALIGN_SIMD_INLINE V y_open(std::size_t) const { return V::splat(open); }
    SALIGN_SIMD_INLINE V y_ext(std::size_t) const { return V::splat(ext); }
  };
  template <typename V>
  SALIGN_SIMD_INLINE Diagonal<V> diagonal(std::size_t, std::size_t,
                                          std::size_t) const {
    return {open, ext};
  }
};

/// Occupancy-scaled gap vectors and a per-row band [lo[i], hi[i]]: the
/// profile DP. Vectors are padded by kMaxW so diagonal-end loads stay in
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

  template <typename V>
  struct Diagonal {
    const float* xo;
    const float* xe;
    const float* yo;
    const float* ye;
    SALIGN_SIMD_INLINE V x_open(std::size_t off) const {
      return V::load(xo + off);
    }
    SALIGN_SIMD_INLINE V x_ext(std::size_t off) const {
      return V::load(xe + off);
    }
    SALIGN_SIMD_INLINE V y_open(std::size_t off) const {
      return V::load(yo + off);
    }
    SALIGN_SIMD_INLINE V y_ext(std::size_t off) const {
      return V::load(ye + off);
    }
  };
  /// Gap views of block rows [ilo, ...] (absolute row r0 + ilo) on
  /// diagonal d.
  template <typename V>
  SALIGN_SIMD_INLINE Diagonal<V> diagonal(std::size_t r0, std::size_t ilo,
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

/// Reusable workspace of run_block: its three state diagonals and the
/// score ring.
struct Workspace {
  std::vector<float> buf;

  /// Sets `states` floats to kNegInf, then `ring` floats to 0; returns the
  /// first.
  float* init(std::size_t states, std::size_t ring) {
    buf.assign(states + ring, kNegInf);
    std::fill(buf.begin() + static_cast<std::ptrdiff_t>(states), buf.end(),
              0.0F);
    return buf.data();
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

/// M, X and Y of one DP row, by column: the seed of the next row block.
struct StateRow {
  std::vector<float> m, x, y;

  void assign(RowView from, std::size_t cols) {
    m.assign(from.m, from.m + cols);
    x.assign(from.x, from.x + cols);
    y.assign(from.y, from.y + cols);
  }
  void fill(std::size_t cols, float value) {
    m.assign(cols, value);
    x.assign(cols, value);
    y.assign(cols, value);
  }
  void swap(StateRow& other) noexcept {
    m.swap(other.m);
    x.swap(other.x);
    y.swap(other.y);
  }
  [[nodiscard]] RowView view() const { return {m.data(), x.data(), y.data()}; }
  [[nodiscard]] LastRow sink() { return {m.data(), x.data(), y.data()}; }
  [[nodiscard]] std::size_t bytes() const {
    return (m.capacity() + x.capacity() + y.capacity()) * sizeof(float);
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

/// `bit` in every lane where a == b, else 0.
SALIGN_SIMD_INLINE int bit_if_equal(ScalarF a, ScalarF b, int bit) {
  return a.v == b.v ? bit : 0;
}
#ifdef SALIGN_HAVE_VECTOR_EXT
template <int kN>
SALIGN_SIMD_INLINE typename VecExt<kN>::Mask bit_if_equal(VecExt<kN> a,
                                                          VecExt<kN> b,
                                                          int bit) {
  return (a.v == b.v) & bit;
}
#endif

/// Stores each lane's low byte of V's codes at out[0, kW). A convert to a
/// byte vector is scalarized on baseline x86-64. SSE2 narrows four codes
/// (each < 128) with two saturating packs and stores them as one 32-bit
/// word, and eight codes as the packs of their two halves, one 64-bit
/// word; NEON folds each lane pair as one 64-bit word (little-endian: the
/// odd lane's code moves down to bits 8..15), a shift, an or and one
/// 16-bit store per pair.
template <typename V, typename Codes>
SALIGN_SIMD_INLINE void store_codes(Codes c, std::uint8_t* out) {
  constexpr std::size_t kW = V::kLanes;
  if constexpr (kW == 1) {
    *out = static_cast<std::uint8_t>(c);
#ifdef SALIGN_WAVEFRONT_SSE2
  } else if constexpr (kW == 4) {
    const auto words = std::bit_cast<__m128i>(c);
    const __m128i halves = _mm_packs_epi32(words, words);
    const int bytes = _mm_cvtsi128_si32(_mm_packus_epi16(halves, halves));
    std::memcpy(out, &bytes, sizeof bytes);
  } else if constexpr (kW == 8) {
    typedef int Half __attribute__((vector_size(16)));
    const Half lo = __builtin_shufflevector(c, c, 0, 1, 2, 3);
    const Half hi = __builtin_shufflevector(c, c, 4, 5, 6, 7);
    const __m128i halves = _mm_packs_epi32(std::bit_cast<__m128i>(lo),
                                           std::bit_cast<__m128i>(hi));
    const auto bytes = static_cast<std::int64_t>(
        _mm_cvtsi128_si64(_mm_packus_epi16(halves, halves)));
    std::memcpy(out, &bytes, sizeof bytes);
#endif
  } else if constexpr (std::endian::native == std::endian::little) {
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

/// Writes the scores of block rows [g, g + kW) on diagonals [d0, d0 + kW)
/// into the ring (slot t at ring + t * kStride<V>): slot t, row g + k gets
/// row(g + k)[d0 + t - (g + k) - 1], the score of cell
/// (g + k, d0 + t - g - k). Those are kW consecutive columns of each row,
/// starting one column further left per row, so each row is one unaligned
/// load and a kW x kW transpose turns the row vectors into diagonal
/// vectors. At 8 lanes the transpose is the usual unpack, 64-bit shuffle
/// and 128-bit half exchange, 24 single-instruction shuffles under AVX2.
template <typename V, typename Rows>
SALIGN_SIMD_INLINE void transpose_tile(const Rows& score_rows, std::size_t g,
                                       std::size_t d0, float* ring) {
  constexpr std::size_t kW = V::kLanes;
  constexpr std::size_t kS = kStride<V>;
  const std::ptrdiff_t at =
      static_cast<std::ptrdiff_t>(d0) - static_cast<std::ptrdiff_t>(g) - 1;
  auto src = [&](std::size_t k) {
    return score_rows.row(g + k) + (at - static_cast<std::ptrdiff_t>(k));
  };
  if constexpr (kW == 1) {
    ring[g] = *src(0);
#ifdef SALIGN_WAVEFRONT_SSE2
  } else if constexpr (kW == 4) {
    __m128 r0 = _mm_loadu_ps(src(0));
    __m128 r1 = _mm_loadu_ps(src(1));
    __m128 r2 = _mm_loadu_ps(src(2));
    __m128 r3 = _mm_loadu_ps(src(3));
    _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
    _mm_storeu_ps(ring + g, r0);
    _mm_storeu_ps(ring + kS + g, r1);
    _mm_storeu_ps(ring + 2 * kS + g, r2);
    _mm_storeu_ps(ring + 3 * kS + g, r3);
#endif
#ifdef SALIGN_ENGINE_AVX2
  } else if constexpr (kW == 8) {
#define SALIGN_LO_PAIRS 0, 8, 1, 9, 4, 12, 5, 13
#define SALIGN_HI_PAIRS 2, 10, 3, 11, 6, 14, 7, 15
#define SALIGN_LO_QUADS 0, 1, 8, 9, 4, 5, 12, 13
#define SALIGN_HI_QUADS 2, 3, 10, 11, 6, 7, 14, 15
#define SALIGN_LO_HALVES 0, 1, 2, 3, 8, 9, 10, 11
#define SALIGN_HI_HALVES 4, 5, 6, 7, 12, 13, 14, 15
    typename V::Native r[8];
    for (std::size_t k = 0; k < 8; ++k) r[k] = V::load(src(k)).v;
    // Row pairs interleaved within each 128-bit half...
    const auto t0 = __builtin_shufflevector(r[0], r[1], SALIGN_LO_PAIRS);
    const auto t1 = __builtin_shufflevector(r[0], r[1], SALIGN_HI_PAIRS);
    const auto t2 = __builtin_shufflevector(r[2], r[3], SALIGN_LO_PAIRS);
    const auto t3 = __builtin_shufflevector(r[2], r[3], SALIGN_HI_PAIRS);
    const auto t4 = __builtin_shufflevector(r[4], r[5], SALIGN_LO_PAIRS);
    const auto t5 = __builtin_shufflevector(r[4], r[5], SALIGN_HI_PAIRS);
    const auto t6 = __builtin_shufflevector(r[6], r[7], SALIGN_LO_PAIRS);
    const auto t7 = __builtin_shufflevector(r[6], r[7], SALIGN_HI_PAIRS);
    // ...then four rows: s_c holds column c of rows 0-3 (s0..s3) or 4-7
    // (s4..s7) in its low half and column c + 4 in its high half...
    const auto s0 = __builtin_shufflevector(t0, t2, SALIGN_LO_QUADS);
    const auto s1 = __builtin_shufflevector(t0, t2, SALIGN_HI_QUADS);
    const auto s2 = __builtin_shufflevector(t1, t3, SALIGN_LO_QUADS);
    const auto s3 = __builtin_shufflevector(t1, t3, SALIGN_HI_QUADS);
    const auto s4 = __builtin_shufflevector(t4, t6, SALIGN_LO_QUADS);
    const auto s5 = __builtin_shufflevector(t4, t6, SALIGN_HI_QUADS);
    const auto s6 = __builtin_shufflevector(t5, t7, SALIGN_LO_QUADS);
    const auto s7 = __builtin_shufflevector(t5, t7, SALIGN_HI_QUADS);
    // ...and the halves of rows 0-3 and 4-7 joined into whole columns.
    V{__builtin_shufflevector(s0, s4, SALIGN_LO_HALVES)}.store(ring + g);
    V{__builtin_shufflevector(s1, s5, SALIGN_LO_HALVES)}.store(ring + kS + g);
    V{__builtin_shufflevector(s2, s6, SALIGN_LO_HALVES)}.store(ring + 2 * kS +
                                                               g);
    V{__builtin_shufflevector(s3, s7, SALIGN_LO_HALVES)}.store(ring + 3 * kS +
                                                               g);
    V{__builtin_shufflevector(s0, s4, SALIGN_HI_HALVES)}.store(ring + 4 * kS +
                                                               g);
    V{__builtin_shufflevector(s1, s5, SALIGN_HI_HALVES)}.store(ring + 5 * kS +
                                                               g);
    V{__builtin_shufflevector(s2, s6, SALIGN_HI_HALVES)}.store(ring + 6 * kS +
                                                               g);
    V{__builtin_shufflevector(s3, s7, SALIGN_HI_HALVES)}.store(ring + 7 * kS +
                                                               g);
#undef SALIGN_LO_PAIRS
#undef SALIGN_HI_PAIRS
#undef SALIGN_LO_QUADS
#undef SALIGN_HI_QUADS
#undef SALIGN_LO_HALVES
#undef SALIGN_HI_HALVES
#endif
  } else {
    for (std::size_t k = 0; k < kW; ++k)
      for (std::size_t t = 0; t < kW; ++t) ring[t * kS + g + k] = src(k)[t];
  }
}

/// Decision bytes of a row block of `rows` rows over columns [0, jcap]:
/// cell (local diag d, local row r) at d * rows + r - 1, plus kMaxW bytes
/// for the last vector step's tail lanes.
inline std::size_t code_bytes(std::size_t rows, std::size_t jcap) {
  return (rows + jcap + 1) * rows + kMaxW;
}

/// run_block's body, for vector type V; see run_block.
template <typename V, Mode kMode, bool kCodes, typename Gaps, typename Rows>
SALIGN_SIMD_INLINE void block_body(const Gaps& gaps, Rows score_rows,
                                   std::size_t r0, std::size_t rows,
                                   std::size_t jcap, RowView seed,
                                   const float* col0, Workspace& ws,
                                   const LastRow* last, std::uint8_t* codes,
                                   [[maybe_unused]] LocalBest* best) {
  constexpr bool kLocal = kMode == Mode::kLocal;
  constexpr std::size_t kW = V::kLanes;
  constexpr std::size_t kS = kStride<V>;
  // Diagonals d-2, d-1 and d, each its M, X and Y arrays kS apart, then the
  // kW ring slots.
  float* d2 = ws.init(9 * kS, kW * kS);
  float* d1 = d2 + 3 * kS;
  float* d0 = d1 + 3 * kS;
  float* const ring = d0 + 3 * kS;

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
        transpose_tile<V>(score_rows, top, d, ring);
    }

    if (ilo <= ihi) {
      const float* sub = ring + slot * kS;
      const auto g = gaps.template diagonal<V>(r0, ilo, d);
      [[maybe_unused]] std::uint8_t* dcodes =
          kCodes ? codes + d * rows : nullptr;
      for (std::size_t i = ilo; i <= ihi; i += kW) {
        const std::size_t off = i - ilo;
        // M from the up-left diagonal (local: or a fresh start at 0).
        const V pm = V::load(d2 + i - 1);
        const V px = V::load(d2 + kS + i - 1);
        V bm = max3(pm, px, V::load(d2 + 2 * kS + i - 1));
        if constexpr (kLocal) bm = V::max(bm, vzero);
        const V mv = bm + V::load(sub + i);
        // Gap in A consuming B's column j-1: the left neighbor.
        const V gxo = g.x_open(off);
        const V open_x = V::load(d1 + i) - gxo;
        const V ext_x = V::load(d1 + kS + i) - g.x_ext(off);
        const V xv =
            kLocal ? V::max(open_x, ext_x)
                   : max3(open_x, ext_x, V::load(d1 + 2 * kS + i) - gxo);
        // Gap in B consuming A's column i-1: the up neighbor.
        const V gyo = g.y_open(off);
        const V open_y = V::load(d1 + i - 1) - gyo;
        const V ext_y = V::load(d1 + 2 * kS + i - 1) - g.y_ext(off);
        const V yv =
            kLocal ? V::max(open_y, ext_y)
                   : max3(open_y, ext_y, V::load(d1 + kS + i - 1) - gyo);
        mv.store(d0 + i);
        xv.store(d0 + kS + i);
        yv.store(d0 + 2 * kS + i);
        // Tail lanes past ihi write bytes of cells outside the range, which
        // traceback never reads (and the kMaxW-byte pad keeps them in
        // bounds).
        //
        // The six code-bit constants and the working values need more than
        // the 16 ymm registers, so the 8-lane loop reads one constant from
        // the stack, as the 4-lane loop reads one from .rodata. Folding the
        // bits as t = 2t + mask needs no constants but measured slower at
        // both widths (BM_ProfileDp/1000: -8% at 4 lanes).
        if constexpr (kCodes) {
          auto c = bit_if_equal(pm, bm, 1) | bit_if_equal(px, bm, 2) |
                   bit_if_equal(ext_x, xv, 4) | bit_if_equal(open_x, xv, 8) |
                   bit_if_equal(ext_y, yv, 16) | bit_if_equal(open_y, yv, 32);
          if constexpr (kLocal) c |= bit_if_equal(bm, vzero, kStopBit);
          store_codes<V>(c, dcodes + i - 1);
        }
      }
      // Neutralize tail-lane overrun and mark the range edges for the next
      // two diagonals (ranges shift by at most one per diagonal).
      for (std::size_t s = 0; s < 3; ++s) {
        vneg.store(d0 + s * kS + ihi + 1);
        d0[s * kS + ilo - 1] = kNegInf;
      }

      if constexpr (kLocal) {
        if (best != nullptr) {
          float diag_max = kNegInf;
          std::size_t i = ilo;
          if (ihi - ilo + 1 >= kW) {
            V acc = V::load(d0 + i);
            for (i += kW; i + kW - 1 <= ihi; i += kW)
              acc = V::max(acc, V::load(d0 + i));
            for (std::size_t l = 0; l < kW; ++l)
              diag_max = std::max(diag_max, acc.lane(static_cast<int>(l)));
          }
          for (; i <= ihi; ++i) diag_max = std::max(diag_max, d0[i]);
          // The diagonal's first maximum is its row-major first; offer()
          // orders it against earlier diagonals.
          if (diag_max > best->value ||
              (best->found && diag_max == best->value)) {
            for (std::size_t c = ilo; c <= ihi; ++c)
              if (d0[c] == diag_max) {
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
      d0[0] = seed.m[d];
      d0[kS] = seed.x[d];
      d0[2 * kS] = seed.y[d];
    }
    const bool has_bd = d >= 1 && d <= rows;
    if (has_bd) {
      d0[d] = kNegInf;
      d0[kS + d] = kNegInf;
      d0[2 * kS + d] = col0[r0 + d];
    }

    if (last != nullptr)
      last->capture(rows, d, ilo, ihi, has_bd, d0, d0 + kS, d0 + 2 * kS);

    // Rotate: current becomes d-1, d-1 becomes d-2, d-2 is recycled.
    float* const recycled = d2;
    d2 = d1;
    d1 = d0;
    d0 = recycled;
  }
}

/// The VecF instantiation of run_block.
template <Mode kMode, bool kCodes, typename Gaps, typename Rows>
[[gnu::noinline]] void run_block_vecf(const Gaps& gaps, Rows score_rows,
                                      std::size_t r0, std::size_t rows,
                                      std::size_t jcap, RowView seed,
                                      const float* col0, Workspace& ws,
                                      const LastRow* last,
                                      std::uint8_t* codes, LocalBest* best) {
  block_body<VecF, kMode, kCodes>(gaps, score_rows, r0, rows, jcap, seed,
                                  col0, ws, last, codes, best);
}

#ifdef SALIGN_ENGINE_AVX2
/// The VecF8 instantiation of run_block: AVX2 only, never FMA, so no
/// multiply-add can fuse and change bits.
template <Mode kMode, bool kCodes, typename Gaps, typename Rows>
[[gnu::noinline, gnu::target("avx2")]] void run_block_avx2(
    const Gaps& gaps, Rows score_rows, std::size_t r0, std::size_t rows,
    std::size_t jcap, RowView seed, const float* col0, Workspace& ws,
    const LastRow* last, std::uint8_t* codes, LocalBest* best) {
  block_body<VecF8, kMode, kCodes>(gaps, score_rows, r0, rows, jcap, seed,
                                   col0, ws, last, codes, best);
}
#endif

/// Runs rows [r0+1, r0+rows] x cols [0, jcap] over anti-diagonals, seeded
/// with row r0's state values, V::kLanes rows per vector step; rows must
/// not exceed kRowBlock<V>. col0[i] is column 0's Y value of absolute row
/// i. score_rows.row(r) holds row r0 + r's scores by B column, padded as
/// kScorePad says. Captures the final row into `last` when given; with
/// kCodes, writes every interior cell's decision byte into `codes`
/// (code_bytes(rows, jcap) bytes); in local mode offers each diagonal's
/// best M cell to `best` when given.
///
/// Each width's instantiation is kept out of line: inlined into a pairwise
/// driver, GCC spilled a vector to the stack in every iteration of the
/// cell loop; out of line, each instantiation's cell loop runs from
/// registers.
template <typename V, Mode kMode, bool kCodes, typename Gaps, typename Rows>
void run_block(const Gaps& gaps, Rows score_rows, std::size_t r0,
               std::size_t rows, std::size_t jcap, RowView seed,
               const float* col0, Workspace& ws, const LastRow* last,
               std::uint8_t* codes, LocalBest* best) {
#ifdef SALIGN_ENGINE_AVX2
  if constexpr (std::is_same_v<V, VecF8>)
    run_block_avx2<kMode, kCodes>(gaps, score_rows, r0, rows, jcap, seed,
                                  col0, ws, last, codes, best);
  else
#endif
    run_block_vecf<kMode, kCodes>(gaps, score_rows, r0, rows, jcap, seed,
                                  col0, ws, last, codes, best);
}

/// Runs DP rows (r_begin, r_end] over columns [0, jcap] in row blocks of
/// kRowBlock<V> rows, starting from row r_begin's states in `cur` and
/// leaving row r_end's there (`next` is scratch). `rows.block(r0, count,
/// jcap)` returns the score rows (RowPointers or RowBlock) of rows r0 + 1 ..
/// r0 + count (index 1 .. count) covering columns [1, jcap]. With `codes`,
/// block k of the sweep writes its decision bytes at
/// codes + k * code_bytes(kRowBlock<V>, jcap). after_block(row) runs after
/// each block, with row `row`'s states in `cur`.
template <typename V, Mode kMode, typename Gaps, typename RowSource,
          typename AfterBlock>
void sweep(const Gaps& gaps, RowSource& rows, std::size_t r_begin,
           std::size_t r_end, std::size_t jcap, const float* col0,
           StateRow& cur, StateRow& next, Workspace& ws, std::uint8_t* codes,
           LocalBest* best, AfterBlock after_block) {
  constexpr std::size_t kRB = kRowBlock<V>;
  const std::size_t code_stride = code_bytes(kRB, jcap);
  for (std::size_t r0 = r_begin; r0 < r_end; r0 += kRB) {
    const std::size_t count = std::min(kRB, r_end - r0);
    const auto score_rows = rows.block(r0, count, jcap);
    next.fill(jcap + 1, kNegInf);
    const LastRow last = next.sink();
    if (codes != nullptr)
      run_block<V, kMode, true>(gaps, score_rows, r0, count, jcap, cur.view(),
                                col0, ws, &last,
                                codes + (r0 - r_begin) / kRB * code_stride,
                                best);
    else
      run_block<V, kMode, false>(gaps, score_rows, r0, count, jcap,
                                 cur.view(), col0, ws, &last, nullptr, best);
    cur.swap(next);
    after_block(r0 + count);
  }
}

/// align() at vector type V.
template <typename V, Mode kMode, typename Gaps, typename RowSource>
LocalAlignment align_as(std::size_t m, std::size_t n, const Gaps& gaps,
                        RowSource& rows, RowView seed0, const float* col0,
                        std::size_t trace_cells) {
  constexpr std::size_t kRB = kRowBlock<V>;
  const bool full_trace = (m + 1) * (n + 1) <= trace_cells;
  const std::size_t ckpt_k = checkpoint_interval<V>(m);

  // The full-trace path stores every block's decision bytes (block b at
  // b * trace_stride); the checkpointed path instead keeps every ckpt_k-th
  // row (block-aligned by construction) for the traceback rerun.
  const std::size_t trace_stride = code_bytes(kRB, n);
  const std::size_t stride = n + 1;
  std::vector<std::uint8_t> trace;
  std::vector<float> ck_m, ck_x, ck_y;
  if (full_trace) {
    trace.assign((m + kRB - 1) / kRB * trace_stride, 0);
  } else {
    const std::size_t count = (m / ckpt_k + 1) * stride;
    ck_m.assign(count, kNegInf);
    ck_x.assign(count, kNegInf);
    ck_y.assign(count, kNegInf);
    std::copy_n(seed0.m, stride, ck_m.begin());
    std::copy_n(seed0.x, stride, ck_x.begin());
    std::copy_n(seed0.y, stride, ck_y.begin());
  }

  StateRow cur;
  StateRow next;
  cur.assign(seed0, stride);
  Workspace ws;
  LocalBest best;
  sweep<V, kMode>(gaps, rows, 0, m, n, col0, cur, next, ws,
                  full_trace ? trace.data() : nullptr,
                  kMode == Mode::kLocal ? &best : nullptr,
                  [&](std::size_t row) {
                    if (full_trace || row % ckpt_k != 0) return;
                    const std::size_t at = row / ckpt_k * stride;
                    std::copy(cur.m.begin(), cur.m.end(), ck_m.begin() + at);
                    std::copy(cur.x.begin(), cur.x.end(), ck_x.begin() + at);
                    std::copy(cur.y.begin(), cur.y.end(), ck_y.begin() + at);
                  });

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
    out.score = cur.m[n];
    if (cur.x[n] > out.score) {
      out.score = cur.x[n];
      state = kX;
    }
    if (cur.y[n] > out.score) {
      out.score = cur.y[n];
      state = kY;
    }
  }

  // Traceback walks decision bytes one row block at a time: the stored
  // block on the full-trace path; else the blocks of a rerun segment, rows
  // (seg_r0, seg_top] over columns [0, seg_jcap], swept from the
  // checkpoint at seg_r0 with decision bytes on once the path enters it.
  std::size_t blk_r0 = 0;
  std::size_t blk_rows = 0;
  const std::uint8_t* blk_codes = nullptr;
  std::size_t seg_r0 = 0;
  std::size_t seg_top = 0;
  std::size_t seg_stride = 0;
  std::vector<std::uint8_t> seg_codes;
  auto load_block = [&](std::size_t top, std::size_t jcap) {
    const std::size_t b = (top - 1) / kRB;
    blk_r0 = b * kRB;
    if (full_trace) {
      blk_rows = std::min(kRB, m - blk_r0);
      blk_codes = trace.data() + b * trace_stride;
      return;
    }
    if (seg_codes.empty() || top <= seg_r0) {
      seg_r0 = (top - 1) / ckpt_k * ckpt_k;
      seg_top = top;
      seg_stride = code_bytes(kRB, jcap);
      seg_codes.assign((seg_top - seg_r0 + kRB - 1) / kRB * seg_stride, 0);
      const std::size_t at = seg_r0 / ckpt_k * stride;
      cur.assign(RowView{ck_m.data() + at, ck_x.data() + at, ck_y.data() + at},
                 jcap + 1);
      sweep<V, kMode>(gaps, rows, seg_r0, seg_top, jcap, col0, cur, next, ws,
                      seg_codes.data(), nullptr, [](std::size_t) {});
    }
    blk_rows = std::min(kRB, seg_top - blk_r0);
    blk_codes = seg_codes.data() + (blk_r0 - seg_r0) / kRB * seg_stride;
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

/// Full alignment of an m x n DP (m, n >= 1), `lanes` wide (see
/// with_lanes): the forward pass in row blocks of kRowBlock rows, each
/// seeded by its predecessor's final row, then the decision-byte traceback.
/// `rows` is a row source as sweep() describes. seed0 is row 0 (columns
/// 0..n), col0 column 0's Y run (rows 0..m). Global runs end at (m, n) in
/// the best of its three states; local runs end at the best M cell, and the
/// returned a_begin/b_begin are where the path starts.
template <Mode kMode, typename Gaps, typename RowSource>
LocalAlignment align(int lanes, std::size_t m, std::size_t n,
                     const Gaps& gaps, RowSource& rows, RowView seed0,
                     const float* col0, std::size_t trace_cells) {
  return with_lanes(lanes, [&](auto width) {
    using V = typename decltype(width)::type;
    return align_as<V, kMode>(m, n, gaps, rows, seed0, col0, trace_cells);
  });
}

}  // namespace wavefront

namespace detail {

/// Score-only affine-gap global alignment `lanes` wide (see
/// wavefront::with_lanes): one sweep over all rows, reading QueryProfile
/// rows, with no decision bytes. O(m + n) workspace; `workspace_bytes`
/// (optional) receives the total DP workspace allocated.
float global_score_impl(std::span<const std::uint8_t> a,
                        std::span<const std::uint8_t> b,
                        const bio::SubstitutionMatrix& matrix,
                        bio::GapPenalties gaps, std::size_t* workspace_bytes,
                        int lanes = kernel_lanes());

/// Full global alignment through wavefront::align, `lanes` wide. Exact
/// score/op/tie-break parity with the reference kernel.
PairwiseAlignment global_align_impl(std::span<const std::uint8_t> a,
                                    std::span<const std::uint8_t> b,
                                    const bio::SubstitutionMatrix& matrix,
                                    bio::GapPenalties gaps,
                                    int lanes = kernel_lanes());

/// Full local (Smith–Waterman) alignment through wavefront::align, `lanes`
/// wide.
LocalAlignment local_align_impl(std::span<const std::uint8_t> a,
                                std::span<const std::uint8_t> b,
                                const bio::SubstitutionMatrix& matrix,
                                bio::GapPenalties gaps,
                                int lanes = kernel_lanes());

}  // namespace detail

}  // namespace salign::align::engine
