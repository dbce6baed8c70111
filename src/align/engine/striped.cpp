// Striped (Farrar-layout) saturating integer score kernels.
//
// Equivalence with the 3-state reference recurrence: the reference keeps
//   M(i,j) = max(M,X,Y)(i-1,j-1) + sub(i,j)
//   X(i,j) = max(M(i,j-1) - open, X(i,j-1) - ext, Y(i,j-1) - open)
//   Y(i,j) = max(M(i-1,j) - open, Y(i-1,j) - ext, X(i-1,j) - open)
// and scores the corner as max(M,X,Y)(m,n). With H = max(M,X,Y) the
// combined recurrence
//   H = max(H(i-1,j-1) + sub, E, F)
//   E(i,j) = max(H(i,j-1) - open, E(i,j-1) - ext)
//   F(i,j) = max(H(i-1,j) - open, F(i-1,j) - ext)
// expands E to max(M-open, X-open, Y-open, X-ext); when open >= ext the
// X-open term is dominated by X-ext, leaving exactly X(i,j) (same for F
// and Y), and H(m,n) is exactly the reference's corner max. The integer
// kernels therefore gate on open >= ext >= 1 and integral scores; every
// value they compute is then the exact DP integer, which a float
// represents exactly — hence bit-identical scores.
//
// Saturation: values are clamped into [floor_rail, ceil_rail], with the
// rails pulled in from the tier's limits by the largest single-step delta,
// so no arithmetic op can ever leave the storage range. floor_rail doubles
// as the -inf sentinel (it is sticky under "subtract then clamp"). Any
// inexact value is clamped to exactly a rail, and becomes visible the
// moment it wins a cell: the kernel tracks the running min/max of every
// stored H and reports saturation when either touched a rail, at which
// point the caller discards the score and promotes to the next tier
// (int8 -> int16 -> float).
//
// Lazy-F in closed form: the main pass handles every within-lane F chain;
// what is missing is the carry entering each lane's first row. Reopening
// from a carry-corrected cell (H - open) is always dominated by plain carry
// decay (H - ext, as open >= ext), so lane l's incoming carry depends only
// on lane l-1's main-pass outgoing F and lane l-1's own incoming carry
// decayed across its t rows:
//   g[0] = H(0,j) - open,   g[l] = max(F_out[l-1], g[l-1] - ext*t).
// That max-plus recurrence is a weighted prefix max, computed with
// log2(lanes) shift-decay-max steps, followed by ONE corrected sweep that
// applies the per-lane carries (decaying ext per row) and re-maxes the E
// row (E feeds the next column from H). No iterative re-walking, no
// per-iteration mask reductions.

#include "align/engine/striped.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "align/engine/int_trace.hpp"
#include "bio/alphabet.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace salign::align::engine::detail {

namespace {

constexpr int kMaxMagnitude = 4096;  // sanity cap for scores and penalties

/// Row-0 boundary of the combined DP: H(0,0) = 0, H(0,j) = X(0,j).
std::int64_t boundary_h0(std::int64_t j, std::int64_t open, std::int64_t ext) {
  return j == 0 ? 0 : -(open + ext * (j - 1));
}

/// Lane shift toward higher indices by the compile-time count, with the
/// vacated low lanes taken from `low_fill` (a vector that is zero outside
/// its low `kCount` lanes). Real query rows occupy the LOW lanes, so
/// padded-lane garbage can never flow into a real lane through this shift.
/// On SSE2 this is one byte-shift plus one OR; elsewhere a small staging
/// buffer (also the ScalarInt path, where the shift degenerates to the
/// fill itself).
template <std::size_t kCount, typename VI>
VI shift_up(VI v, VI low_fill) {
  using Elem = typename VI::Elem;
  constexpr auto kW = static_cast<std::size_t>(VI::kLanes);
  if constexpr (kCount >= kW) {
    (void)v;
    return low_fill;
  }
#if defined(__SSE2__) && defined(SALIGN_HAVE_VECTOR_EXT)
  else if constexpr (sizeof(typename VI::Native) == 16) {
    __m128i x;
    __builtin_memcpy(&x, &v.v, 16);
    x = _mm_slli_si128(x, kCount * sizeof(Elem));
    __m128i f;
    __builtin_memcpy(&f, &low_fill.v, 16);
    x = _mm_or_si128(x, f);
    VI r;
    __builtin_memcpy(&r.v, &x, 16);
    return r;
  }
#endif
  else {
    Elem buf[2 * kW];
    low_fill.store(buf);
    v.store(buf + kCount);
    return VI::load(buf);
  }
}

/// Builds the `low_fill` companion of shift_up: value `x` in the low
/// `count` lanes, zero elsewhere.
template <typename VI>
VI low_lanes(typename VI::Elem x, std::size_t count) {
  using Elem = typename VI::Elem;
  constexpr auto kW = static_cast<std::size_t>(VI::kLanes);
  Elem buf[kW] = {};
  for (std::size_t i = 0; i < count && i < kW; ++i) buf[i] = x;
  return VI::load(buf);
}

}  // namespace

IntGate scan_int_gate(const bio::SubstitutionMatrix& matrix,
                      bio::GapPenalties gaps) {
  IntGate g;
  const float open_r = std::nearbyint(gaps.open);
  const float ext_r = std::nearbyint(gaps.extend);
  if (open_r != gaps.open || ext_r != gaps.extend) return g;
  g.open = static_cast<int>(open_r);
  g.ext = static_cast<int>(ext_r);
  if (g.ext < 1 || g.open < g.ext || g.open > kMaxMagnitude) return g;

  const int alpha = bio::Alphabet::get(matrix.alphabet_kind()).size();
  for (int a = 0; a < alpha; ++a) {
    for (int b = 0; b < alpha; ++b) {
      const float s = matrix.score(static_cast<std::uint8_t>(a),
                                   static_cast<std::uint8_t>(b));
      const float r = std::nearbyint(s);
      if (r != s || std::abs(r) > kMaxMagnitude) return g;
      const int si = static_cast<int>(r);
      g.max_pos = std::max(g.max_pos, si);
      g.max_neg = std::max(g.max_neg, -si);
    }
  }
  g.integral = true;
  return g;
}

template <typename VI>
StripedProfile<VI>::StripedProfile(std::span<const std::uint8_t> query,
                                   const bio::SubstitutionMatrix& matrix,
                                   const IntGate& gate)
    : m_(query.size()), gate_(gate) {
  if (!gate.integral || m_ == 0) return;

  // Rails in LOGICAL values (int_rails is the single shared definition;
  // the trait's bias maps logical [min, max] onto its storage range). The
  // rails must leave a usable operating range around 0 (H(0,0) = 0).
  const IntRails rails = int_rails<VI>(gate);
  if (!rails.usable) return;
  floor_ = rails.floor_l;
  ceil_ = rails.ceil_l;

  constexpr auto kW = static_cast<std::size_t>(VI::kLanes);
  segs_ = (m_ + kW - 1) / kW;
  // Query-side boundary viability: the column-0 values of the REAL rows and
  // their derived E seeds must sit strictly above the floor rail (padded
  // rows clamp — they are inert); viable_for() re-checks with the
  // counterpart's length.
  if (!StripedProfile::viable_for_impl(m_ + 1, gate_, floor_)) return;

  const auto alpha = static_cast<std::size_t>(
      bio::Alphabet::get(matrix.alphabet_kind()).size());
  data_.assign(alpha * segs_ * kW, VI::encode_delta(0));
  for (std::size_t c = 0; c < alpha; ++c) {
    Elem* out = data_.data() + c * segs_ * kW;
    for (std::size_t l = 0; l < kW; ++l) {
      for (std::size_t k = 0; k < segs_; ++k) {
        const std::size_t s = l * segs_ + k;
        if (s < m_)
          out[k * kW + l] = VI::encode_delta(static_cast<int>(std::lround(
              matrix.score(query[s], static_cast<std::uint8_t>(c)))));
      }
    }
  }
  viable_ = true;
}

template <typename VI>
bool StripedProfile<VI>::viable_for(std::size_t other_len) const {
  if (!viable_) return false;
  return viable_for_impl(std::max(other_len, m_) + 1, gate_, floor_);
}

template <typename VI>
bool StripedProfile<VI>::viable_for_impl(std::size_t max_len,
                                         const IntGate& gate,
                                         std::int64_t floor64) {
  // boundary_need (striped.hpp) is the deepest-boundary-value formula.
  return boundary_need(gate, max_len) <= -floor64 - 1;
}

// striped_score is defined below, after AlignPass: both the score pass and
// the alignment passes run AlignPass::run_column, so the score/alignment
// tier agreement is structural, not by parallel maintenance.

// ---------------------------------------------------------------------------
// Striped full alignment (column-checkpointed traceback)
//
// The forward pass is the score kernel's column walk with two additions:
// every ~sqrt(n)-th column it captures a checkpoint (the column's FINAL H —
// the pending carry applied to a copy — plus the raw E array, whose
// read-time re-max against final-H-minus-open regenerates the exact E of
// the next column), and the walk is factored through AlignPass::run_column
// so the traceback's block recompute runs the exact same operations.
//
// The traceback walks the reference kernel's came_from chains
// (int_trace.hpp) over exact cell values. A block recompute restarts at the
// nearest checkpoint c0 <= j-2 with no pending carry (the checkpoint is
// final by construction) and stores, for each recomputed column, the final
// H, E and F:
//   * E(i,j) is the carry-corrected value the kernel computes when it reads
//     the E array back — captured for free in the main loop;
//   * F(i,j) = max(F_main, g[l] - ext*k): the main pass's within-lane chain,
//     re-maxed with the column's cross-lane carry decayed ext per row — the
//     same correction the deferred H sweep applies, so both are produced by
//     one fused post-scan sweep per column.
// The reference states then are X = E, Y = F, M(i,j) = H(i-1,j-1) + sub.
//
// Alignment-tier rails: score-only passes may let E/F clamp at the floor
// (a clamp only matters if it wins a cell, which pins H to the rail and is
// caught), but the traceback reads E/F values directly, so any recomputed
// block whose E or F sat on the floor in a REAL lane aborts the traceback
// and promotes. Padded lanes sit at the floor by construction; the
// workspace's pad_guard masks them out of the check.
// ---------------------------------------------------------------------------

namespace {

/// Column-checkpoint spacing: ~sqrt(n), floored so tiny problems run as one
/// block.
std::size_t column_interval(std::size_t n) {
  const auto root =
      static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  return std::clamp<std::size_t>(root, 32, 4096);
}

/// Per-stripe sink of AlignPass::run_column: the forward pass stores
/// nothing, the block pass captures the final E and the pre-carry F.
struct NoCells {
  template <typename VI>
  void cell(std::size_t, VI, VI) {}
};

template <typename VI>
struct StoreCells {
  using Elem = typename VI::Elem;
  Elem* e_col;
  Elem* f_col;
  const Elem* guard;  // per-slot pad guard (see StripedAlignWorkspace)
  VI* e_track;        // running min of guarded E

  void cell(std::size_t k, VI v_e, VI v_f_main) {
    constexpr auto kW = static_cast<std::size_t>(VI::kLanes);
    v_e.store(e_col + k * kW);
    v_f_main.store(f_col + k * kW);
    *e_track = VI::min(*e_track, VI::max(v_e, VI::load(guard + k * kW)));
  }
};

/// Shared constants + the column body of the striped alignment kernel. The
/// forward and block passes both run run_column, so the recomputed block
/// values are bit-identical to the forward pass by construction.
template <typename VI>
struct AlignPass {
  using Elem = typename VI::Elem;
  static constexpr auto kW = static_cast<std::size_t>(VI::kLanes);

  const StripedProfile<VI>& profile;
  std::span<const std::uint8_t> other;
  std::size_t t, m, n, slots;
  std::int64_t open64, ext64;
  int floor_l, ceil_l;
  Elem floor_enc, ceil_enc;
  VI v_floor, v_ceil, v_open, v_ext;
  VI g_decay[6], g_guard[6], g_fill[6];
  VI v_last_decay, v_last_guard;

  AlignPass(const StripedProfile<VI>& p, std::span<const std::uint8_t> o)
      : profile(p),
        other(o),
        t(p.segs()),
        m(p.query_len()),
        n(o.size()),
        slots(t * kW),
        open64(p.gate().open),
        ext64(p.gate().ext),
        floor_l(p.floor_rail()),
        ceil_l(p.ceil_rail()),
        floor_enc(VI::encode(floor_l)),
        ceil_enc(VI::encode(ceil_l)),
        v_floor(VI::splat(floor_enc)),
        v_ceil(VI::splat(ceil_enc)),
        v_open(VI::splat(VI::encode_delta(static_cast<int>(open64)))),
        v_ext(VI::splat(VI::encode_delta(static_cast<int>(ext64)))) {
    const std::int64_t ext_lane = ext64 * static_cast<std::int64_t>(t);
    const int range = ceil_l - floor_l;
    std::size_t s = 0;
    for (std::size_t step = 1; step < kW; step *= 2, ++s) {
      const int d = static_cast<int>(std::min<std::int64_t>(
          ext_lane * static_cast<std::int64_t>(step), range));
      g_decay[s] = VI::splat(VI::encode_delta(d));
      g_guard[s] = VI::splat(VI::encode(floor_l + d));
      g_fill[s] = low_lanes<VI>(floor_enc, step);
    }
    const int d_last = static_cast<int>(std::min<std::int64_t>(
        ext64 * static_cast<std::int64_t>(t - 1), range));
    v_last_decay = VI::splat(VI::encode_delta(d_last));
    v_last_guard = VI::splat(VI::encode(floor_l + d_last));
  }

  /// Column-0 boundary state, identical to striped_score's init.
  void init_column0(Elem* h, Elem* e) const {
    const auto floor64 = static_cast<std::int64_t>(floor_l);
    for (std::size_t l = 0; l < kW; ++l) {
      for (std::size_t k = 0; k < t; ++k) {
        const auto i = static_cast<std::int64_t>(l * t + k) + 1;
        const std::int64_t hv =
            std::max(-(open64 + ext64 * (i - 1)), floor64 + 1);
        h[k * kW + l] = VI::encode(static_cast<int>(hv));
        e[k * kW + l] =
            VI::encode(static_cast<int>(std::max(hv - open64, floor64)));
      }
    }
  }

  /// One column of the kernel: identical operations to striped_score's
  /// inner loop + carry scan + last-stripe correction, with `sink.cell()`
  /// observing the final E and the pre-carry F of each stripe.
  template <typename Sink>
  void run_column(std::size_t j, Elem* h_cur, const Elem* h_prev, Elem* e,
                  VI& v_g, VI& v_last, VI& v_sat_max, VI& v_sat_min,
                  Sink&& sink) const {
    const auto floor64 = static_cast<std::int64_t>(floor_l);
    const Elem* prof = profile.row(other[j - 1]);

    VI v_h = shift_up<1>(
        v_last,
        low_lanes<VI>(VI::encode(static_cast<int>(boundary_h0(
                          static_cast<std::int64_t>(j) - 1, open64, ext64))),
                      1));
    VI v_f = v_floor;

    for (std::size_t k = 0; k < t; ++k) {
      const VI v_hp = VI::max(VI::load(h_prev + k * kW), v_g);
      v_g = VI::max(v_g - v_ext, v_floor);
      v_sat_max = VI::max(v_sat_max, v_hp);
      v_sat_min = VI::min(v_sat_min, v_hp);
      const VI v_e = VI::max(VI::load(e + k * kW), v_hp - v_open);
      sink.cell(k, v_e, v_f);
      v_h = v_h + VI::load(prof + k * kW);
      v_h = VI::max(v_h, v_e);
      v_h = VI::max(v_h, v_f);
      v_h = VI::min(v_h, v_ceil);
      v_h.store(h_cur + k * kW);
      const VI v_h_open = v_h - v_open;
      VI v_e_next = VI::max(v_e - v_ext, v_h_open);
      v_e_next = VI::max(v_e_next, v_floor);
      v_e_next.store(e + k * kW);
      v_f = VI::max(v_f - v_ext, v_h_open);
      v_f = VI::max(v_f, v_floor);
      v_h = v_hp;
    }

    v_g = shift_up<1>(
        v_f, low_lanes<VI>(
                 VI::encode(static_cast<int>(std::max(
                     boundary_h0(static_cast<std::int64_t>(j), open64,
                                 ext64) -
                         open64,
                     floor64))),
                 1));
    if constexpr (kW > 1)
      v_g = VI::max(v_g,
                    VI::max(shift_up<1>(v_g, g_fill[0]), g_guard[0]) -
                        g_decay[0]);
    if constexpr (kW > 2)
      v_g = VI::max(v_g,
                    VI::max(shift_up<2>(v_g, g_fill[1]), g_guard[1]) -
                        g_decay[1]);
    if constexpr (kW > 4)
      v_g = VI::max(v_g,
                    VI::max(shift_up<4>(v_g, g_fill[2]), g_guard[2]) -
                        g_decay[2]);
    if constexpr (kW > 8)
      v_g = VI::max(v_g,
                    VI::max(shift_up<8>(v_g, g_fill[3]), g_guard[3]) -
                        g_decay[3]);
    if constexpr (kW > 16)
      v_g = VI::max(v_g,
                    VI::max(shift_up<16>(v_g, g_fill[4]), g_guard[4]) -
                        g_decay[4]);

    v_last = VI::max(VI::load(h_cur + (t - 1) * kW),
                     VI::max(v_g, v_last_guard) - v_last_decay);
  }

  /// Corrected copy: out_h[k] = max(h[k], carry decayed), the same deferred
  /// sweep the next column's reads would apply. Leaves `h` and the live
  /// carry untouched.
  void corrected_h(const Elem* h, VI v_g, Elem* out_h) const {
    for (std::size_t k = 0; k < t; ++k) {
      const VI vh = VI::max(VI::load(h + k * kW), v_g);
      vh.store(out_h + k * kW);
      v_g = VI::max(v_g - v_ext, v_floor);
    }
  }
};

/// Values adapter of the shared integer traceback walker: analytic
/// boundaries, block-stored interior, M derived from H and the profile's
/// substitution deltas. ensure() recomputes the block whose stored columns
/// [c0+1, top] (plus the seed column c0) cover j and j-1.
template <typename VI>
struct StripedTraceValues {
  using Elem = typename VI::Elem;
  static constexpr auto kW = static_cast<std::size_t>(VI::kLanes);

  const AlignPass<VI>& ap;
  StripedAlignWorkspace<VI>& ws;
  std::size_t interval;
  std::int64_t open, ext;
  std::size_t c0 = 0, top = 0;
  bool loaded = false;

  StripedTraceValues(const AlignPass<VI>& pass, StripedAlignWorkspace<VI>& w,
                     std::size_t k)
      : ap(pass), ws(w), interval(k), open(pass.open64), ext(pass.ext64) {}

  [[nodiscard]] std::size_t slot(std::size_t i) const {
    return ((i - 1) % ap.t) * kW + (i - 1) / ap.t;
  }
  [[nodiscard]] std::int64_t stored(const std::vector<Elem>& cols,
                                    std::size_t i, std::size_t j) const {
    return VI::decode(cols[(j - c0 - 1) * ap.slots + slot(i)]);
  }

  [[nodiscard]] std::int64_t h(std::size_t i, std::size_t j) const {
    if (i == 0) return boundary_h0(static_cast<std::int64_t>(j), open, ext);
    if (j == 0) return -(open + ext * (static_cast<std::int64_t>(i) - 1));
    if (j == c0) return VI::decode(ws.blk_h0[slot(i)]);
    return stored(ws.blk_h, i, j);
  }
  [[nodiscard]] std::int64_t x(std::size_t i, std::size_t j) const {
    if (i == 0)
      return j == 0 ? kNegI
                    : -(open + ext * (static_cast<std::int64_t>(j) - 1));
    if (j == 0) return kNegI;
    return stored(ws.blk_e, i, j);
  }
  [[nodiscard]] std::int64_t y(std::size_t i, std::size_t j) const {
    if (i == 0) return kNegI;
    if (j == 0) return -(open + ext * (static_cast<std::int64_t>(i) - 1));
    return stored(ws.blk_f, i, j);
  }
  [[nodiscard]] std::int64_t m(std::size_t i, std::size_t j) const {
    if (i == 0) return j == 0 ? 0 : kNegI;
    if (j == 0) return kNegI;
    const int sub =
        VI::decode_delta(ap.profile.row(ap.other[j - 1])[slot(i)]);
    return h(i - 1, j - 1) + sub;
  }

  /// came_from(i, j) reads columns j and j-1; stored X/Y need j-1 >= c0+1
  /// (or the analytic column 0), so a block answers j in [c0+2, top] —
  /// plus all j >= 1 when c0 == 0.
  [[nodiscard]] bool ensure(std::size_t j) {
    if (loaded && j <= top && (c0 == 0 || j >= c0 + 2)) return true;
    return load_block(j);
  }

  [[nodiscard]] bool load_block(std::size_t j) {
    c0 = j >= interval + 2 ? (j - 2) / interval * interval : 0;
    top = j;
    const std::size_t span_cols = top - c0;
    ws.blk_h.resize(span_cols * ap.slots);
    ws.blk_e.resize(span_cols * ap.slots);
    ws.blk_f.resize(span_cols * ap.slots);

    Elem* h_cur = ws.cols.h_a.data();
    Elem* h_prev = ws.cols.h_b.data();
    Elem* e = ws.cols.e.data();
    if (c0 == 0) {
      ap.init_column0(h_cur, e);
    } else {
      const std::size_t at = (c0 / interval - 1) * ap.slots;
      std::copy_n(ws.ckpt_h.data() + at, ap.slots, h_cur);
      std::copy_n(ws.ckpt_e.data() + at, ap.slots, e);
    }
    ws.blk_h0.assign(h_cur, h_cur + ap.slots);

    // The seed column is final: no pending carry, diagonal feed straight
    // from its last stripe — exactly the forward pass's column-0 state.
    VI v_g = ap.v_floor;
    VI v_last = VI::load(h_cur + (ap.t - 1) * kW);
    VI v_sat_max = ap.v_floor;
    VI v_sat_min = ap.v_ceil;
    VI e_track = ap.v_ceil;
    VI f_track = ap.v_ceil;
    const Elem* guard = ws.pad_guard.data();

    for (std::size_t jj = c0 + 1; jj <= top; ++jj) {
      std::swap(h_cur, h_prev);
      const std::size_t col = (jj - c0 - 1) * ap.slots;
      StoreCells<VI> sink{ws.blk_e.data() + col, ws.blk_f.data() + col,
                          guard, &e_track};
      ap.run_column(jj, h_cur, h_prev, e, v_g, v_last, v_sat_max, v_sat_min,
                    sink);
      // Fused post-scan sweep: final H into the block, the same carry
      // re-maxed into the captured pre-carry F (identical decay schedule).
      VI g2 = v_g;
      Elem* bh = ws.blk_h.data() + col;
      Elem* bf = ws.blk_f.data() + col;
      for (std::size_t k = 0; k < ap.t; ++k) {
        const VI vh = VI::max(VI::load(h_cur + k * kW), g2);
        vh.store(bh + k * kW);
        const VI vf = VI::max(VI::load(bf + k * kW), g2);
        vf.store(bf + k * kW);
        f_track =
            VI::min(f_track, VI::max(vf, VI::load(guard + k * kW)));
        g2 = VI::max(g2 - ap.v_ext, ap.v_floor);
      }
    }

    // Alignment-tier rail check: a floor-seated E or F in a real lane means
    // the stored value may be a clamp, not the exact cell — promote.
    Elem seen = ap.ceil_enc;
    for (int l = 0; l < VI::kLanes; ++l) {
      seen = std::min(seen, e_track.lane(l));
      seen = std::min(seen, f_track.lane(l));
    }
    if (seen <= ap.floor_enc) return false;
    loaded = true;
    return true;
  }
};

}  // namespace

template <typename VI>
bool striped_score(const StripedProfile<VI>& profile,
                   std::span<const std::uint8_t> other,
                   StripedWorkspace<VI>& ws, float* score) {
  using Elem = typename VI::Elem;
  constexpr auto kW = static_cast<std::size_t>(VI::kLanes);
  const AlignPass<VI> ap(profile, other);

  ws.ensure(ap.slots);
  Elem* h_cur = ws.h_a.data();
  Elem* h_prev = ws.h_b.data();
  Elem* e = ws.e.data();
  ap.init_column0(h_cur, e);

  // Column 0 is exact by construction, so the pass starts with no pending
  // carry and the diagonal feed comes straight from the last stripe.
  VI v_g = ap.v_floor;
  VI v_last = VI::load(h_cur + (ap.t - 1) * kW);
  VI v_sat_max = ap.v_floor;
  VI v_sat_min = ap.v_ceil;

  for (std::size_t j = 1; j <= ap.n; ++j) {
    std::swap(h_cur, h_prev);
    ap.run_column(j, h_cur, h_prev, e, v_g, v_last, v_sat_max, v_sat_min,
                  NoCells{});
  }

  // Final sweep: the last column still has its carry pending; apply it so
  // the corner is final and its values are rail-checked.
  for (std::size_t k = 0; k < ap.t; ++k) {
    VI v_h2 = VI::max(VI::load(h_cur + k * kW), v_g);
    v_h2.store(h_cur + k * kW);
    v_sat_max = VI::max(v_sat_max, v_h2);
    v_sat_min = VI::min(v_sat_min, v_h2);
    v_g = VI::max(v_g - ap.v_ext, ap.v_floor);
  }

  // Saturation: any stored H on a rail invalidates the run (legitimate
  // rail-valued cells promote too — conservative, never wrong).
  Elem seen_max = ap.floor_enc;
  Elem seen_min = ap.ceil_enc;
  for (int l = 0; l < VI::kLanes; ++l) {
    seen_max = std::max(seen_max, v_sat_max.lane(l));
    seen_min = std::min(seen_min, v_sat_min.lane(l));
  }
  if (seen_max >= ap.ceil_enc || seen_min <= ap.floor_enc) return false;

  const std::size_t corner = ap.m - 1;
  *score = static_cast<float>(
      VI::decode(h_cur[(corner % ap.t) * kW + corner / ap.t]));
  return true;
}

template <typename VI>
bool striped_align(const StripedProfile<VI>& profile,
                   std::span<const std::uint8_t> other,
                   StripedAlignWorkspace<VI>& ws, PairwiseAlignment* out,
                   bool* trace_promoted) {
  using Elem = typename VI::Elem;
  if (trace_promoted != nullptr) *trace_promoted = false;
  constexpr auto kW = static_cast<std::size_t>(VI::kLanes);
  const AlignPass<VI> ap(profile, other);
  const std::size_t n = ap.n;
  const std::size_t interval = column_interval(n);

  ws.cols.ensure(ap.slots);
  if (ws.guard_m != ap.m || ws.guard_t != ap.t) {
    ws.pad_guard.assign(ap.slots, static_cast<Elem>(ap.floor_enc + 1));
    for (std::size_t l = 0; l < kW; ++l)
      for (std::size_t k = 0; k < ap.t; ++k)
        if (l * ap.t + k < ap.m) ws.pad_guard[k * kW + l] = ap.floor_enc;
    ws.guard_m = ap.m;
    ws.guard_t = ap.t;
  }
  const std::size_t num_ckpt = n >= interval + 2 ? (n - 2) / interval : 0;
  ws.ckpt_h.resize(num_ckpt * ap.slots);
  ws.ckpt_e.resize(num_ckpt * ap.slots);

  Elem* h_cur = ws.cols.h_a.data();
  Elem* h_prev = ws.cols.h_b.data();
  Elem* e = ws.cols.e.data();
  ap.init_column0(h_cur, e);

  VI v_g = ap.v_floor;
  VI v_last = VI::load(h_cur + (ap.t - 1) * kW);
  VI v_sat_max = ap.v_floor;
  VI v_sat_min = ap.v_ceil;

  const auto rails_hit = [&](VI sat_max, VI sat_min) {
    Elem seen_max = ap.floor_enc;
    Elem seen_min = ap.ceil_enc;
    for (int l = 0; l < VI::kLanes; ++l) {
      seen_max = std::max(seen_max, sat_max.lane(l));
      seen_min = std::min(seen_min, sat_min.lane(l));
    }
    return seen_max >= ap.ceil_enc || seen_min <= ap.floor_enc;
  };

  for (std::size_t j = 1; j <= n; ++j) {
    std::swap(h_cur, h_prev);
    ap.run_column(j, h_cur, h_prev, e, v_g, v_last, v_sat_max, v_sat_min,
                  NoCells{});
    // Saturation is sticky, so bail as soon as a rail is touched instead of
    // finishing a doomed pass — high-identity pairs hit the int8 ceiling
    // within a few dozen columns and would otherwise pay the full matrix
    // before promoting.
    if ((j & 15U) == 0 && rails_hit(v_sat_max, v_sat_min)) return false;
    if (j % interval == 0 && j / interval <= num_ckpt) {
      const std::size_t at = (j / interval - 1) * ap.slots;
      ap.corrected_h(h_cur, v_g, ws.ckpt_h.data() + at);
      std::copy_n(e, ap.slots, ws.ckpt_e.data() + at);
    }
  }

  // Final sweep (rail-checks the last column; the traceback recomputes its
  // values from the nearest checkpoint, so h_cur itself is not kept).
  for (std::size_t k = 0; k < ap.t; ++k) {
    const VI v_h2 = VI::max(VI::load(h_cur + k * kW), v_g);
    v_sat_max = VI::max(v_sat_max, v_h2);
    v_sat_min = VI::min(v_sat_min, v_h2);
    v_g = VI::max(v_g - ap.v_ext, ap.v_floor);
  }
  if (rails_hit(v_sat_max, v_sat_min)) return false;

  StripedTraceValues<VI> vals(ap, ws, interval);
  PairwiseAlignment result;
  if (!integer_global_traceback(ap.m, n, vals, &result)) {
    if (trace_promoted != nullptr) *trace_promoted = true;
    return false;
  }
  *out = std::move(result);
  return true;
}

template class StripedProfile<VecI8>;
template class StripedProfile<VecI16>;
template bool striped_score<VecI8>(const StripedProfile<VecI8>&,
                                   std::span<const std::uint8_t>,
                                   StripedWorkspace<VecI8>&, float*);
template bool striped_score<VecI16>(const StripedProfile<VecI16>&,
                                    std::span<const std::uint8_t>,
                                    StripedWorkspace<VecI16>&, float*);
template bool striped_align<VecI8>(const StripedProfile<VecI8>&,
                                   std::span<const std::uint8_t>,
                                   StripedAlignWorkspace<VecI8>&,
                                   PairwiseAlignment*, bool*);
template bool striped_align<VecI16>(const StripedProfile<VecI16>&,
                                    std::span<const std::uint8_t>,
                                    StripedAlignWorkspace<VecI16>&,
                                    PairwiseAlignment*, bool*);

}  // namespace salign::align::engine::detail
