// Inter-pair batched int8 global alignment (one pair per lane).
//
// Unlike the striped kernels there is no cross-lane dependency anywhere:
// lane l advances pair l's own Gotoh recurrence, so the DP is the textbook
// column-major walk with every state vectorized across pairs. The only
// scalar step is the substitution gather (each lane looks up its own
// residue pair in a pre-encoded int8 score table) — 16 L1 loads per cell
// vector against ~a dozen vector ops, which is exactly the trade the
// inter-sequence batching literature makes.
//
// Eligible pairs are short (max_len() bounds them by the int8 boundary
// rail), so the kernel stores every H/E/F column — O(M * N * lanes) bytes,
// a few hundred KB — and the per-lane traceback is a pure table walk
// through the shared integer walker (int_trace.hpp): X = E, Y = F,
// M(i,j) = H(i-1,j-1) + sub, reference came_from chains on exact values.
//
// Rails: per-lane vector min/max accumulators over the stored H (both
// rails) and E/F (floor; the traceback reads them, see striped.cpp's
// alignment-tier discussion). Group geometry runs to the longest member's
// (M, N); a lane's padded overhang can only add spurious flags — its real
// region [1, m_l] x [1, n_l] depends solely on real cells and boundaries —
// so saturated lanes are re-run by the caller and everything stays exact.

#include "align/engine/pair_batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "align/engine/int_trace.hpp"
#include "align/engine/simd_int.hpp"
#include "align/engine/striped.hpp"
#include "bio/alphabet.hpp"

namespace salign::align::engine {

namespace {

/// Upper cap on eligible lengths regardless of the rails, bounding the
/// column store at 3 * 257 * 256 * lanes bytes.
constexpr std::size_t kLenCap = 256;

/// Row-0 boundary H(0, j) of the combined DP (same as striped.cpp).
std::int64_t pb_boundary(std::int64_t j, std::int64_t open,
                         std::int64_t ext) {
  return j == 0 ? 0 : -(open + ext * (j - 1));
}

template <typename VI>
struct PairBatchImplT {
  using Elem = typename VI::Elem;
  using Pair = PairBatch::Pair;
  static constexpr auto kW = static_cast<std::size_t>(VI::kLanes);

  detail::IntGate gate;
  int floor_l = 0, ceil_l = 0;
  std::size_t cap = 0;        // max eligible length
  std::size_t alpha = 0;      // alphabet size (score table stride alpha+1)
  std::vector<Elem> sub8;     // (alpha+1)^2 encoded deltas; padded row/col 0
  // Reusable per-call state.
  std::vector<Elem> h, e, f;  // (N+1) * M * kW column store
  std::vector<std::uint8_t> a_pack;  // M * kW interleaved query codes

  PairBatchImplT(const bio::SubstitutionMatrix& matrix,
                 bio::GapPenalties gaps) {
    gate = detail::scan_int_gate(matrix, gaps);
    if (!gate.integral) return;
    const detail::IntRails rails = detail::int_rails<VI>(gate);
    if (!rails.usable) return;
    floor_l = rails.floor_l;
    ceil_l = rails.ceil_l;
    // Eligibility cap: the largest L whose boundary_need (the shared
    // striped-tier bound, with max_len = L + 1 as viable_for uses) stays
    // inside the floor rail — closed-form inversion, then checked back
    // against the forward formula so the two can never disagree.
    const std::int64_t head = -static_cast<std::int64_t>(floor_l) - 1 -
                              gate.open -
                              std::max(gate.open, gate.max_neg);
    if (head <= gate.ext) return;
    cap = std::min<std::size_t>(
        kLenCap, static_cast<std::size_t>(head / gate.ext) - 1);
    while (cap > 0 &&
           detail::boundary_need(gate, cap + 1) >
               -static_cast<std::int64_t>(floor_l) - 1)
      --cap;
    if (cap < 2) {
      cap = 0;
      return;
    }

    alpha = static_cast<std::size_t>(
        bio::Alphabet::get(matrix.alphabet_kind()).size());
    sub8.assign((alpha + 1) * (alpha + 1), VI::encode_delta(0));
    for (std::size_t x = 0; x < alpha; ++x)
      for (std::size_t y = 0; y < alpha; ++y)
        sub8[x * (alpha + 1) + y] =
            VI::encode_delta(static_cast<int>(std::lround(
                matrix.score(static_cast<std::uint8_t>(x),
                             static_cast<std::uint8_t>(y)))));
  }

  [[nodiscard]] std::size_t lanes() const { return kW; }
  [[nodiscard]] std::size_t max_len() const { return cap; }
  [[nodiscard]] std::size_t bytes() const {
    return (sub8.capacity() + h.capacity() + e.capacity() + f.capacity()) *
               sizeof(Elem) +
           a_pack.capacity();
  }

  [[nodiscard]] std::size_t at(std::size_t stride_m, std::size_t i,
                               std::size_t j) const {
    return (j * stride_m + (i - 1)) * kW;
  }

  void align(std::span<const Pair> pairs, PairwiseAlignment* out, bool* ok);
};

/// Values adapter of one ok lane: full column store, analytic boundaries.
template <typename VI>
struct PairTraceValues {
  using Elem = typename VI::Elem;
  static constexpr auto kW = static_cast<std::size_t>(VI::kLanes);

  const PairBatchImplT<VI>& impl;
  std::size_t lane, stride_m;
  std::span<const std::uint8_t> a, b;
  std::int64_t open, ext;

  [[nodiscard]] static bool ensure(std::size_t) { return true; }

  [[nodiscard]] std::int64_t cell(const std::vector<Elem>& cols,
                                  std::size_t i, std::size_t j) const {
    return VI::decode(cols[impl.at(stride_m, i, j) + lane]);
  }
  [[nodiscard]] std::int64_t h(std::size_t i, std::size_t j) const {
    if (i == 0) return pb_boundary(static_cast<std::int64_t>(j), open, ext);
    if (j == 0) return -(open + ext * (static_cast<std::int64_t>(i) - 1));
    return cell(impl.h, i, j);
  }
  [[nodiscard]] std::int64_t x(std::size_t i, std::size_t j) const {
    if (i == 0)
      return j == 0 ? detail::kNegI
                    : -(open + ext * (static_cast<std::int64_t>(j) - 1));
    if (j == 0) return detail::kNegI;
    return cell(impl.e, i, j);
  }
  [[nodiscard]] std::int64_t y(std::size_t i, std::size_t j) const {
    if (i == 0) return detail::kNegI;
    if (j == 0) return -(open + ext * (static_cast<std::int64_t>(i) - 1));
    return cell(impl.f, i, j);
  }
  [[nodiscard]] std::int64_t m(std::size_t i, std::size_t j) const {
    if (i == 0) return j == 0 ? 0 : detail::kNegI;
    if (j == 0) return detail::kNegI;
    const std::size_t stride = impl.alpha + 1;
    const int sub = VI::decode_delta(
        impl.sub8[static_cast<std::size_t>(a[i - 1]) * stride + b[j - 1]]);
    return h(i - 1, j - 1) + sub;
  }
};

template <typename VI>
void PairBatchImplT<VI>::align(std::span<const Pair> pairs,
                               PairwiseAlignment* out, bool* ok) {
  const std::size_t count = std::min<std::size_t>(pairs.size(), kW);
  std::size_t big_m = 0;
  std::size_t big_n = 0;
  for (std::size_t p = 0; p < count; ++p) {
    big_m = std::max(big_m, pairs[p].a.size());
    big_n = std::max(big_n, pairs[p].b.size());
  }
  const std::size_t slots = (big_n + 1) * big_m * kW;
  h.resize(slots);
  e.resize(slots);
  f.resize(slots);

  // Interleaved query codes: a_pack[(i-1)*kW + l] = pair l's residue i,
  // `alpha` (the zero row of the score table) past pair l's extent.
  a_pack.assign(big_m * kW, static_cast<std::uint8_t>(alpha));
  for (std::size_t p = 0; p < count; ++p)
    for (std::size_t i = 0; i < pairs[p].a.size(); ++i)
      a_pack[i * kW + p] = pairs[p].a[i];

  const auto open64 = static_cast<std::int64_t>(gate.open);
  const auto ext64 = static_cast<std::int64_t>(gate.ext);
  const Elem floor_enc = VI::encode(floor_l);
  const Elem ceil_enc = VI::encode(ceil_l);
  const VI v_floor = VI::splat(floor_enc);
  const VI v_ceil = VI::splat(ceil_enc);
  const VI v_open = VI::splat(VI::encode_delta(gate.open));
  const VI v_ext = VI::splat(VI::encode_delta(gate.ext));

  // Column 0: the global boundary (H the gap run, E/F the -inf sentinel).
  for (std::size_t i = 1; i <= big_m; ++i) {
    const Elem hb = VI::encode(static_cast<int>(
        -(open64 + ext64 * (static_cast<std::int64_t>(i) - 1))));
    const std::size_t base = at(big_m, i, 0);
    for (std::size_t l = 0; l < kW; ++l) {
      h[base + l] = hb;
      e[base + l] = floor_enc;
      f[base + l] = floor_enc;
    }
  }

  VI v_sat_max = v_floor;
  VI v_sat_min = v_ceil;
  VI v_ef_min = v_ceil;
  const std::size_t stride = alpha + 1;
  alignas(16) Elem sub_buf[kW];
  alignas(16) std::size_t brow[kW];

  const auto lane_dead = [&](std::size_t l) {
    return v_sat_max.lane(static_cast<int>(l)) >= ceil_enc ||
           v_sat_min.lane(static_cast<int>(l)) <= floor_enc ||
           v_ef_min.lane(static_cast<int>(l)) <= floor_enc;
  };

  for (std::size_t j = 1; j <= big_n; ++j) {
    // Saturation is sticky: once every live lane has touched a rail the
    // rest of the pass cannot produce a usable lane — bail and let the
    // caller's per-pair ladder take the whole group (high-identity groups
    // hit the int8 ceiling early and would otherwise waste the full DP).
    if ((j & 7U) == 0) {
      bool any_live = false;
      for (std::size_t p = 0; p < count && !any_live; ++p)
        any_live = !lane_dead(p);
      if (!any_live) {
        for (std::size_t p = 0; p < count; ++p) ok[p] = false;
        return;
      }
    }
    for (std::size_t l = 0; l < kW; ++l)
      brow[l] = (l < count && j - 1 < pairs[l].b.size())
                    ? static_cast<std::size_t>(pairs[l].b[j - 1])
                    : alpha;
    const VI v_h0j = VI::splat(
        VI::encode(static_cast<int>(pb_boundary(
            static_cast<std::int64_t>(j), open64, ext64))));
    VI v_hdiag = VI::splat(VI::encode(static_cast<int>(pb_boundary(
        static_cast<std::int64_t>(j) - 1, open64, ext64))));
    VI v_hrow = v_h0j;  // H(i-1, j), seeded with the row-0 boundary
    VI v_f = v_floor;
    const std::uint8_t* ap = a_pack.data();

    for (std::size_t i = 1; i <= big_m; ++i, ap += kW) {
      for (std::size_t l = 0; l < kW; ++l)
        sub_buf[l] = sub8[static_cast<std::size_t>(ap[l]) * stride + brow[l]];
      const VI v_sub = VI::load(sub_buf);
      const std::size_t prev = at(big_m, i, j - 1);
      const std::size_t cur = at(big_m, i, j);
      const VI v_hup = VI::load(h.data() + prev);

      VI v_e = VI::max(VI::load(e.data() + prev) - v_ext, v_floor);
      v_e = VI::max(v_e, v_hup - v_open);
      v_f = VI::max(v_f - v_ext, v_floor);
      v_f = VI::max(v_f, v_hrow - v_open);
      VI v_h = v_hdiag + v_sub;
      v_h = VI::max(v_h, v_e);
      v_h = VI::max(v_h, v_f);
      v_h = VI::min(v_h, v_ceil);

      v_h.store(h.data() + cur);
      v_e.store(e.data() + cur);
      v_f.store(f.data() + cur);
      v_sat_max = VI::max(v_sat_max, v_h);
      v_sat_min = VI::min(v_sat_min, v_h);
      v_ef_min = VI::min(v_ef_min, VI::min(v_e, v_f));

      v_hdiag = v_hup;
      v_hrow = v_h;
    }
  }

  for (std::size_t p = 0; p < count; ++p) {
    const bool lane_ok = !lane_dead(p);
    ok[p] = lane_ok;
    if (!lane_ok) continue;
    PairTraceValues<VI> vals{*this,  p,      big_m, pairs[p].a,
                             pairs[p].b, open64, ext64};
    const bool traced = detail::integer_global_traceback(
        pairs[p].a.size(), pairs[p].b.size(), vals, &out[p]);
    (void)traced;  // ensure() never fails: the store is complete
  }
}

}  // namespace

struct PairBatch::Impl final : PairBatchImplT<VecI8> {
  using PairBatchImplT::PairBatchImplT;
};

PairBatch::PairBatch(const bio::SubstitutionMatrix& matrix,
                     bio::GapPenalties gaps)
    : impl_(std::make_unique<Impl>(matrix, gaps)) {}

PairBatch::~PairBatch() = default;
PairBatch::PairBatch(PairBatch&&) noexcept = default;
PairBatch& PairBatch::operator=(PairBatch&&) noexcept = default;

std::size_t PairBatch::lanes() const { return impl_->lanes(); }
std::size_t PairBatch::max_len() const { return impl_->max_len(); }

void PairBatch::align(std::span<const Pair> pairs, PairwiseAlignment* out,
                      bool* ok) {
  impl_->align(pairs, out, ok);
}

std::size_t PairBatch::workspace_bytes() const { return impl_->bytes(); }

}  // namespace salign::align::engine
