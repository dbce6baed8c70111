#pragma once

// Row-major reference of the occupancy-scaled three-state profile DP.
//
// Header-only so both the tests and bench/micro_kernels (BM_ProfileDpScalar)
// can reach it; it is never compiled into libsalign. The library's one
// profile-DP kernel, msa::detail::profile_dp_wavefront, promises exact score
// and traceback equality with it, and the randomized differential suites in
// tests/msa_parallel_test.cpp enforce that promise on every build.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "align/engine/engine.hpp"
#include "msa/profile_align.hpp"
#include "util/matrix.hpp"

namespace salign::msa::reference {

enum ProfileDpState : std::uint8_t { kPdM = 0, kPdX = 1, kPdY = 2 };

/// Invokes scorer.prepare_row(ca, cb_lo, cb_hi) when the scorer provides it
/// (row-major scorers with per-row precomputation); plain callables need
/// nothing. [cb_lo, cb_hi] is the inclusive B-column range the DP row will
/// query; empty ranges are announced as cb_lo > cb_hi.
template <typename Scorer>
inline void scorer_prepare_row(const Scorer& scorer, std::size_t ca,
                               std::size_t cb_lo, std::size_t cb_hi) {
  if constexpr (requires { scorer.prepare_row(ca, cb_lo, cb_hi); })
    scorer.prepare_row(ca, cb_lo, cb_hi);
}

/// PSP scorer with a per-row dense buffer: profile_dp announces each DP row
/// as prepare_row(ca, cb_lo, cb_hi), which fills row[cb] for the B columns
/// the row will read (the full width, or just the band) through the
/// library scorer's own fill_row; the per-cell call is then one array read.
struct PspRowMajorScorer {
  explicit PspRowMajorScorer(const detail::PspProblem& p)
      : psp(&p.scorer), row(p.svt.cols(), 0.0F) {}

  const detail::PspRowScorer* psp;
  mutable std::vector<float> row;

  void prepare_row(std::size_t ca, std::size_t cb_lo,
                   std::size_t cb_hi) const {
    if (cb_lo > cb_hi) return;
    psp->fill_row(ca, cb_lo, cb_hi - cb_lo + 1, row.data() + cb_lo);
  }
  float operator()(std::size_t, std::size_t cb) const { return row[cb]; }
};

struct ProfileDpCell {
  std::uint8_t came_from[3] = {kPdM, kPdM, kPdM};
};

/// One DP row of the three-state occupancy-scaled Gotoh recurrence, shared
/// by the full-trace pass, the score-only forward pass and the traceback
/// block recompute (kTrace selects whether came_from nibbles are stored).
/// The float operations and tie-break chains are the historical ones — all
/// paths produce bit-identical rows.
template <bool kTrace, typename Scorer>
inline void profile_dp_row(std::size_t i, std::size_t lo, std::size_t hi,
                           const Scorer& scorer, std::span<const float> occ_a,
                           std::span<const float> occ_b, float open, float ext,
                           const float* pm, const float* px, const float* py,
                           float* cm, float* cx, float* cy,
                           ProfileDpCell* trow) {
  constexpr float kNegInf = align::kNegInf;
  for (std::size_t j = std::max<std::size_t>(lo, 1); j <= hi; ++j) {
    const float sub = scorer(i - 1, j - 1);
    float best = pm[j - 1];
    std::uint8_t from = kPdM;
    if (px[j - 1] > best) {
      best = px[j - 1];
      from = kPdX;
    }
    if (py[j - 1] > best) {
      best = py[j - 1];
      from = kPdY;
    }
    cm[j] = best > kNegInf / 2 ? best + sub : kNegInf;
    if constexpr (kTrace) trow[j].came_from[kPdM] = from;

    // Gap in A consuming B's column j-1.
    const float gx_open = open * occ_b[j - 1];
    const float gx_ext = ext * occ_b[j - 1];
    const float open_x = cm[j - 1] - gx_open;
    const float ext_x = cx[j - 1] - gx_ext;
    const float via_y = cy[j - 1] - gx_open;
    std::uint8_t from_x;
    if (ext_x >= open_x && ext_x >= via_y) {
      cx[j] = ext_x;
      from_x = kPdX;
    } else if (open_x >= via_y) {
      cx[j] = open_x;
      from_x = kPdM;
    } else {
      cx[j] = via_y;
      from_x = kPdY;
    }
    if constexpr (kTrace) trow[j].came_from[kPdX] = from_x;

    // Gap in B consuming A's column i-1.
    const float gy_open = open * occ_a[i - 1];
    const float gy_ext = ext * occ_a[i - 1];
    const float open_y = pm[j] - gy_open;
    const float ext_y = py[j] - gy_ext;
    const float via_x = px[j] - gy_open;
    std::uint8_t from_y;
    if (ext_y >= open_y && ext_y >= via_x) {
      cy[j] = ext_y;
      from_y = kPdY;
    } else if (open_y >= via_x) {
      cy[j] = open_y;
      from_y = kPdM;
    } else {
      cy[j] = via_x;
      from_y = kPdX;
    }
    if constexpr (kTrace) trow[j].came_from[kPdY] = from_y;
  }
}

/// Generic three-state (Gotoh) profile DP over column indices.
///
/// `scorer(ca, cb)` returns the match score of aligning column ca of A with
/// column cb of B; it is invoked row-major (ca outer, cb inner), so scorers
/// may cache per-row state. Gap penalties are scaled by the occupancy of the
/// column being consumed.
///
/// Memory: small problems keep a full traceback matrix; above
/// ProfileAlignOptions::max_trace_cells the pass checkpoints every ~sqrt(m)
/// rows and recomputes one row block at a time during traceback.
template <typename Scorer>
ProfileAlignResult profile_dp(std::size_t m, std::size_t n,
                              const Scorer& scorer,
                              std::span<const float> occ_a,
                              std::span<const float> occ_b,
                              const ProfileAlignOptions& opts) {
  constexpr float kNegInf = align::kNegInf;
  const float open = opts.gaps.open;
  const float ext = opts.gaps.extend;

  ProfileAlignResult out;
  if (detail::profile_dp_edge(m, n, occ_a, occ_b, opts, out)) return out;

  const std::size_t diff = m > n ? m - n : n - m;
  const bool banded = opts.band > 0;
  const std::size_t eff_band =
      banded ? std::max<std::size_t>(opts.band, 1) + diff : n;
  auto j_lo = [&](std::size_t i) -> std::size_t {
    if (!banded) return 0;
    const auto center = static_cast<std::size_t>(
        static_cast<double>(i) * static_cast<double>(n) /
        static_cast<double>(m));
    return center > eff_band ? center - eff_band : 0;
  };
  auto j_hi = [&](std::size_t i) -> std::size_t {
    if (!banded) return n;
    const auto center = static_cast<std::size_t>(
        static_cast<double>(i) * static_cast<double>(n) /
        static_cast<double>(m));
    return std::min(n, center + eff_band);
  };

  std::vector<float> prev_m(n + 1, kNegInf), prev_x(n + 1, kNegInf),
      prev_y(n + 1, kNegInf);
  std::vector<float> cur_m(n + 1, kNegInf), cur_x(n + 1, kNegInf),
      cur_y(n + 1, kNegInf);

  // Row-0 boundary: a leading gap run in A.
  prev_m[0] = 0.0F;
  {
    float acc = 0.0F;
    for (std::size_t j = 1; j <= j_hi(0); ++j) {
      acc -= (j == 1 ? open : ext) * occ_b[j - 1];
      prev_x[j] = acc;
    }
  }

  const std::size_t budget =
      opts.max_trace_cells != 0 ? opts.max_trace_cells
                                : align::engine::kDefaultTraceCells;
  const bool full_trace = (m + 1) * (n + 1) <= budget;

  // Checkpoint state (only allocated on the checkpointed path): every K-th
  // row of (M, X, Y) plus the accumulated column-0 gap score. Blocks are
  // recomputed row-major with trace nibbles; the minimum K of 16 trades
  // checkpoint memory for less block recompute.
  const std::size_t ckpt_k = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(m)))),
      16, 4096);
  util::Matrix<float> ck_m, ck_x, ck_y;
  std::vector<float> ck_yborder;
  util::Matrix<ProfileDpCell> trace;
  if (full_trace) {
    trace = util::Matrix<ProfileDpCell>(m + 1, n + 1);
    for (std::size_t j = 1; j <= j_hi(0); ++j)
      trace(0, j).came_from[kPdX] = kPdX;
  } else {
    const std::size_t rows = m / ckpt_k + 1;
    ck_m = util::Matrix<float>(rows, n + 1, kNegInf);
    ck_x = util::Matrix<float>(rows, n + 1, kNegInf);
    ck_y = util::Matrix<float>(rows, n + 1, kNegInf);
    ck_yborder.assign(rows, 0.0F);
    for (std::size_t j = 0; j <= n; ++j) {
      ck_m(0, j) = prev_m[j];
      ck_x(0, j) = prev_x[j];
      ck_y(0, j) = prev_y[j];
    }
  }

  float y_border = 0.0F;
  for (std::size_t i = 1; i <= m; ++i) {
    const std::size_t lo = j_lo(i);
    const std::size_t hi = j_hi(i);
    if (banded) {
      std::fill(cur_m.begin(), cur_m.end(), kNegInf);
      std::fill(cur_x.begin(), cur_x.end(), kNegInf);
      std::fill(cur_y.begin(), cur_y.end(), kNegInf);
    }
    cur_m[0] = kNegInf;
    cur_x[0] = kNegInf;
    y_border -= (i == 1 ? open : ext) * occ_a[i - 1];
    cur_y[0] = lo == 0 ? y_border : kNegInf;

    if (const std::size_t js = std::max<std::size_t>(lo, 1); js <= hi)
      scorer_prepare_row(scorer, i - 1, js - 1, hi - 1);
    if (full_trace) {
      if (lo == 0) trace(i, 0).came_from[kPdY] = kPdY;
      profile_dp_row<true>(i, lo, hi, scorer, occ_a, occ_b, open, ext,
                           prev_m.data(), prev_x.data(), prev_y.data(),
                           cur_m.data(), cur_x.data(), cur_y.data(),
                           &trace(i, 0));
    } else {
      profile_dp_row<false>(i, lo, hi, scorer, occ_a, occ_b, open, ext,
                            prev_m.data(), prev_x.data(), prev_y.data(),
                            cur_m.data(), cur_x.data(), cur_y.data(), nullptr);
      if (i % ckpt_k == 0) {
        const std::size_t r = i / ckpt_k;
        for (std::size_t j = 0; j <= n; ++j) {
          ck_m(r, j) = cur_m[j];
          ck_x(r, j) = cur_x[j];
          ck_y(r, j) = cur_y[j];
        }
        ck_yborder[r] = y_border;
      }
    }
    std::swap(prev_m, cur_m);
    std::swap(prev_x, cur_x);
    std::swap(prev_y, cur_y);
  }

  std::uint8_t state = kPdM;
  float best = prev_m[n];
  if (prev_x[n] > best) {
    best = prev_x[n];
    state = kPdX;
  }
  if (prev_y[n] > best) {
    best = prev_y[n];
    state = kPdY;
  }
  out.score = best;

  // Traceback. The checkpointed path recomputes one block of rows
  // (r0, top] with trace nibbles at a time, seeded from checkpoint row r0.
  util::Matrix<ProfileDpCell> blk;
  std::size_t blk_r0 = 0;
  bool blk_valid = false;
  auto load_block = [&](std::size_t top, std::size_t jcap) {
    blk_r0 = (top - 1) / ckpt_k * ckpt_k;
    const std::size_t r = blk_r0 / ckpt_k;
    if (blk.rows() == 0) blk = util::Matrix<ProfileDpCell>(ckpt_k + 1, n + 1);
    for (std::size_t j = 0; j <= jcap; ++j) {
      prev_m[j] = ck_m(r, j);
      prev_x[j] = ck_x(r, j);
      prev_y[j] = ck_y(r, j);
    }
    float yb = ck_yborder[r];
    for (std::size_t i = blk_r0 + 1; i <= top; ++i) {
      const std::size_t lo = j_lo(i);
      const std::size_t hi = std::min(j_hi(i), jcap);
      std::fill(cur_m.begin(), cur_m.begin() + static_cast<std::ptrdiff_t>(
                                                   jcap + 1), kNegInf);
      std::fill(cur_x.begin(), cur_x.begin() + static_cast<std::ptrdiff_t>(
                                                   jcap + 1), kNegInf);
      std::fill(cur_y.begin(), cur_y.begin() + static_cast<std::ptrdiff_t>(
                                                   jcap + 1), kNegInf);
      yb -= (i == 1 ? open : ext) * occ_a[i - 1];
      cur_y[0] = lo == 0 ? yb : kNegInf;
      ProfileDpCell* trow = &blk(i - blk_r0, 0);
      if (lo == 0) trow[0].came_from[kPdY] = kPdY;
      if (const std::size_t js = std::max<std::size_t>(lo, 1); js <= hi)
        scorer_prepare_row(scorer, i - 1, js - 1, hi - 1);
      profile_dp_row<true>(i, lo, hi, scorer, occ_a, occ_b, open, ext,
                           prev_m.data(), prev_x.data(), prev_y.data(),
                           cur_m.data(), cur_x.data(), cur_y.data(), trow);
      std::swap(prev_m, cur_m);
      std::swap(prev_x, cur_x);
      std::swap(prev_y, cur_y);
    }
    blk_valid = true;
  };

  auto came_from_at = [&](std::size_t i, std::size_t j) -> std::uint8_t {
    if (full_trace) return trace(i, j).came_from[state];
    // Boundary cells mirror the full-trace matrix's preset entries.
    if (i == 0) return state == kPdX ? kPdX : kPdM;
    if (j == 0) return state == kPdY && j_lo(i) == 0 ? kPdY : kPdM;
    if (!blk_valid || i <= blk_r0) load_block(i, j);
    return blk(i - blk_r0, j).came_from[state];
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

/// The row-major DP on align_profiles' own scorer and occupancies.
inline ProfileAlignResult profile_dp(const detail::PspProblem& p,
                                     const ProfileAlignOptions& opts) {
  return profile_dp(p.occ_a.size(), p.occ_b.size(), PspRowMajorScorer(p),
                    p.occ_a, p.occ_b, opts);
}

}  // namespace salign::msa::reference
