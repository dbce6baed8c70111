// The occupancy-scaled three-state Gotoh recurrence of profile-profile
// alignment, run on the engine's wavefront kernel
// (align/engine/wavefront.hpp).
//
// The occupancy-scaled gap penalties rule out the closed-form carry scans
// the striped integer kernels use (float rounding would differ from the
// sequential subtraction chain), so the profile DP runs the float
// wavefront with ScaledGaps: the penalties precomputed as gap vectors, and
// MAFFT's band. Scores come from dense rows the row source writes
// (RowScorer::fill_row: PSP saxpy sweeps, or T-Coffee's scaled consistency
// matrix), materialized one row block (wavefront::kRowBlock rows) at a time
// — O(block * n) scratch, never O(m * n). The DP runs the kernel width the
// caller picks (`lanes`; by default the process's kernel_lanes()). Row 0
// and column 0 hold the accumulated occupancy-scaled leading-gap runs,
// exactly the row-major oracle's boundary values
// (tests/oracles/profile_dp.hpp), so scores, paths and tie-breaks are
// bit-identical to it (the oracle's `best > kNegInf / 2` clamp only ever
// fires on exact sentinels, where `best + sub` rounds back to the sentinel
// anyway). The randomized differential suites in
// tests/msa_parallel_test.cpp pin this for both row sources.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "align/engine/wavefront.hpp"
#include "msa/profile_align.hpp"

namespace salign::msa::detail {

namespace {

namespace wf = align::engine::wavefront;
constexpr float kNegInf = align::kNegInf;

/// Shared problem description: band geometry (the row-major oracle's
/// formulas, verbatim), the occupancy-scaled gap vectors, and the
/// accumulated column-0 / row-0 boundary runs.
struct Geometry {
  std::size_t m = 0, n = 0;
  std::vector<std::size_t> lo, hi;  // per row 0..m
  std::vector<float> open_a, ext_a, rev_open_b, rev_ext_b;  // see ScaledGaps
  std::vector<float> col0;  // column-0 Y run per row 0..m (kNegInf off band)
  std::vector<float> seed0_m, seed0_x, seed0_y;  // row-0 boundary

  Geometry(std::size_t m_, std::size_t n_, std::span<const float> occ_a,
           std::span<const float> occ_b, const ProfileAlignOptions& opts)
      : m(m_), n(n_) {
    const float open = opts.gaps.open;
    const float ext = opts.gaps.extend;
    const bool banded = opts.band > 0;
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
    open_a.assign(m + wf::kMaxW, 0.0F);
    ext_a.assign(m + wf::kMaxW, 0.0F);
    for (std::size_t i = 0; i < m; ++i) {
      open_a[i] = open * occ_a[i];
      ext_a[i] = ext * occ_a[i];
    }
    rev_open_b.assign(n + wf::kMaxW, 0.0F);
    rev_ext_b.assign(n + wf::kMaxW, 0.0F);
    for (std::size_t t = 0; t < n; ++t) {
      rev_open_b[t] = open * occ_b[n - 1 - t];
      rev_ext_b[t] = ext * occ_b[n - 1 - t];
    }
    col0.assign(m + 1, kNegInf);
    {
      float acc = 0.0F;
      for (std::size_t i = 1; i <= m; ++i) {
        acc -= (i == 1 ? open : ext) * occ_a[i - 1];
        if (lo[i] == 0) col0[i] = acc;
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

  [[nodiscard]] wf::ScaledGaps gaps() const {
    return {n,
            open_a.data(),
            ext_a.data(),
            rev_open_b.data(),
            rev_ext_b.data(),
            lo.data(),
            hi.data()};
  }
};

/// The wavefront's row source: dense scorer rows of one row block, local
/// row r (1-based, absolute row r0 + r) covering B columns cb in [0, n),
/// filled only on the row's in-band range. The block holds count rows
/// rounded up to the widest kernel width, with wf::kScorePad floats before
/// and after, so the kernel's tile loads stay inside it.
template <typename RowScorer>
struct ScoreBlock {
  const RowScorer& scorer;
  const Geometry& g;
  std::vector<float> buf;

  wf::RowBlock block(std::size_t r0, std::size_t count, std::size_t jcap) {
    const std::size_t tile_rows =
        (count + wf::kMaxW - 1) / wf::kMaxW * wf::kMaxW;
    buf.resize(tile_rows * g.n + 2 * wf::kScorePad);
    float* const base = buf.data() + wf::kScorePad;
    for (std::size_t r = 1; r <= count; ++r) {
      float* out = base + (r - 1) * g.n;
      const std::size_t i = r0 + r;
      const std::size_t js = std::max<std::size_t>(g.lo[i], 1);
      const std::size_t je = std::min(g.hi[i], jcap);
      if (js > je) continue;
      scorer.fill_row(i - 1, js - 1, je - js + 1, out + (js - 1));
    }
    return {base, g.n};
  }
};

}  // namespace

template <typename RowScorer>
ProfileAlignResult profile_dp_wavefront(std::size_t m, std::size_t n,
                                        const RowScorer& scorer,
                                        std::span<const float> occ_a,
                                        std::span<const float> occ_b,
                                        const ProfileAlignOptions& opts,
                                        int lanes) {
  ProfileAlignResult out;
  if (profile_dp_edge(m, n, occ_a, occ_b, opts, out)) return out;
  const Geometry g(m, n, occ_a, occ_b, opts);
  ScoreBlock<RowScorer> rows{scorer, g, {}};
  align::LocalAlignment res = wf::align<wf::Mode::kGlobal>(
      lanes, m, n, g.gaps(), rows,
      wf::RowView{g.seed0_m.data(), g.seed0_x.data(), g.seed0_y.data()},
      g.col0.data(),
      opts.max_trace_cells != 0 ? opts.max_trace_cells
                                : align::engine::kDefaultTraceCells);
  out.score = res.score;
  out.ops = std::move(res.ops);
  return out;
}

// The two row sources; no other instantiation exists.
template ProfileAlignResult profile_dp_wavefront<PspRowScorer>(
    std::size_t, std::size_t, const PspRowScorer&, std::span<const float>,
    std::span<const float>, const ProfileAlignOptions&, int);
template ProfileAlignResult profile_dp_wavefront<DenseRowScorer>(
    std::size_t, std::size_t, const DenseRowScorer&, std::span<const float>,
    std::span<const float>, const ProfileAlignOptions&, int);

}  // namespace salign::msa::detail
