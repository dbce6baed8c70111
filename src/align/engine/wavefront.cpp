// Pairwise drivers of the wavefront kernel (wavefront.hpp): constant gaps,
// score rows read straight from a QueryProfile of B, and the reference
// kernels' boundary values.

#include "align/engine/wavefront.hpp"

#include "align/engine/query_profile.hpp"

namespace salign::align::engine::detail {

namespace {

using wavefront::Mode;

static_assert(wavefront::kScorePad <= QueryProfile::kPad,
              "score-tile loads must stay inside the query profile");

/// One pairwise problem: B's query profile, one score-row pointer per row
/// of A (index 1..m, then kMaxW - 1 spare rows for the last score tile; a
/// block's rows are a window of them), and the reference's boundaries —
/// global: row 0 and column 0 are the origin-anchored gap runs
/// -(open + ext * (k - 1)); local: unreachable.
struct PairProblem {
  QueryProfile qp;
  std::vector<const float*> score_rows;
  std::vector<float> seed_m, seed_x, seed_y, col0;
  wavefront::ConstGaps gaps;

  PairProblem(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
              const bio::SubstitutionMatrix& matrix, bio::GapPenalties g,
              Mode mode)
      : qp(b, matrix), gaps{g.open, g.extend} {
    const std::size_t m = a.size();
    const std::size_t n = b.size();
    score_rows.assign(m + wavefront::kMaxW, qp.row(0));
    for (std::size_t i = 1; i <= m; ++i) score_rows[i] = qp.row(a[i - 1]);
    seed_m.assign(n + 1, kNegInf);
    seed_x.assign(n + 1, kNegInf);
    seed_y.assign(n + 1, kNegInf);
    col0.assign(m + 1, kNegInf);
    if (mode == Mode::kLocal) return;
    seed_m[0] = 0.0F;
    for (std::size_t j = 1; j <= n; ++j)
      seed_x[j] = -(g.open + g.extend * static_cast<float>(j - 1));
    for (std::size_t i = 1; i <= m; ++i)
      col0[i] = -(g.open + g.extend * static_cast<float>(i - 1));
  }

  [[nodiscard]] wavefront::RowPointers block(std::size_t r0, std::size_t,
                                             std::size_t) const {
    return {score_rows.data() + r0};
  }
  [[nodiscard]] wavefront::RowView seed() const {
    return {seed_m.data(), seed_x.data(), seed_y.data()};
  }
  [[nodiscard]] std::size_t bytes() const {
    return qp.bytes() + score_rows.capacity() * sizeof(const float*) +
           (seed_m.capacity() + seed_x.capacity() + seed_y.capacity() +
            col0.capacity()) *
               sizeof(float);
  }
};

template <Mode kMode>
LocalAlignment align_pair(std::span<const std::uint8_t> a,
                          std::span<const std::uint8_t> b,
                          const bio::SubstitutionMatrix& matrix,
                          bio::GapPenalties gaps, int lanes) {
  PairProblem p(a, b, matrix, gaps, kMode);
  return wavefront::align<kMode>(lanes, a.size(), b.size(), p.gaps, p,
                                 p.seed(), p.col0.data(), kDefaultTraceCells);
}

}  // namespace

float global_score_impl(std::span<const std::uint8_t> a,
                        std::span<const std::uint8_t> b,
                        const bio::SubstitutionMatrix& matrix,
                        bio::GapPenalties gaps, std::size_t* workspace_bytes,
                        int lanes) {
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  const PairProblem p(a, b, matrix, gaps, Mode::kGlobal);
  wavefront::StateRow cur;
  wavefront::StateRow next;
  cur.assign(p.seed(), n + 1);
  wavefront::Workspace ws;
  wavefront::with_lanes(lanes, [&](auto width) {
    using V = typename decltype(width)::type;
    wavefront::sweep<V, Mode::kGlobal>(p.gaps, p, 0, m, n, p.col0.data(), cur,
                                       next, ws, nullptr, nullptr,
                                       [](std::size_t) {});
  });
  if (workspace_bytes != nullptr)
    *workspace_bytes = p.bytes() + ws.bytes() + cur.bytes() + next.bytes();
  return std::max({cur.m[n], cur.x[n], cur.y[n]});
}

PairwiseAlignment global_align_impl(std::span<const std::uint8_t> a,
                                    std::span<const std::uint8_t> b,
                                    const bio::SubstitutionMatrix& matrix,
                                    bio::GapPenalties gaps, int lanes) {
  LocalAlignment out = align_pair<Mode::kGlobal>(a, b, matrix, gaps, lanes);
  return out;
}

LocalAlignment local_align_impl(std::span<const std::uint8_t> a,
                                std::span<const std::uint8_t> b,
                                const bio::SubstitutionMatrix& matrix,
                                bio::GapPenalties gaps, int lanes) {
  return align_pair<Mode::kLocal>(a, b, matrix, gaps, lanes);
}

}  // namespace salign::align::engine::detail
