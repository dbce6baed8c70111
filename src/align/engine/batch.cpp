#include "align/engine/batch.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "align/engine/simd.hpp"
#include "align/engine/simd_int.hpp"
#include "align/engine/striped.hpp"
#include "align/engine/wavefront.hpp"

namespace salign::align::engine {

namespace {

/// Degenerate pairs short-circuit before any tier: aligning against an
/// empty sequence is a single gap run (same formula as engine.cpp's
/// empty_edge_global).
float empty_edge_score(std::size_t m, std::size_t n, bio::GapPenalties gaps) {
  const std::size_t len = std::max(m, n);
  if (len == 0) return 0.0F;
  return -(gaps.open + gaps.extend * static_cast<float>(len - 1));
}

/// Aligning against an empty sequence is a single gap run; reproduce the
/// reference kernels' degenerate outputs exactly (engine.cpp does the same
/// for the float path).
PairwiseAlignment empty_edge_align(std::size_t m, std::size_t n,
                                   bio::GapPenalties gaps) {
  PairwiseAlignment out;
  out.ops.assign(std::max(m, n), m == 0 ? EditOp::GapInA : EditOp::GapInB);
  if (!out.ops.empty())
    out.score =
        -(gaps.open + gaps.extend * static_cast<float>(out.ops.size() - 1));
  return out;
}

}  // namespace

struct ScoreBatch::Impl {
  std::vector<std::uint8_t> query;
  const bio::SubstitutionMatrix* matrix = nullptr;
  bio::GapPenalties gaps;
  ScoreTier first_tier = ScoreTier::kAuto;
  detail::IntGate gate;
  Stats stats;

  detail::StripedProfile<VecI8> p8;
  detail::StripedProfile<VecI16> p16;
  bool p16_built = false;
  detail::StripedWorkspace<VecI8> ws8;
  detail::StripedWorkspace<VecI16> ws16;
  std::size_t float_ws = 0;

  void build() {
    if (first_tier == ScoreTier::kFloat) return;  // gate never consulted
    gate = detail::scan_int_gate(*matrix, gaps);
    if (first_tier == ScoreTier::kAuto || first_tier == ScoreTier::kInt8)
      p8 = detail::StripedProfile<VecI8>(query, *matrix, gate);
  }

  float score(std::span<const std::uint8_t> other) {
    if (query.empty() || other.empty())
      return empty_edge_score(query.size(), other.size(), gaps);
    float s = 0.0F;
    if (first_tier <= ScoreTier::kInt8 && p8.viable() &&
        p8.viable_for(other.size())) {
      ++stats.int8_runs;
      if (detail::striped_score(p8, other, ws8, &s)) return s;
      ++stats.promotions;
    }
    if (first_tier <= ScoreTier::kInt16) {
      if (!p16_built) {
        p16 = detail::StripedProfile<VecI16>(query, *matrix, gate);
        p16_built = true;
      }
      if (p16.viable() && p16.viable_for(other.size())) {
        ++stats.int16_runs;
        if (detail::striped_score(p16, other, ws16, &s)) return s;
        ++stats.promotions;
      }
    }
    ++stats.float_runs;
    return detail::global_score_impl(query, other, *matrix, gaps,
                                           &float_ws);
  }

  [[nodiscard]] std::size_t bytes() const {
    return p8.bytes() + p16.bytes() + ws8.bytes() + ws16.bytes() + float_ws +
           query.capacity();
  }
};

// ---------------------------------------------------------------------------
// AlignBatch: full alignments through the same ladder
// ---------------------------------------------------------------------------

AlignBatch::Stats& AlignBatch::Stats::operator+=(const Stats& o) {
  int8_runs += o.int8_runs;
  int16_runs += o.int16_runs;
  float_runs += o.float_runs;
  promotions += o.promotions;
  trace_promotions += o.trace_promotions;
  return *this;
}

struct AlignBatch::Impl {
  std::vector<std::uint8_t> query;
  const bio::SubstitutionMatrix* matrix = nullptr;
  bio::GapPenalties gaps;
  ScoreTier first_tier = ScoreTier::kAuto;
  detail::IntGate gate;
  Stats stats;

  detail::StripedProfile<VecI8> p8;
  detail::StripedProfile<VecI16> p16;
  bool p16_built = false;
  detail::StripedAlignWorkspace<VecI8> ws8;
  detail::StripedAlignWorkspace<VecI16> ws16;

  void build() {
    if (first_tier == ScoreTier::kFloat) return;  // gate never consulted
    gate = detail::scan_int_gate(*matrix, gaps);
    if (first_tier == ScoreTier::kAuto || first_tier == ScoreTier::kInt8)
      p8 = detail::StripedProfile<VecI8>(query, *matrix, gate);
  }

  PairwiseAlignment align(std::span<const std::uint8_t> other) {
    if (query.empty() || other.empty())
      return empty_edge_align(query.size(), other.size(), gaps);
    PairwiseAlignment out;
    bool trace = false;
    if (first_tier <= ScoreTier::kInt8 && p8.viable() &&
        p8.viable_for(other.size())) {
      ++stats.int8_runs;
      if (detail::striped_align(p8, other, ws8, &out, &trace)) return out;
      ++stats.promotions;
      if (trace) ++stats.trace_promotions;
    }
    if (first_tier <= ScoreTier::kInt16) {
      if (!p16_built) {
        p16 = detail::StripedProfile<VecI16>(query, *matrix, gate);
        p16_built = true;
      }
      if (p16.viable() && p16.viable_for(other.size())) {
        ++stats.int16_runs;
        if (detail::striped_align(p16, other, ws16, &out, &trace)) return out;
        ++stats.promotions;
        if (trace) ++stats.trace_promotions;
      }
    }
    ++stats.float_runs;
    return detail::global_align_impl(query, other, *matrix, gaps);
  }

  [[nodiscard]] std::size_t bytes() const {
    return p8.bytes() + p16.bytes() + ws8.bytes() + ws16.bytes() +
           query.capacity();
  }
};

AlignBatch::AlignBatch(std::span<const std::uint8_t> query,
                       const bio::SubstitutionMatrix& matrix,
                       bio::GapPenalties gaps, ScoreTier first_tier)
    : impl_(std::make_unique<Impl>()) {
  impl_->query.assign(query.begin(), query.end());
  impl_->matrix = &matrix;
  impl_->gaps = gaps;
  impl_->first_tier = first_tier;
  impl_->build();
}

AlignBatch::~AlignBatch() = default;
AlignBatch::AlignBatch(AlignBatch&&) noexcept = default;
AlignBatch& AlignBatch::operator=(AlignBatch&&) noexcept = default;

PairwiseAlignment AlignBatch::align(std::span<const std::uint8_t> other) {
  return impl_->align(other);
}

const AlignBatch::Stats& AlignBatch::stats() const { return impl_->stats; }

std::size_t AlignBatch::workspace_bytes() const { return impl_->bytes(); }

ScoreBatch::ScoreBatch(std::span<const std::uint8_t> query,
                       const bio::SubstitutionMatrix& matrix,
                       bio::GapPenalties gaps, ScoreTier first_tier)
    : impl_(std::make_unique<Impl>()) {
  impl_->query.assign(query.begin(), query.end());
  impl_->matrix = &matrix;
  impl_->gaps = gaps;
  impl_->first_tier = first_tier;
  impl_->build();
}

ScoreBatch::~ScoreBatch() = default;
ScoreBatch::ScoreBatch(ScoreBatch&&) noexcept = default;
ScoreBatch& ScoreBatch::operator=(ScoreBatch&&) noexcept = default;

float ScoreBatch::score(std::span<const std::uint8_t> other) {
  return impl_->score(other);
}

const ScoreBatch::Stats& ScoreBatch::stats() const { return impl_->stats; }

std::size_t ScoreBatch::workspace_bytes() const { return impl_->bytes(); }

}  // namespace salign::align::engine
