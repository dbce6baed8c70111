#include "align/engine/engine.hpp"

#include <algorithm>

#include "align/engine/batch.hpp"
#include "align/engine/simd.hpp"
#include "align/engine/wavefront.hpp"

namespace salign::align::engine {

namespace {

/// Shared degenerate-input handling for the global aligners: aligning against
/// an empty sequence is a single gap run.
bool empty_edge_global(std::size_t m, std::size_t n, bio::GapPenalties gaps,
                       PairwiseAlignment& out) {
  if (m != 0 && n != 0) return false;
  out.ops.assign(std::max(m, n), m == 0 ? EditOp::GapInA : EditOp::GapInB);
  if (!out.ops.empty())
    out.score =
        -(gaps.open + gaps.extend * static_cast<float>(out.ops.size() - 1));
  return true;
}

/// Read once per process: whether the CPU (and the OS, which must save
/// the ymm registers) runs AVX2.
bool cpu_has_avx2() {
#ifdef SALIGN_ENGINE_AVX2
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

}  // namespace

const char* kernel_name() { return kernel_lanes() > 1 ? "vector" : "scalar"; }

int kernel_lanes() { return cpu_has_avx2() ? 8 : VecF::kLanes; }

bool kernel_lanes_supported(int lanes) {
  return lanes == VecF::kLanes || (lanes == 8 && cpu_has_avx2());
}

const char* tier_name(ScoreTier tier) {
  switch (tier) {
    case ScoreTier::kAuto: return "auto";
    case ScoreTier::kInt8: return "int8";
    case ScoreTier::kInt16: return "int16";
    default: return "float";
  }
}

float global_score(std::span<const std::uint8_t> a,
                   std::span<const std::uint8_t> b,
                   const bio::SubstitutionMatrix& matrix,
                   bio::GapPenalties gaps, std::size_t* workspace_bytes,
                   ScoreTier first_tier) {
  PairwiseAlignment edge;
  if (empty_edge_global(a.size(), b.size(), gaps, edge)) {
    if (workspace_bytes != nullptr) *workspace_bytes = 0;
    return edge.score;
  }
  ScoreBatch batch(a, matrix, gaps, first_tier);
  const float score = batch.score(b);
  if (workspace_bytes != nullptr) *workspace_bytes = batch.workspace_bytes();
  return score;
}

PairwiseAlignment global_align(std::span<const std::uint8_t> a,
                               std::span<const std::uint8_t> b,
                               const bio::SubstitutionMatrix& matrix,
                               bio::GapPenalties gaps, ScoreTier first_tier) {
  // One-shot calls run the full AlignBatch tier ladder too: the striped
  // integer traceback tiers are bit-identical to the float kernels, and the
  // O(alphabet * m) profile build is amortized by the O(m * n) DP. Callers
  // aligning one query against many should build the AlignBatch themselves.
  PairwiseAlignment out;
  if (empty_edge_global(a.size(), b.size(), gaps, out)) return out;
  AlignBatch batch(a, matrix, gaps, first_tier);
  return batch.align(b);
}

LocalAlignment local_align(std::span<const std::uint8_t> a,
                           std::span<const std::uint8_t> b,
                           const bio::SubstitutionMatrix& matrix,
                           bio::GapPenalties gaps) {
  if (a.empty() || b.empty()) return {};
  return detail::local_align_impl(a, b, matrix, gaps);
}

}  // namespace salign::align::engine
