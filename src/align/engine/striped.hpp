#pragma once

// Internal striped (Farrar) integer score kernels of the alignment engine.
// Only batch.cpp and the tests should include this; everything else goes
// through align/engine/batch.hpp or align/engine/engine.hpp.
//
// Layout: the query (the profile-side sequence, length m) is split into
// VI::kLanes segments of length t = ceil(m / lanes); lane l of stripe
// vector k holds query row l*t + k + 1. The DP then walks the other
// sequence column by column with the three Gotoh states in combined form
//   H = max(M, X, Y),  E = X (gap in query's partner),  F = Y,
// which is exactly equal to the engine's 3-state reference recurrence
// whenever open >= extend (see striped.cpp for the proof sketch). All
// arithmetic is integer and therefore exact; whenever a cell would leave
// the representable "rail" range the run is flagged as saturated and the
// caller promotes to the next wider tier.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "align/engine/simd_int.hpp"
#include "align/pairwise.hpp"
#include "bio/substitution_matrix.hpp"

namespace salign::align::engine::detail {

/// Facts about one (matrix, gaps) pair that decide whether the integer
/// tiers are usable at all, scanned once per profile build.
struct IntGate {
  bool integral = false;  ///< every sub score and both penalties are ints,
                          ///< with open >= extend >= 1
  int open = 0;
  int ext = 0;
  int max_pos = 1;  ///< largest positive substitution score (>= 1)
  int max_neg = 1;  ///< largest |negative| substitution score (>= 1)
};

[[nodiscard]] IntGate scan_int_gate(const bio::SubstitutionMatrix& matrix,
                                    bio::GapPenalties gaps);

/// Logical saturation rails of one integer element type under a gate: the
/// storage limits pulled in by the largest single-step delta, so no
/// arithmetic op can leave the storage range (see striped.cpp). The ONE
/// definition of the rails, which StripedProfile derives from.
struct IntRails {
  int floor_l = 0;  ///< floor rail; doubles as the -inf sentinel
  int ceil_l = 0;
  bool usable = false;  ///< rails leave an operating range around 0
};

template <typename VI>
[[nodiscard]] inline IntRails int_rails(const IntGate& gate) {
  using Lim = std::numeric_limits<typename VI::Elem>;
  IntRails r;
  if (!gate.integral) return r;
  const int max_neg_step = std::max({gate.open + 1, gate.ext, gate.max_neg});
  const int lo = static_cast<int>(Lim::min()) - VI::kBias;
  const int hi = static_cast<int>(Lim::max()) - VI::kBias;
  r.floor_l = lo + max_neg_step;
  r.ceil_l = hi - gate.max_pos;
  r.usable = r.floor_l < -1 && r.ceil_l > 1;
  return r;
}

/// Deepest boundary-adjacent magnitude a pass with counterpart lengths up
/// to `max_len` materializes exactly: a boundary gap run of max_len
/// extends, re-opened once (the E / lazy-F seed), with one worst-case
/// substitution of slack so near-boundary interior cells do not routinely
/// brush the rail. Viable iff <= -floor_l - 1.
[[nodiscard]] inline std::int64_t boundary_need(const IntGate& gate,
                                                std::size_t max_len) {
  return static_cast<std::int64_t>(gate.open) +
         std::max<std::int64_t>(gate.open, gate.max_neg) +
         static_cast<std::int64_t>(gate.ext) *
             static_cast<std::int64_t>(max_len);
}

/// Lane-interleaved (striped) integer query profile plus the tier's rail
/// bounds. `viable()` is false when the (query, matrix, gaps) combination
/// cannot run in this element type at all; `viable_for(n)` additionally
/// checks the counterpart-length-dependent boundary range.
template <typename VI>
class StripedProfile {
 public:
  using Elem = typename VI::Elem;

  StripedProfile() = default;
  StripedProfile(std::span<const std::uint8_t> query,
                 const bio::SubstitutionMatrix& matrix, const IntGate& gate);

  [[nodiscard]] bool viable() const { return viable_; }
  [[nodiscard]] bool viable_for(std::size_t other_len) const;

  [[nodiscard]] std::size_t query_len() const { return m_; }
  [[nodiscard]] std::size_t segs() const { return segs_; }
  [[nodiscard]] const Elem* row(std::uint8_t c) const {
    return data_.data() +
           static_cast<std::size_t>(c) * segs_ *
               static_cast<std::size_t>(VI::kLanes);
  }
  [[nodiscard]] const IntGate& gate() const { return gate_; }
  /// Rail bounds in LOGICAL values (the trait's bias maps them onto the
  /// storage range).
  [[nodiscard]] int floor_rail() const { return floor_; }
  [[nodiscard]] int ceil_rail() const { return ceil_; }

  /// Bytes held by the striped score table (workspace accounting).
  [[nodiscard]] std::size_t bytes() const {
    return data_.capacity() * sizeof(Elem);
  }

 private:
  static bool viable_for_impl(std::size_t max_len, const IntGate& gate,
                              std::int64_t floor64);

  std::size_t m_ = 0;
  std::size_t segs_ = 0;
  IntGate gate_;
  int floor_ = 0;
  int ceil_ = 0;
  bool viable_ = false;
  std::vector<Elem> data_;
};

/// Reusable per-thread DP state of the striped kernels: two H columns and
/// the E column, all in striped slot order.
template <typename VI>
struct StripedWorkspace {
  std::vector<typename VI::Elem> h_a, h_b, e;

  void ensure(std::size_t slots) {
    if (h_a.size() < slots) {
      h_a.resize(slots);
      h_b.resize(slots);
      e.resize(slots);
    }
  }
  [[nodiscard]] std::size_t bytes() const {
    return (h_a.capacity() + h_b.capacity() + e.capacity()) *
           sizeof(typename VI::Elem);
  }
};

/// Score-only striped Gotoh pass of `profile`'s query against `other`.
/// Returns false when any cell touched a rail (the score is then invalid
/// and the caller must promote); on true, *score is bit-identical to the
/// float reference kernel's global score. Preconditions: profile.viable(),
/// profile.viable_for(other.size()), both sequences non-empty.
template <typename VI>
[[nodiscard]] bool striped_score(const StripedProfile<VI>& profile,
                                 std::span<const std::uint8_t> other,
                                 StripedWorkspace<VI>& ws, float* score);

/// Reusable state of the striped full-alignment kernel: the score kernel's
/// DP columns plus column checkpoints (every ~sqrt(n)-th column of final H
/// and raw E), the traceback block store (final H/E/F of one checkpoint-
/// wide column range), and the padded-lane guard of the E/F rail checks.
/// Like StripedWorkspace: one per thread, grown on demand, never shrunk.
template <typename VI>
struct StripedAlignWorkspace {
  using Elem = typename VI::Elem;

  StripedWorkspace<VI> cols;
  /// Per-slot rail-check guard: encode(floor) in slots holding real query
  /// rows, encode(floor + 1) in padded slots — max()ing a tracked value
  /// with it hides the padded lanes' habitual floor values from the E/F
  /// exactness checks without masking real clamps.
  std::vector<Elem> pad_guard;
  std::size_t guard_m = 0, guard_t = 0;
  std::vector<Elem> ckpt_h, ckpt_e;          ///< checkpoint columns
  std::vector<Elem> blk_h0;                  ///< block's left-edge H column
  std::vector<Elem> blk_h, blk_e, blk_f;     ///< block: final H/E/F columns

  [[nodiscard]] std::size_t bytes() const {
    return cols.bytes() +
           (pad_guard.capacity() + ckpt_h.capacity() + ckpt_e.capacity() +
            blk_h0.capacity() + blk_h.capacity() + blk_e.capacity() +
            blk_f.capacity()) *
               sizeof(Elem);
  }
};

/// Full global alignment through the striped integer kernel: a score-pass
/// forward sweep that checkpoints every ~sqrt(n)-th column, then a
/// traceback that recomputes one checkpoint-wide block of final H/E/F
/// columns at a time and re-derives the reference kernel's came_from
/// decisions from the exact cell values (int_trace.hpp) — no O(m·n) state,
/// O((m + n) * sqrt(n)) like the float wavefront's checkpointed traceback.
///
/// Returns false when the run must promote to the next tier: any H cell
/// touched a rail (as in striped_score), or any E/F cell of a recomputed
/// block sat on the floor rail. The latter is the ALIGNMENT-tier rail: a
/// floor-clamped E/F can only change a score by winning a cell (which drags
/// H onto the rail and is caught by the H check), but the traceback READS
/// E/F values directly, so a clamp that never won a cell still invalidates
/// the path re-derivation. Score-only passes deliberately skip that check;
/// full alignments cannot. On true, *out (score, ops, tie-breaks) is
/// bit-identical to engine::reference::global_align. Preconditions as
/// striped_score.
template <typename VI>
[[nodiscard]] bool striped_align(const StripedProfile<VI>& profile,
                                 std::span<const std::uint8_t> other,
                                 StripedAlignWorkspace<VI>& ws,
                                 PairwiseAlignment* out,
                                 bool* trace_promoted = nullptr);

extern template class StripedProfile<VecI8>;
extern template class StripedProfile<VecI16>;
extern template bool striped_score<VecI8>(const StripedProfile<VecI8>&,
                                          std::span<const std::uint8_t>,
                                          StripedWorkspace<VecI8>&, float*);
extern template bool striped_score<VecI16>(const StripedProfile<VecI16>&,
                                           std::span<const std::uint8_t>,
                                           StripedWorkspace<VecI16>&, float*);
extern template bool striped_align<VecI8>(const StripedProfile<VecI8>&,
                                          std::span<const std::uint8_t>,
                                          StripedAlignWorkspace<VecI8>&,
                                          PairwiseAlignment*, bool*);
extern template bool striped_align<VecI16>(const StripedProfile<VecI16>&,
                                           std::span<const std::uint8_t>,
                                           StripedAlignWorkspace<VecI16>&,
                                           PairwiseAlignment*, bool*);

}  // namespace salign::align::engine::detail
