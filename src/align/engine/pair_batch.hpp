#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "align/engine/engine.hpp"

namespace salign::align::engine {

/// Inter-pair batched int8 global aligner: one PAIR per SIMD lane.
///
/// The striped per-pair tiers lay ONE query across the lanes, which starves
/// the vector unit when sequences are short (a 60-residue query fills 4 of
/// 16 int8 lanes' worth of stripe depth and pays the cross-lane carry scan
/// regardless). In the short-read regime of the distance stage — thousands
/// of tiny pairwise alignments, the workload Pyro-Align batches — the
/// classic alternative wins: 16 independent pairwise DPs advance in
/// lock-step, lane l holding pair l's cell (i, j). There is no cross-lane
/// dependency at all, and because eligible pairs are short, the kernel
/// simply stores EVERY H/E/F column (a few hundred KB), making the
/// traceback a pure table walk with no recompute.
///
/// Exactness contract: same as the striped tiers. Lanes whose H touched a
/// rail, or whose stored E/F sat on the floor (traceback reads them), are
/// reported not-ok and must retake the per-pair ladder; ok lanes are
/// bit-identical to engine::reference::global_align in score, ops and
/// tie-breaks. Group geometry runs to the longest member's (M, N), so
/// callers should length-sort before grouping — the padded overhang only
/// costs spurious saturation flags, never wrong results.
class PairBatch {
 public:
  struct Pair {
    std::span<const std::uint8_t> a, b;
  };

  PairBatch(const bio::SubstitutionMatrix& matrix, bio::GapPenalties gaps);
  ~PairBatch();
  PairBatch(PairBatch&&) noexcept;
  PairBatch& operator=(PairBatch&&) noexcept;
  PairBatch(const PairBatch&) = delete;
  PairBatch& operator=(const PairBatch&) = delete;

  /// Pairs per kernel pass: the int8 lane count of the build (1 in scalar
  /// builds, which still exercise the full code path).
  [[nodiscard]] std::size_t lanes() const;

  /// Largest length (either side) of a batch-eligible pair: the int8
  /// boundary-rail bound of the (matrix, gaps) combination, capped so the
  /// full column store stays small. 0 when the matrix/gaps fail the integer
  /// gate entirely — batching is then unavailable.
  [[nodiscard]] std::size_t max_len() const;

  /// Aligns pairs[0 .. min(lanes(), pairs.size())) in one pass. For each
  /// pair i: ok[i] == true and out[i] holds the reference-identical
  /// alignment, or ok[i] == false (lane saturated a rail) and out[i] is
  /// untouched. Both sides of every pair must be non-empty and no longer
  /// than max_len(). Not thread-safe (reuses the column store).
  void align(std::span<const Pair> pairs, PairwiseAlignment* out, bool* ok);

  /// Bytes of the reusable column store (workspace accounting).
  [[nodiscard]] std::size_t workspace_bytes() const;

  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace salign::align::engine
