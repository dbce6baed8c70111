#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "align/engine/engine.hpp"

namespace salign::align::engine {

/// One query sequence profiled once (striped int8 + int16 tables plus the
/// float fallback), scored against many counterparts — the unit of work of
/// a distance-matrix row. Building the profile is O(alphabet * m); each
/// score() is then a pure kernel pass, so the profile cost amortizes over
/// the whole row instead of being paid per pair as in global_score().
///
/// Scores are bit-identical to engine::reference::global_align on every
/// input: each call runs the adaptive tier ladder (see ScoreTier) and
/// promotes on saturation. Profiles and DP scratch are built lazily per
/// tier and reused across calls, which also makes score() NOT thread-safe —
/// use one ScoreBatch per thread (the align/distance.cpp drivers do).
class ScoreBatch {
 public:
  struct Stats {
    std::size_t int8_runs = 0;    ///< int8 kernel passes (incl. saturated)
    std::size_t int16_runs = 0;   ///< int16 kernel passes (incl. saturated)
    std::size_t float_runs = 0;   ///< float kernel passes
    std::size_t promotions = 0;   ///< runs that saturated and retried wider
  };

  ScoreBatch(std::span<const std::uint8_t> query,
             const bio::SubstitutionMatrix& matrix, bio::GapPenalties gaps,
             ScoreTier first_tier = ScoreTier::kAuto);
  ~ScoreBatch();
  ScoreBatch(ScoreBatch&&) noexcept;
  ScoreBatch& operator=(ScoreBatch&&) noexcept;
  ScoreBatch(const ScoreBatch&) = delete;
  ScoreBatch& operator=(const ScoreBatch&) = delete;

  /// Global-alignment score of the query vs `other`, bit-identical to the
  /// reference kernels. Not thread-safe (mutates the reusable workspace).
  [[nodiscard]] float score(std::span<const std::uint8_t> other);

  [[nodiscard]] const Stats& stats() const;

  /// Bytes currently held: striped profiles, striped DP columns, and the
  /// float tier's most recent per-call workspace. Linear in the query
  /// length and the longest counterpart — never O(m * n). Feeds the
  /// workspace accounting that the linear-memory tests pin.
  [[nodiscard]] std::size_t workspace_bytes() const;

  struct Impl;  // defined in batch.cpp (tier profiles + ladder state)

 private:
  std::unique_ptr<Impl> impl_;
};

/// One query sequence profiled once, FULL-aligned (score + traceback)
/// against many counterparts — the unit of work of an identity/Kimura
/// distance-matrix row. The full-alignment sibling of ScoreBatch: each
/// align() runs the striped integer tiers with the column-checkpointed
/// integer traceback (striped_align) through the same promotion ladder,
/// falling back to the float wavefront kernel (wavefront.hpp).
///
/// Results (score, ops, tie-breaks) are bit-identical to
/// engine::reference::global_align on every input. The alignment tiers
/// promote on a stricter rail than the score tiers — the traceback reads
/// E/F cell values directly, so a floor-clamped E/F promotes even when the
/// score would have been exact (see striped.hpp); Stats::trace_promotions
/// counts those late promotions separately. Like ScoreBatch, align() is NOT
/// thread-safe — one AlignBatch per thread.
class AlignBatch {
 public:
  struct Stats {
    std::size_t int8_runs = 0;   ///< int8 kernel passes (incl. saturated)
    std::size_t int16_runs = 0;  ///< int16 kernel passes (incl. saturated)
    std::size_t float_runs = 0;  ///< float kernel passes
    std::size_t promotions = 0;  ///< runs that saturated and retried wider
    /// Promotions raised during the traceback (a recomputed block found a
    /// floor-clamped E/F cell) rather than by the forward pass's H rails.
    std::size_t trace_promotions = 0;

    Stats& operator+=(const Stats& o);
  };

  AlignBatch(std::span<const std::uint8_t> query,
             const bio::SubstitutionMatrix& matrix, bio::GapPenalties gaps,
             ScoreTier first_tier = ScoreTier::kAuto);
  ~AlignBatch();
  AlignBatch(AlignBatch&&) noexcept;
  AlignBatch& operator=(AlignBatch&&) noexcept;
  AlignBatch(const AlignBatch&) = delete;
  AlignBatch& operator=(const AlignBatch&) = delete;

  /// Full global alignment of the query vs `other`, bit-identical to the
  /// reference kernels. Not thread-safe (mutates the reusable workspace).
  [[nodiscard]] PairwiseAlignment align(std::span<const std::uint8_t> other);

  [[nodiscard]] const Stats& stats() const;

  /// Bytes currently held: striped profiles, DP columns, checkpoint and
  /// block stores. O((m + n) * sqrt(n)) — never O(m * n).
  [[nodiscard]] std::size_t workspace_bytes() const;

  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace salign::align::engine
