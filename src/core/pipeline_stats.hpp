#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "par/cost_model.hpp"

namespace salign::core {

/// Communication pattern of a pipeline stage (drives the cost model).
enum class CommPattern : std::uint8_t {
  None,       ///< pure computation
  Gather,     ///< all ranks -> root
  Broadcast,  ///< root -> all ranks
  AllGather,  ///< all ranks -> all ranks (same payload)
  AllToAll,   ///< personalized exchange
};

/// Timing/volume record of one pipeline stage.
struct StageStats {
  std::string name;
  CommPattern pattern = CommPattern::None;
  /// Per-rank CPU seconds the rank's own thread spent computing in this
  /// stage (shared-pool workers a threaded stage borrows are not included —
  /// wall time below is what shows their effect).
  std::vector<double> rank_seconds;
  /// Per-rank wall-clock seconds of the stage. For compute stages run with
  /// SampleAlignDConfig::threads > 1 this is what shrinks; the per-stage
  /// speedup of a threaded run is the ratio of this stage's max wall
  /// seconds between a threads=1 and a threads=t run of the same input
  /// (PipelineStats::threads records which one this is).
  std::vector<double> rank_wall_seconds;
  /// Communication volume: max bytes sent by any rank in this stage.
  std::uint64_t max_bytes_per_rank = 0;
  /// Total bytes sent by all ranks in this stage.
  std::uint64_t total_bytes = 0;

  [[nodiscard]] double max_seconds() const;
  [[nodiscard]] double max_wall_seconds() const;

  /// Modeled wire time of this stage's communication on the given
  /// interconnect.
  [[nodiscard]] double comm_seconds(const par::ClusterCostModel& model,
                                    int p) const;
};

/// End-to-end instrumentation of one pipeline run.
///
/// Two notions of time are reported:
///  - wall_seconds: host wall-clock of the run (threads oversubscribe the
///    host's cores, so this undersells large p on small machines);
///  - modeled_seconds(): per-stage max rank CPU time + modeled wire time,
///    i.e. the makespan on a dedicated p-node cluster — the quantity the
///    paper's Figs. 4-6 plot.
/// Checkpoint/cache provenance of one stage artifact (mirrors the
/// stage::ArtifactRecord the run produced, without the digests).
struct StageArtifactStats {
  std::string name;
  int paper_step = 0;
  std::uint64_t bytes = 0;   ///< serialized artifact size
  bool resumed = false;      ///< loaded from the checkpoint, not computed
  double seconds = 0.0;      ///< wall time to compute (or load) it
};

/// One sequential-aligner phase aggregated across all buckets of the run.
struct AlignerPhaseSummary {
  std::string name;
  double wall_seconds = 0.0;
  std::uint64_t runs = 0;
  std::uint64_t cache_hits = 0;
};

struct PipelineStats {
  int num_procs = 0;
  /// Worker threads each rank's local work was allowed to use
  /// (SampleAlignDConfig::threads). Per-stage rank_seconds are CPU seconds,
  /// so comparing a threads=1 and a threads=t run of the same input shows
  /// the per-stage parallel efficiency directly: wall speedup of a compute
  /// stage = serial max rank seconds / threaded stage wall.
  unsigned threads = 1;
  std::size_t num_sequences = 0;
  std::vector<StageStats> stages;
  /// Bucket sizes after redistribution (load-balance check vs the paper's
  /// 2N/p regular-sampling bound).
  std::vector<std::size_t> bucket_sizes;
  double wall_seconds = 0.0;

  /// Stage artifacts in execution order (filled when the run checkpointed
  /// or resumed; empty otherwise).
  std::vector<StageArtifactStats> artifacts;
  /// Number of stages served from the checkpoint instead of recomputed.
  std::uint64_t resumed_stages = 0;
  /// Per-phase breakdown of the sequential aligner runs (default aligner
  /// only; filled when the pipeline owns the phase recorder).
  std::vector<AlignerPhaseSummary> aligner_phases;
  /// One-line process-wide artifact-cache report ("" when caching is off).
  std::string cache_note;
  /// Checkpoint-robustness notes: artifacts/manifests quarantined (renamed
  /// to `*.corrupt` and recomputed) or otherwise ignored during this run.
  /// Empty on a healthy run.
  std::vector<std::string> quarantine_notes;

  [[nodiscard]] std::uint64_t total_bytes() const;
  [[nodiscard]] double total_compute_seconds() const;
  [[nodiscard]] double modeled_seconds(const par::ClusterCostModel& model =
                                           par::ClusterCostModel{}) const;
  /// Largest bucket relative to the perfect share N/p (1.0 = perfectly
  /// balanced; regular sampling guarantees <= 2.0 for distinct keys).
  [[nodiscard]] double load_factor() const;

  /// Multi-line human-readable per-stage report.
  [[nodiscard]] std::string summary() const;
};

}  // namespace salign::core
