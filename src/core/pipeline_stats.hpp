#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "par/cost_model.hpp"

namespace salign::core {

/// Collective pattern of one communication leg (drives the cost model).
enum class CommPattern : std::uint8_t {
  Gather,     ///< all ranks -> root
  Broadcast,  ///< root -> all ranks
  AllGather,  ///< all ranks -> all ranks (same payload)
  AllToAll,   ///< personalized exchange
};

/// Lower-case name of a pattern ("gather", "broadcast", "allgather",
/// "alltoall"), as --stats prints it.
[[nodiscard]] const char* pattern_name(CommPattern pattern);

/// One collective a stage performs, with the bytes it puts on the wire.
struct CommLeg {
  CommPattern pattern = CommPattern::Gather;
  std::uint64_t total_bytes = 0;         ///< sent by all ranks
  std::uint64_t max_bytes_per_rank = 0;  ///< sent by the busiest rank

  /// Modeled wire time of this leg on the given interconnect.
  [[nodiscard]] double seconds(const par::ClusterCostModel& model,
                               int p) const;
};

/// One sequential-aligner phase (msa::ScopedPhase: a distance matrix,
/// guide tree, progressive pass or refinement) that ran inside a stage,
/// folded over the stage's ranks and runs.
struct AlignerPhase {
  std::string name;
  /// Per-rank wall seconds, summed over the rank's runs of this phase.
  std::vector<double> rank_wall_seconds;
  std::uint64_t runs = 0;        ///< over all ranks
  std::uint64_t cache_hits = 0;  ///< runs served from the artifact cache

  [[nodiscard]] double max_wall_seconds() const;
};

/// Guide-tree merges of one stage: all of them, and the lent ones.
struct MergeCount {
  std::uint64_t lent = 0;
  std::uint64_t total = 0;
};

/// One stage the StageRunner ran or resumed: its artifact provenance, the
/// time its ranks computed and the messages they sent.
struct StageStats {
  std::string name;   ///< the runner's stage name ("local-rank", ...)
  int paper_step = 0; ///< first of the paper's steps 1-15 covered (0: polish)
  std::uint64_t artifact_bytes = 0;  ///< serialized artifact size
  bool resumed = false;  ///< loaded from the checkpoint, not computed
  double seconds = 0.0;  ///< wall time to compute (or load) the artifact
  /// Per-rank CPU seconds of the rank's work in this stage, summed over
  /// the stage's segments; root-only segments charge rank 0. That is the
  /// rank's own thread, plus the CPU of every worker lent to the rank's
  /// merge nodes by ranks that had finished (read once per lent stint),
  /// so the row keeps meaning the time on a dedicated node however the
  /// host shared its workers. Shared-pool workers a threaded stage borrows
  /// are not included — wall time below is what shows their effect. A
  /// single-rank run charges wall seconds here. All zero when the stage
  /// was resumed.
  std::vector<double> rank_seconds;
  /// Per-rank wall-clock seconds of the stage. For compute stages run with
  /// SampleAlignDConfig::threads > 1 this is what shrinks; the per-stage
  /// speedup of a threaded run is the ratio of this stage's max wall
  /// seconds between a threads=1 and a threads=t run of the same input
  /// (PipelineStats::threads records which one this is).
  std::vector<double> rank_wall_seconds;
  /// The stage's collectives in the order it performed them (none when the
  /// stage only computes, or was resumed).
  std::vector<CommLeg> legs;
  /// Aligner phases the stage's ranks ran, in first-seen order (rank 0's
  /// first). Each rank's phase seconds lie inside its rank_wall_seconds.
  /// None when the stage was resumed.
  std::vector<AlignerPhase> phases;
  /// Merge nodes of the guide-tree schedules the stage's ranks ran, and
  /// how many of them ran on a worker lent by a rank that had finished
  /// (msa::for_each_owner). Zero at p = 1 and when the stage was resumed.
  MergeCount merges;

  [[nodiscard]] double max_seconds() const;
  [[nodiscard]] double max_wall_seconds() const;
  /// Bytes all legs of this stage put on the wire.
  [[nodiscard]] std::uint64_t total_bytes() const;
  /// Modeled wire time of all legs of this stage.
  [[nodiscard]] double comm_seconds(const par::ClusterCostModel& model,
                                    int p) const;
};

/// End-to-end instrumentation of one pipeline run: one row per stage the
/// StageRunner ran or resumed, in execution order.
///
/// Two notions of time are reported:
///  - wall_seconds: host wall-clock of the run (threads oversubscribe the
///    host's cores, so this undersells large p on small machines);
///  - modeled_seconds(): the sum over stages of the slowest rank's compute
///    seconds plus the modeled wire time of the stage's legs, i.e. the
///    makespan on a dedicated p-node cluster — the quantity the paper's
///    Figs. 4-6 plot.
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

  /// One-line process-wide artifact-cache report ("" when caching is off).
  std::string cache_note;
  /// Checkpoint-robustness notes: artifacts/manifests quarantined (renamed
  /// to `*.corrupt` and recomputed) or otherwise ignored during this run.
  /// Empty on a healthy run.
  std::vector<std::string> quarantine_notes;

  [[nodiscard]] std::uint64_t total_bytes() const;
  /// Number of stages served from the checkpoint instead of recomputed.
  [[nodiscard]] std::uint64_t resumed_stages() const;
  [[nodiscard]] double modeled_seconds(const par::ClusterCostModel& model =
                                           par::ClusterCostModel{}) const;
  /// Largest bucket relative to the perfect share N/p (1.0 = perfectly
  /// balanced; regular sampling guarantees <= 2.0 for distinct keys).
  [[nodiscard]] double load_factor() const;

  /// Multi-line human-readable per-stage report.
  [[nodiscard]] std::string summary() const;
};

}  // namespace salign::core
