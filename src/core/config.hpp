#pragma once

#include <memory>

#include "core/stage/stage.hpp"
#include "kmer/kmer_profile.hpp"
#include "msa/msa_algorithm.hpp"
#include "msa/polish.hpp"
#include "util/budget.hpp"

namespace salign::core {

/// How sequences are ranked before the sample-sort redistribution.
enum class RankMode {
  /// Sample-Align-D (this paper): exchange k·p samples and re-rank every
  /// sequence against the global sample — correct for phylogenetically
  /// diverse inputs (§2.3.1).
  Globalized,
  /// The predecessor Sample-Align system [34]: each processor keeps its
  /// local-block rank. Valid only under the homogeneity assumption; kept as
  /// the ablation that shows why the globalized re-rank matters.
  LocalOnly,
};

/// Configuration of the Sample-Align-D pipeline.
struct SampleAlignDConfig {
  /// Number of logical processors p (the paper's cluster size knob).
  int num_procs = 4;

  /// k-mer rank parameters (paper §2, "k-mer Rank").
  kmer::KmerParams kmer{};

  /// Samples contributed per processor in the sample-exchange round
  /// (the paper's k, with k << N/p). 0 selects the paper's default k = p-1.
  int samples_per_proc = 0;

  /// Globalized (paper) vs local-only (predecessor [34]) ranking.
  RankMode rank_mode = RankMode::Globalized;

  /// Worker threads of EACH rank's own local work (1 = one worker per
  /// rank). Flows into the default sequential aligner's parallel passes —
  /// the guide-tree distance matrices and the progressive merge schedule —
  /// which draw from the shared util::ThreadPool, so ranks×threads share
  /// the host instead of oversubscribing it. On top of its share, a rank
  /// still aligning gets the workers of ranks that have finished: they run
  /// its ready merges (msa::for_each_owner), so the run never holds more
  /// than num_procs×threads workers but none of them idles while a bucket
  /// is left. Any value produces bit-identical alignments. A
  /// caller-provided local_aligner configures its own thread count.
  unsigned threads = 1;

  /// The sequential MSA system run inside every processor (paper step
  /// "Align sequences in each processor using any sequential multiple
  /// alignment system"). Null selects MiniMuscle, the paper's choice,
  /// with `threads` workers.
  std::shared_ptr<const msa::MsaAlgorithm> local_aligner;

  /// Whether to run the global-ancestor profile-profile tweak (paper steps
  /// 12-16). Disabling it degrades the glue to block-diagonal concatenation
  /// — the ablation that shows why the ancestor constraint matters.
  bool ancestor_refinement = true;

  /// Root-side polish of the glued alignment: re-align the most divergent
  /// rows against the global profile (the paper's §5 future-work
  /// refinement). Disabled by default to match the published pipeline.
  bool polish_divergent = false;

  /// Polish parameters (used only when polish_divergent is set). max_rows
  /// defaults to 32 here to bound the root-side cost on large glues.
  msa::PolishOptions polish{
      .fraction = 0.15, .max_rows = 32, .passes = 1, .gaps = {}};

  /// Externalized-state options: checkpoint.dir enables per-stage artifact
  /// persistence, checkpoint.resume loads completed stages back. Resumed
  /// runs are bit-identical to fresh ones for any thread count (stage
  /// identity hashes cover everything output-relevant; threads are not).
  stage::CheckpointOptions checkpoint{};

  /// Serve repeated per-bucket aligner work (distance matrices, guide
  /// trees) from the process-wide util::ArtifactCache. Opt-in (`salign
  /// serve` sets it); never changes output. Only applies to the default
  /// aligner this config constructs — a caller-provided local_aligner
  /// manages its own caching.
  bool use_artifact_cache = false;

  /// Wall-clock budget of a run in seconds (`--deadline`; 0 = none). With
  /// `cancel` below it is the whole of a run's resource limits. It is
  /// polled cooperatively at stage, chunk and merge boundaries: when it
  /// passes, the run stops at the next boundary with
  /// util::DeadlineExceeded, leaving a valid checkpoint `--resume` finishes
  /// bit-identically. It never changes the alignment, so it is not part of
  /// the pipeline hash.
  double deadline_seconds = 0.0;

  /// Optional cooperative cancellation token, polled at the same
  /// boundaries as the deadline (a cancel raises util::CancelledError with
  /// the same valid-checkpoint guarantee). The serve daemon's job-eviction
  /// hook. Not hashed either.
  std::shared_ptr<util::CancelToken> cancel;
};

}  // namespace salign::core
