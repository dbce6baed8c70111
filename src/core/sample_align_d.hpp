#pragma once

#include <span>

#include "core/config.hpp"
#include "core/pipeline_stats.hpp"
#include "msa/alignment.hpp"

namespace salign::core {

/// The Sample-Align-D distributed multiple sequence aligner
/// (Saeed & Khokhar, IPDPS 2008) — this library's primary contribution.
///
/// The pipeline follows the paper's algorithm statement step by step:
///
///   1.  deal the N input sequences into p blocks of w = N/p;
///   2.  per rank: k-mer rank of each local sequence against the local set;
///   3.  per rank: sort locally by rank;
///   4.  per rank: choose k sample sequences (k << N/p, default p-1);
///   5.  all-gather the k*p samples;
///   6.  per rank: re-rank every local sequence against the global sample
///       ("globalized k-mer rank", §2.3.1);
///   7.  per rank: re-sort by globalized rank;
///   8.  regular sampling: p-1 evenly spaced ranks per rank -> root;
///   9.  root: sort the p(p-1) candidates, pick p-1 pivots, broadcast;
///   10. all-to-all: every sequence moves to its rank-range bucket
///       (regular sampling bounds any bucket by 2N/p, §3);
///   11. per rank: align the bucket with the configured sequential MSA
///       system (MiniMuscle by default, as in the paper);
///   12. per rank: extract the local ancestor (consensus);
///   13. root: align the p local ancestors, derive the global ancestor,
///       broadcast it;
///   14. per rank: profile-profile align the local alignment against the
///       global-ancestor profile (the "tweak" of Fig. 2);
///   15. root: glue the tweaked bucket alignments on the shared
///       global-ancestor coordinate system and restore input row order.
///
/// The run executes as an explicit typed stage graph (core/stage): the
/// paper steps above run as named stages ("local-rank" ... "glue", plus the
/// opt-in "polish"), each producing a serializable, content-hashed
/// artifact. A stage's per-rank work runs concurrently (one worker per
/// simulated processor, drawn from the shared thread pool), and
/// rank-to-rank communication is deterministic data movement at stage
/// boundaries. Messages are modeled, not encoded: each is charged the bytes
/// the par:: codecs would write for it (par::wire_size). `PipelineStats`
/// holds one row per stage run: its artifact, per-rank compute seconds,
/// the sequential aligner's phases each rank ran, and communication legs,
/// from which it derives the modeled dedicated-cluster makespan.
///
/// With num_procs == 1 there is nothing to partition or merge: steps 2-10
/// and 12-15 are skipped, the single bucket is the input in input order,
/// and the run is the stages "bucket-align" (+ "polish").
///
/// The stage graph is what makes runs resumable: with
/// SampleAlignDConfig::checkpoint.dir set, every completed stage is
/// persisted (artifact + manifest row keyed by a chain hash over the
/// pipeline identity), and a later run with checkpoint.resume loads
/// completed stages back instead of recomputing them. Because resumed
/// values decode through exactly the codec the fresh run encoded with, a
/// resumed run is bit-identical to a fresh one — for any thread count.
class SampleAlignD {
 public:
  explicit SampleAlignD(SampleAlignDConfig config = {});

  /// Aligns `seqs` (unique ids required) and returns a validated MSA whose
  /// rows degap to the inputs in input order. With num_procs == 1 the
  /// result is exactly the configured sequential aligner's output. Throws
  /// stage::StageAbort when the checkpoint fail_after test hook fires.
  [[nodiscard]] msa::Alignment align(std::span<const bio::Sequence> seqs,
                                     PipelineStats* stats = nullptr) const;

  [[nodiscard]] const SampleAlignDConfig& config() const { return config_; }

  /// The content hash identifying a run of this configuration over `seqs` —
  /// what checkpoint manifests are keyed by (`salign stages` recomputes it
  /// to verify a directory matches an input).
  [[nodiscard]] util::Digest128 pipeline_hash(
      std::span<const bio::Sequence> seqs) const;

 private:
  SampleAlignDConfig config_;
};

}  // namespace salign::core
