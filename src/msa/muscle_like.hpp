#pragma once

#include "bio/substitution_matrix.hpp"
#include "kmer/kmer_profile.hpp"
#include "msa/msa_algorithm.hpp"

namespace salign::msa {

/// Configuration of the MUSCLE-style aligner.
struct MuscleOptions {
  /// Stage-1 guide-tree distance source.
  enum class GuideTree : std::uint8_t {
    /// k-mer profile distances (MUSCLE's choice; the historical default).
    kKmer,
    /// Score-only global-alignment distances through the striped integer
    /// engine (align::score_distance_matrix) — the "fast guide-tree mode":
    /// O(N^2 L^2) work but no tracebacks and 3-4x kernel throughput, giving
    /// alignment-quality trees on inputs where k-mer distances wash out.
    /// Changes guide trees (and thus alignments); thread counts still
    /// never do.
    kScore,
  };
  GuideTree stage1_distance = GuideTree::kKmer;
  /// k-mer parameters of the stage-1 distance estimate (kKmer mode):
  /// always k = 4 on the compressed alphabet, MUSCLE's choice.
  static constexpr kmer::KmerParams kmer{};
  /// Second progressive iteration with Kimura distances recomputed from the
  /// stage-1 alignment (MUSCLE's "improved progressive" stage 2).
  bool reestimate_tree = true;
  /// Tree-bipartition refinement sweeps (MUSCLE stage 3); 0 disables.
  /// The paper's large-N timings quote MUSCLE "without refinement", so the
  /// pipeline default keeps this at 0 and the quality benches turn it on.
  int refine_passes = 0;
  /// Worker threads (1 = serial) of every parallel pass: the stage-1 k-mer
  /// or score distances, the stage-2 induced-Kimura distances (the
  /// bit-sliced pair kernel of msa/induced_identity.hpp), and both
  /// progressive merge schedules. The two UPGMA builds stay serial. Any
  /// value produces bit-identical alignments.
  unsigned threads = 1;
  /// Serve/store the two distance matrices and the two guide trees through
  /// util::ArtifactCache::process_cache(), keyed by the content hash of
  /// (options, matrix, input sequences); the progressive alignments are
  /// always recomputed. Off by default: repeated-alignment workloads opt in
  /// (`salign serve`, library embedders). Hits decode through the same
  /// codecs a cold run's artifacts were encoded with, so cached and fresh
  /// runs are bit-identical.
  bool use_artifact_cache = false;
};

/// "MiniMuscle": a from-scratch reimplementation of the MUSCLE pipeline
/// (Edgar, NAR 2004 & BMC Bioinf. 2004) — the sequential MSA system the
/// paper runs inside every processor and benchmarks against:
///
///   stage 1: k-mer distance matrix (compressed alphabet) -> UPGMA ->
///            progressive PSP alignment;
///   stage 2: Kimura distances from the induced pairwise identities ->
///            rebuilt UPGMA tree -> re-aligned progressively;
///   stage 3: optional tree-bipartition refinement.
///
/// Asymptotics match the paper's cost table: O(N^2) distance terms plus
/// O(N L^2) profile alignments per progressive pass. Each phase is timed
/// into the calling thread's PhaseLog when one is installed.
class MuscleAligner final : public MsaAlgorithm {
 public:
  explicit MuscleAligner(MuscleOptions options = {},
                         const bio::SubstitutionMatrix& matrix =
                             bio::SubstitutionMatrix::blosum62());

  [[nodiscard]] Alignment align(
      std::span<const bio::Sequence> seqs) const override;

  [[nodiscard]] std::string name() const override;

  /// Full output-determining identity: algorithm tag, stage-1 mode, k-mer
  /// params, stage-2/3 switches and the scoring matrix. threads and
  /// use_artifact_cache are excluded — they never change output.
  void hash_config(util::StableHash& h) const override;

  [[nodiscard]] const MuscleOptions& options() const { return options_; }

 private:
  MuscleOptions options_;
  const bio::SubstitutionMatrix* matrix_;
};

}  // namespace salign::msa
