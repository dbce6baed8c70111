#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "bio/sequence.hpp"
#include "msa/alignment.hpp"
#include "util/stable_hash.hpp"

namespace salign::msa {

/// Abstract sequential multiple-sequence aligner.
///
/// The Sample-Align-D pipeline is parameterized over this interface — the
/// paper's step "Align sequences in each processor using any sequential
/// multiple alignment system". Implementations in this library:
/// MuscleAligner (the paper's choice), ClustalWAligner, TCoffeeAligner and
/// MafftAligner (Table 2 comparators).
///
/// Contract: align() returns an Alignment whose rows degap to exactly the
/// input sequences, in input order, and must be deterministic.
class MsaAlgorithm {
 public:
  virtual ~MsaAlgorithm() = default;

  [[nodiscard]] virtual Alignment align(
      std::span<const bio::Sequence> seqs) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Folds everything that determines this aligner's output for a given
  /// input — algorithm, parameters, scoring matrix — into `h`. Checkpoint
  /// and cache keys derive from it, so two configurations that could produce
  /// different alignments must hash differently. Worker-thread counts never
  /// change output and must never be folded in. The default covers aligners
  /// whose name() already encodes their full configuration; aligners with
  /// free parameters (MuscleAligner) override it.
  virtual void hash_config(util::StableHash& h) const { h.str(name()); }
};

/// Most sequences one TCoffeeAligner call accepts: its consistency library
/// holds O(N^2 L) residue pairs. PREFAB-style sets (20-30 sequences), the
/// regime the paper evaluates T-Coffee in, fit easily.
inline constexpr std::size_t kMaxConsistencySequences = 64;

/// Throws the std::invalid_argument of a consistency aligner given `n` >
/// kMaxConsistencySequences sequences; the message names the cap and the
/// remedies. Returns when `n` is within the cap.
void check_consistency_cap(std::string_view aligner, std::size_t n);

/// The default sequential aligner used by the pipeline (MiniMuscle with the
/// paper's configuration: k-mer distances, UPGMA, PSP progressive pass,
/// no refinement — matching the MUSCLE timings the paper quotes, which are
/// "without refinement"). `threads` is the worker count of its parallel
/// passes (distance matrices, progressive merge schedule); any value
/// produces bit-identical alignments.
[[nodiscard]] std::shared_ptr<const MsaAlgorithm> make_default_aligner(
    unsigned threads = 1);

}  // namespace salign::msa
