#pragma once

// The traced run's layer probes: an aligner decorator that times and
// captures every call the pipeline makes into its sequential aligner, and
// the standalone layer calls replayed on those captured inputs.

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "msa/muscle_like.hpp"
#include "trace.hpp"

namespace perfbench {

/// Wraps the MiniMuscle the pipeline would build by default (same options,
/// so the same bytes), records a "msa.align" span per call under the
/// current parent span, and keeps a copy of every input.
class TracingAligner final : public salign::msa::MsaAlgorithm {
 public:
  struct Call {
    std::vector<salign::bio::Sequence> seqs;
    int span = -1;
  };

  TracingAligner(unsigned threads, Tracer& tracer);

  [[nodiscard]] salign::msa::Alignment align(
      std::span<const salign::bio::Sequence> seqs) const override;
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void hash_config(salign::util::StableHash& h) const override {
    inner_.hash_config(h);
  }

  /// Parent span and request id of the calls that follow.
  void set_parent(int parent, int request);
  /// Returns and clears the calls captured since the last take.
  [[nodiscard]] std::vector<Call> take_calls();

 private:
  salign::msa::MuscleAligner inner_;
  Tracer& tracer_;
  mutable std::mutex mu_;
  int parent_ = -1;
  int request_ = -1;
  mutable std::vector<Call> calls_;
};

/// Per-layer totals accumulated over one or more traced pipeline calls.
struct LayerTotals {
  double untraced_wall_s = 0.0;  ///< filled by the caller
  double traced_wall_s = 0.0;
  double traced_cpu_s = 0.0;
  double core_self_s = 0.0;
  std::vector<double> load_factors;
  double straggler_wait_s = 0.0;
  double wire_bytes = 0.0;
  std::size_t align_calls = 0;
  double bucket_align_s = 0.0;
  double bucket_align_max_s = 0.0;
  double kmer_distance_s = 0.0;
  double kmer_pairs = 0.0;
  double kmer_rank_s = 0.0;
  double guide_tree_s = 0.0;
  double progressive_s = 0.0;
};

/// Aligns `seqs` through a TracingAligner under a "core.align" span, checks
/// the output is byte-identical to `untraced` (the same call's untraced
/// aligned FASTA), replays the standalone layer calls on the captured
/// inputs and adds everything to `totals`. Returns "" when the bytes match,
/// otherwise a one-line defect.
[[nodiscard]] std::string traced_align(
    const salign::core::SampleAlignDConfig& base,
    std::span<const salign::bio::Sequence> seqs, const std::string& untraced,
    Tracer& tracer, int request, LayerTotals& totals);

}  // namespace perfbench
