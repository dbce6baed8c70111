#pragma once

#include <cstdint>
#include <vector>

#include "bio/sequence.hpp"
#include "msa/alignment.hpp"

namespace salign::workload {

/// One PREFAB-style test case: a set of sequences plus a trusted reference
/// alignment to score against with the Q measure.
struct PrefabCase {
  std::vector<bio::Sequence> sequences;
  msa::Alignment reference;
  double divergence = 0.0;  ///< tree branch distance used for this set
};

/// Parameters of the PREFAB-like benchmark generator.
///
/// PREFAB (Edgar 2004) couples structure-alignment-derived references with
/// sets of ~20-50 sequences of varying divergence; the paper scores Q on it
/// (its Table 2). We substitute exact-history references from the evolver:
/// sets of 20-30 sequences spanning low to high divergence, whose true
/// alignments are recorded rather than inferred, so Q orderings between
/// methods are preserved without annotation noise.
struct PrefabParams {
  std::size_t num_cases = 24;
  std::size_t min_sequences = 20;
  std::size_t max_sequences = 30;
  std::size_t min_length = 120;
  std::size_t max_length = 400;
  /// Divergence ladder: case i uses min + (max-min) * i / (cases-1).
  double min_divergence = 0.15;
  double max_divergence = 1.1;
  std::uint64_t seed = 604;
};

/// Generates the benchmark suite (deterministic in the seed).
[[nodiscard]] std::vector<PrefabCase> prefab_cases(const PrefabParams& params);

}  // namespace salign::workload
