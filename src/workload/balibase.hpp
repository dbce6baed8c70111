#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bio/sequence.hpp"
#include "msa/alignment.hpp"

namespace salign::workload {

/// The five BAliBASE 2/3 reference categories, reproduced structurally
/// (Thompson, Plewniak & Poch, Bioinformatics 1999). The paper's §5 names
/// BAliBASE as the next quality benchmark to evaluate on; no public copy is
/// bundled here, so the generator builds families with the same structural
/// stress patterns and exact-history references.
enum class BalibaseCategory {
  Equidistant,  ///< RV1x: roughly equidistant sequences, identity ladder
  Orphan,       ///< RV2: one tight family plus up to three distant orphans
  Subfamilies,  ///< RV3: 2-4 tight subfamilies separated by deep branches
  Extensions,   ///< RV4: some sequences carry long terminal extensions
  Insertions,   ///< RV5: some sequences carry large internal insertions
};

/// Display name ("RV1-like equidistant" etc.).
[[nodiscard]] std::string to_string(BalibaseCategory category);

/// One generated reference set.
struct BalibaseCase {
  BalibaseCategory category = BalibaseCategory::Equidistant;
  std::vector<bio::Sequence> sequences;
  msa::Alignment reference;
  /// Core-block mask over reference columns (BAliBASE scores only
  /// reliably-aligned blocks): true for columns inside a core block.
  std::vector<bool> core_columns;
  /// The divergence knob used for this case (category-specific meaning).
  double divergence = 0.0;
  std::string name;
};

/// Generator parameters.
struct BalibaseParams {
  /// Cases generated per category (ladder over the divergence range).
  std::size_t cases_per_category = 3;
  std::size_t min_sequences = 8;
  std::size_t max_sequences = 14;
  std::size_t root_length = 180;
  /// Within-family divergence ladder endpoints (RV1 identity bands).
  double min_divergence = 0.2;
  double max_divergence = 0.9;
  /// Deep-branch distance for orphans/subfamilies (RV2/RV3).
  double deep_distance = 1.6;
  /// Length of RV4 terminal extensions / RV5 internal insertions, as a
  /// fraction of root_length.
  double decoration_fraction = 0.4;
  /// Core-block detection: minimum run of full-occupancy columns.
  std::size_t core_min_run = 5;
  std::uint64_t seed = 4242;
};

/// Generates the full suite (cases_per_category cases for each of the five
/// categories), deterministic in the seed.
[[nodiscard]] std::vector<BalibaseCase> balibase_cases(
    const BalibaseParams& params);

/// Core-block mask of a reference alignment: columns where every row has a
/// residue, in runs of at least `min_run` consecutive such columns. This is
/// the structural analogue of BAliBASE's annotated core blocks (regions
/// where the reference is considered reliable).
[[nodiscard]] std::vector<bool> core_block_mask(const msa::Alignment& reference,
                                                std::size_t min_run);

}  // namespace salign::workload
