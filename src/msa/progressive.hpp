#pragma once

#include <functional>
#include <span>
#include <vector>

#include "bio/sequence.hpp"
#include "bio/substitution_matrix.hpp"
#include "msa/alignment.hpp"
#include "msa/guide_tree.hpp"
#include "msa/profile_align.hpp"

namespace salign::msa {

/// Options of the progressive driver.
struct ProgressiveOptions {
  bio::GapPenalties gaps;
  /// Per-sequence weights (CLUSTALW-style); empty = uniform.
  std::vector<double> weights;
  /// Band half-width for the profile DP; 0 = full. A band provider (below)
  /// takes precedence when set.
  std::size_t band = 0;
  /// Optional per-merge band chooser: given the two sub-alignments about to
  /// be merged, returns the band half-width (0 = full DP). The MAFFT-style
  /// aligner plugs its FFT anchor detection in here. Must be thread-safe
  /// when threads > 1 (merges of independent subtrees call it
  /// concurrently).
  std::function<std::size_t(const Alignment&, const Alignment&)> band_provider;
  /// Worker threads of the guide-tree task schedule (1 = the historical
  /// serial postorder walk). Independent subtree merges run concurrently on
  /// the shared util::ThreadPool; the output is bit-identical for every
  /// value — each merge is a pure function of its children.
  unsigned threads = 1;
};

/// Aligns `seqs` progressively along `tree` (leaves index into `seqs`),
/// merging children profiles bottom-up with PSP profile-profile alignment.
/// A merge of two single sequences under integer penalties and no band
/// runs engine::global_align instead, which computes the same path. The
/// resulting row order is the tree's left-to-right leaf order.
[[nodiscard]] Alignment progressive_align(std::span<const bio::Sequence> seqs,
                                          const GuideTree& tree,
                                          const bio::SubstitutionMatrix& matrix,
                                          const ProgressiveOptions& opts = {});

}  // namespace salign::msa
