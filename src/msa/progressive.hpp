#pragma once

#include <cstdint>
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

/// The column path of every merge of one progressive pass, kept so that a
/// second pass over the same sequences can replay each merge whose inputs
/// it proves equal to the first pass's (progressive_realign) instead of
/// aligning it again. progressive_align fills the paths; the caller then
/// moves in the tree and the weights that pass ran with.
struct MergeRecord {
  GuideTree tree;               ///< the recorded pass's guide tree
  std::vector<double> weights;  ///< its ProgressiveOptions::weights
  const bio::SubstitutionMatrix* matrix = nullptr;
  bio::GapPenalties gaps;
  /// Internal node v's path is runs[offsets[k], offsets[k + 1]) with
  /// k = v - tree.num_leaves(); each run is (length << 2) | EditOp. Empty
  /// when the pass recorded nothing (a band, or a band provider, was set).
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> runs;
};

/// Aligns `seqs` progressively along `tree` (leaves index into `seqs`),
/// merging children profiles bottom-up with PSP profile-profile alignment.
/// A merge of two single sequences under integer penalties and no band
/// runs engine::global_align instead, which computes the same path. The
/// resulting row order is the tree's left-to-right leaf order. With a
/// `record`, every merge's column path is written into it.
[[nodiscard]] Alignment progressive_align(std::span<const bio::Sequence> seqs,
                                          const GuideTree& tree,
                                          const bio::SubstitutionMatrix& matrix,
                                          const ProgressiveOptions& opts = {},
                                          MergeRecord* record = nullptr);

/// progressive_align over the `seqs` of the pass that `first` recorded,
/// with the same result byte for byte, replaying each merge that provably
/// has that pass's inputs: only merge_alignments runs for it. A node
/// stands for the recorded node whose alignment it equals: a leaf for the
/// recorded leaf of its sequence; an internal node for recorded node u
/// when its children stand, in order, for u's children, the merge takes
/// the recorded branch (sequence pair or profiles), and on the profile
/// branch each child's normalized_weights equal the recorded pass's bit
/// for bit. Nothing is replayed under a band, a band provider, other gaps
/// or another matrix. `replayed`, when given, receives the number of
/// merges replayed.
[[nodiscard]] Alignment progressive_realign(
    std::span<const bio::Sequence> seqs, const GuideTree& tree,
    const bio::SubstitutionMatrix& matrix, const ProgressiveOptions& opts,
    const MergeRecord& first, std::size_t* replayed = nullptr);

}  // namespace salign::msa
