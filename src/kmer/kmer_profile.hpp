#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bio/sequence.hpp"

namespace salign::kmer {

/// Parameters of the k-mer similarity index.
///
/// The paper (following Edgar, NAR 2004) counts contiguous k-mers, optionally
/// over a compressed amino-acid alphabet, which keeps sensitivity for
/// divergent sequences while shrinking the k-mer space. k = 4 on the
/// 14-letter compressed alphabet is a good default for protein lengths
/// around 300 (the paper's regime).
struct KmerParams {
  int k = 4;
  /// Count over the SE-B(14)-style compressed alphabet (proteins only).
  bool compressed = true;
};

/// Bits per residue of the packed k-mer id encoding for `alpha`: 2 for DNA,
/// 4 for the compressed 14-letter alphabet, 5 for amino acids. A k-mer id
/// is the concatenation of its residues' packed codes (one shift-or per
/// window position), so k-mer spaces are powers of two and small ones count
/// into a dense table instead of being sorted.
[[nodiscard]] int packed_kmer_bits(const bio::Alphabet& alpha);

/// k-mer id spaces of at most this many ids count through a one-level
/// dense table indexed by id (256 Ki = 1 MiB of uint32 slots) and score
/// through kmer_rank.hpp's lane-group table (16 B per id in vector builds):
/// every default fits (compressed amino k = 4 is 2^16 ids, DNA k <= 9).
/// Larger spaces count through a two-level table or a sort and score
/// through KmerProfile::similarity's sorted merge.
inline constexpr std::uint64_t kDenseTableLimit = 1ULL << 18;

/// Above kDenseTableLimit, from_sequence counts sequences of at most this
/// many windows through a two-level lazily-allocated block table, whose
/// scratch is bounded by one 16 KiB block per window; longer ones sort and
/// group their ids, the safer memory/time trade (only reachable for
/// multi-thousand-residue sequences on uncompressed amino alphabets with
/// large k).
inline constexpr std::size_t kTwoLevelWindowCap = 2048;

/// Sparse k-mer count vector of one sequence: sorted (kmer-id, count) pairs
/// over bit-packed ids (see packed_kmer_bits).
///
/// Windows containing the alphabet wildcard are skipped. Profiles are the
/// unit of comparison for the k-mer fractional-identity measure
///   r(x, y) = sum_tau min(n_x(tau), n_y(tau)) / (min(|x|,|y|) - k + 1)
/// which is the exact formula in the paper's "k-mer Rank" definition.
class KmerProfile {
 public:
  KmerProfile() = default;

  static KmerProfile from_sequence(const bio::Sequence& seq,
                                   const KmerParams& params);

  /// Fraction of common k-mers r(x, y) in [0, 1]. Sequences shorter than k
  /// yield 0 (no shared k-mer evidence). A sorted merge of the two count
  /// vectors: the single-pair API, the oracle of the lane-group kernel
  /// behind kmer_rank.hpp's set-level scores, and that kernel's fallback.
  [[nodiscard]] double similarity(const KmerProfile& other) const;

  /// Residue length of the originating sequence.
  [[nodiscard]] std::size_t length() const { return length_; }
  [[nodiscard]] int k() const { return k_; }
  /// Size of the id space the counts are drawn from (2^(bits*k) for
  /// bit-packed ids, |alphabet|^k for base-N ids); every id is below it.
  [[nodiscard]] std::uint64_t id_space() const { return id_space_; }
  /// Number of distinct k-mers.
  [[nodiscard]] std::size_t distinct() const { return counts_.size(); }
  [[nodiscard]] std::span<const std::pair<std::uint32_t, std::uint32_t>>
  counts() const {
    return counts_;
  }

 private:
  std::vector<std::pair<std::uint32_t, std::uint32_t>> counts_;
  std::uint64_t id_space_ = 0;
  std::size_t length_ = 0;
  int k_ = 0;
};

/// Builds profiles for a whole set with shared parameters, split over
/// `threads` workers (each profile depends only on its own sequence).
[[nodiscard]] std::vector<KmerProfile> build_profiles(
    std::span<const bio::Sequence> seqs, const KmerParams& params,
    unsigned threads = 1);

}  // namespace salign::kmer
