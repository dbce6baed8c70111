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
  /// At most 18 / packed_kmer_bits of the counted alphabet (see
  /// kDenseTableLimit).
  int k = 4;
  /// Count over the SE-B(14)-style compressed alphabet (proteins only).
  bool compressed = true;
};

/// Bits per residue of the packed k-mer id encoding for `alpha`: 2 for DNA,
/// 4 for the compressed 14-letter alphabet, 5 for amino acids. A k-mer id
/// is the concatenation of its residues' packed codes (one shift-or per
/// window position), so a k-mer space holds 2^(bits*k) ids.
[[nodiscard]] int packed_kmer_bits(const bio::Alphabet& alpha);

/// Every k-mer id space fits this many ids (2^18): profiles count through a
/// one-level dense table indexed by id (1 MiB of uint32 slots) and score
/// through kmer_rank.hpp's lane-group table (16 B per id in vector builds).
/// KmerProfile::from_sequence therefore takes k up to 18 / packed_kmer_bits:
/// 9 on DNA, 4 on the compressed alphabet (the default k) and 3 on plain
/// amino acids.
inline constexpr std::uint64_t kDenseTableLimit = 1ULL << 18;

/// Sparse k-mer count vector of one sequence: (kmer-id, count) pairs over
/// bit-packed ids (see packed_kmer_bits), one per distinct k-mer, in the
/// order the k-mers first occur in the sequence.
///
/// Windows containing the alphabet wildcard are skipped. Profiles are the
/// unit of comparison for the k-mer fractional-identity measure
///   r(x, y) = sum_tau min(n_x(tau), n_y(tau)) / (min(|x|,|y|) - k + 1)
/// which is the exact formula in the paper's "k-mer Rank" definition.
class KmerProfile {
 public:
  KmerProfile() = default;

  /// Throws std::invalid_argument, naming the largest k, when k < 1 or the
  /// k-mer space of the sequence's (possibly compressed) alphabet exceeds
  /// kDenseTableLimit.
  static KmerProfile from_sequence(const bio::Sequence& seq,
                                   const KmerParams& params);

  /// Fraction of common k-mers r(x, y) in [0, 1]. Sequences shorter than k
  /// yield 0 (no shared k-mer evidence). Scatters one count vector into the
  /// thread's dense table and gathers the other's: the single-pair API, and
  /// the fallback of kmer_rank.hpp's lane-group kernel for sequences too
  /// long for int16 lanes.
  [[nodiscard]] double similarity(const KmerProfile& other) const;

  /// Residue length of the originating sequence.
  [[nodiscard]] std::size_t length() const { return length_; }
  [[nodiscard]] int k() const { return k_; }
  /// Size of the id space the counts are drawn from, 2^(bits*k) (at most
  /// kDenseTableLimit); every id is below it.
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
