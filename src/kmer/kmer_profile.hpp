#pragma once

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

/// k-mer id spaces of at most this many ids (256 Ki = 1 MiB of uint32
/// slots) count and score through one-level dense tables indexed by id:
/// every default fits (compressed amino k = 4 is 2^16 ids, DNA k <= 9).
/// Larger spaces count through a two-level table or a sort and score
/// through KmerProfile::similarity's sorted merge.
inline constexpr std::uint64_t kDenseTableLimit = 1ULL << 18;

/// How from_sequence turns the rolled k-mer id stream into sorted counts.
/// kAuto picks kDense (one-level table for small id spaces, a two-level
/// lazily-allocated block table for large ones); kSort is the O(W log W)
/// sort-and-group fallback retained as the differential-testing oracle.
enum class KmerCountMode : std::uint8_t { kAuto, kDense, kSort };

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
                                   const KmerParams& params,
                                   KmerCountMode mode = KmerCountMode::kAuto);

  /// Fraction of common k-mers r(x, y) in [0, 1]. Sequences shorter than k
  /// yield 0 (no shared k-mer evidence). A sorted merge of the two count
  /// vectors: the single-pair API, and the oracle of the batched dense
  /// kernel behind kmer_rank.hpp's set-level scores.
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

/// Builds profiles for a whole set with shared parameters.
[[nodiscard]] std::vector<KmerProfile> build_profiles(
    std::span<const bio::Sequence> seqs, const KmerParams& params);

}  // namespace salign::kmer
