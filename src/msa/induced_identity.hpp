#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "msa/alignment.hpp"
#include "util/matrix.hpp"

namespace salign::msa {

/// Column counts of one row pair of an alignment: `cols` columns where
/// both rows hold a residue, `matches` of those where the codes are equal
/// (the wildcard matches only itself, like any other code).
struct IdentityCounts {
  std::size_t cols = 0;
  std::size_t matches = 0;

  /// matches / cols, or 0 when the rows share no residue column.
  [[nodiscard]] double identity() const {
    return cols == 0 ? 0.0
                     : static_cast<double>(matches) / static_cast<double>(cols);
  }
};

/// An alignment's rows bit-sliced for pairwise identity counting: each row
/// becomes one non-gap mask plus ceil(log2(alphabet size)) residue-code
/// planes (3 for DNA, 4 for the compressed alphabet, 5 for amino acids;
/// Alignment keeps every code below its alphabet's size), 64 columns per
/// word. A pair then costs two popcounts per word:
///
///   cols    = popcount(nongapA & nongapB)
///   matches = popcount(nongapA & nongapB & ~OR_k(planeA_k ^ planeB_k))
///
/// which are exactly the integers of a per-column scalar comparison.
class IdentityPlanes {
 public:
  explicit IdentityPlanes(const Alignment& aln);

  [[nodiscard]] std::size_t num_rows() const { return rows_; }

  [[nodiscard]] IdentityCounts count(std::size_t a, std::size_t b) const;

 private:
  /// Word w of row r is bits_[(r * words_ + w) * (planes_ + 1) ...]: the
  /// mask, then the planes, so a pair walk reads both rows contiguously.
  [[nodiscard]] const std::uint64_t* row(std::size_t r) const {
    return bits_.data() + r * words_ * (planes_ + 1);
  }

  std::size_t rows_ = 0;
  std::size_t words_ = 0;
  std::size_t planes_ = 0;
  std::vector<std::uint64_t> bits_;
};

/// MUSCLE's stage-2 guide-tree distances: d(i, j) =
/// align::kimura_distance(count(i, j).identity()) for every row pair of the
/// stage-1 alignment. Pairs are split evenly over `threads` workers
/// (util::parallel_for over the linear pair index); the matrix is the same
/// bit for bit for any thread count.
[[nodiscard]] util::SymmetricMatrix<double> induced_kimura_distances(
    const Alignment& aln, unsigned threads = 1);

}  // namespace salign::msa
