#include "msa/induced_identity.hpp"

#include <bit>

#include "align/distance.hpp"
#include "util/thread_pool.hpp"

namespace salign::msa {

namespace {

constexpr std::size_t kWordBits = 64;

/// Branch-free population count. The library builds for baseline x86-64,
/// where std::popcount is an out-of-line library call; this stays inline.
inline std::uint64_t popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return (x * 0x0101010101010101ULL) >> 56;
}

}  // namespace

IdentityPlanes::IdentityPlanes(const Alignment& aln)
    : rows_(aln.num_rows()),
      words_((aln.num_cols() + kWordBits - 1) / kWordBits),
      planes_(std::bit_width(
          static_cast<unsigned>(aln.alphabet().size() - 1))) {
  const std::size_t stride = planes_ + 1;
  bits_.assign(rows_ * words_ * stride, 0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::vector<std::uint8_t>& cells = aln.row(r).cells;
    std::uint64_t* out = bits_.data() + r * words_ * stride;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::uint8_t code = cells[c];
      if (code == Alignment::kGap) continue;
      std::uint64_t* word = out + (c / kWordBits) * stride;
      const std::uint64_t bit = std::uint64_t{1} << (c % kWordBits);
      word[0] |= bit;
      for (std::size_t k = 0; k < planes_; ++k)
        if ((code >> k) & 1U) word[k + 1] |= bit;
    }
  }
}

IdentityCounts IdentityPlanes::count(std::size_t a, std::size_t b) const {
  const std::size_t stride = planes_ + 1;
  const std::uint64_t* x = row(a);
  const std::uint64_t* y = row(b);
  std::uint64_t cols = 0;
  std::uint64_t matches = 0;
  for (std::size_t w = 0; w < words_; ++w, x += stride, y += stride) {
    const std::uint64_t both = x[0] & y[0];
    std::uint64_t differ = 0;
    for (std::size_t k = 1; k <= planes_; ++k) differ |= x[k] ^ y[k];
    cols += popcount64(both);
    matches += popcount64(both & ~differ);
  }
  return {static_cast<std::size_t>(cols), static_cast<std::size_t>(matches)};
}

util::SymmetricMatrix<double> induced_kimura_distances(const Alignment& aln,
                                                       unsigned threads) {
  const IdentityPlanes sliced(aln);
  const std::size_t n = sliced.num_rows();
  util::SymmetricMatrix<double> d(n);  // the diagonal stays 0
  const std::size_t pairs = n < 2 ? 0 : n * (n - 1) / 2;
  // Pair t = i(i-1)/2 + j (j < i) walks the strict lower triangle row by
  // row, as kmer::distance_matrix does: every worker gets the same number of
  // pairs, with one pair_from_index per chunk rather than per pair.
  util::parallel_for(
      pairs,
      [&](std::size_t begin, std::size_t end) {
        auto [i, j] = util::pair_from_index(begin);
        for (std::size_t t = begin; t < end; ++t) {
          d(i, j) = align::kimura_distance(sliced.count(i, j).identity());
          if (++j == i) {
            ++i;
            j = 0;
          }
        }
      },
      threads);
  return d;
}

}  // namespace salign::msa
