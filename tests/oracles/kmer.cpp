// Retained k-mer oracles.
//
// Not on any production path and not part of libsalign: they build into
// the tests-only salign_test_oracles library. sorted_counts derives every
// window's id independently of KmerProfile::from_sequence's rolling window
// and dense tables, so tests/kmer_test.cpp can check each counting path
// (one-level table, two-level table, sort) against it; mean_similarity is
// the per-pair form of the lane-group rank kernel.

#include "oracles/kmer.hpp"

#include <algorithm>

namespace salign::kmer::reference {

std::vector<std::pair<std::uint32_t, std::uint32_t>> sorted_counts(
    const bio::Sequence& seq, const KmerParams& params) {
  const bool compress = params.compressed &&
                        seq.alphabet_kind() == bio::AlphabetKind::AminoAcid;
  const bio::Alphabet& alpha =
      compress ? bio::Alphabet::compressed14() : seq.alphabet();
  const auto bits = static_cast<unsigned>(packed_kmer_bits(alpha));
  const auto k = static_cast<std::size_t>(params.k);
  const bool bit_packed = bits * k <= 32;
  const auto base = static_cast<std::uint64_t>(alpha.size());

  std::vector<std::uint32_t> ids;
  for (std::size_t s = 0; s + k <= seq.size(); ++s) {
    std::uint64_t id = 0;
    bool wildcard = false;
    for (std::size_t t = 0; t < k && !wildcard; ++t) {
      std::uint8_t c = seq.code(s + t);
      if (compress) c = alpha.compress_amino(c);
      wildcard = c == alpha.wildcard();
      id = bit_packed ? (id << bits) | c : id * base + c;
    }
    if (!wildcard) ids.push_back(static_cast<std::uint32_t>(id));
  }
  std::sort(ids.begin(), ids.end());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> counts;
  for (std::size_t i = 0; i < ids.size();) {
    std::size_t j = i;
    while (j < ids.size() && ids[j] == ids[i]) ++j;
    counts.emplace_back(ids[i], static_cast<std::uint32_t>(j - i));
    i = j;
  }
  return counts;
}

double mean_similarity(const KmerProfile& x,
                       std::span<const KmerProfile> refs) {
  if (refs.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : refs) sum += x.similarity(r);
  return sum / static_cast<double>(refs.size());
}

}  // namespace salign::kmer::reference
