// Retained k-mer oracles.
//
// Not on any production path and not part of libsalign: they build into
// the tests-only salign_test_oracles library. sorted_counts derives every
// window's id independently of KmerProfile::from_sequence's rolling window
// and dense table; similarity is the sorted merge that KmerProfile's
// scatter/gather and the lane-group kernel must match bit for bit, and
// mean_similarity is its per-pair form of the rank kernel.

#include "oracles/kmer.hpp"

#include <algorithm>
#include <stdexcept>

namespace salign::kmer::reference {

std::vector<std::pair<std::uint32_t, std::uint32_t>> sorted_counts(
    const bio::Sequence& seq, const KmerParams& params) {
  const bool compress = params.compressed &&
                        seq.alphabet_kind() == bio::AlphabetKind::AminoAcid;
  const bio::Alphabet& alpha =
      compress ? bio::Alphabet::compressed14() : seq.alphabet();
  const auto bits = static_cast<unsigned>(packed_kmer_bits(alpha));
  const auto k = static_cast<std::size_t>(params.k);

  std::vector<std::uint32_t> ids;
  for (std::size_t s = 0; s + k <= seq.size(); ++s) {
    std::uint32_t id = 0;
    bool wildcard = false;
    for (std::size_t t = 0; t < k && !wildcard; ++t) {
      std::uint8_t c = seq.code(s + t);
      if (compress) c = alpha.compress_amino(c);
      wildcard = c == alpha.wildcard();
      id = (id << bits) | c;
    }
    if (!wildcard) ids.push_back(id);
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

double similarity(const KmerProfile& x, const KmerProfile& y) {
  if (x.k() != y.k()) throw std::invalid_argument("KmerProfile: mismatched k");
  const std::size_t min_len = std::min(x.length(), y.length());
  const auto k = static_cast<std::size_t>(x.k());
  if (min_len < k) return 0.0;

  auto a = std::vector(x.counts().begin(), x.counts().end());
  auto b = std::vector(y.counts().begin(), y.counts().end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::uint64_t shared = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].first < b[j].first) {
      ++i;
    } else if (a[i].first > b[j].first) {
      ++j;
    } else {
      shared += std::min(a[i].second, b[j].second);
      ++i;
      ++j;
    }
  }
  return static_cast<double>(shared) / static_cast<double>(min_len - k + 1);
}

double mean_similarity(const KmerProfile& x,
                       std::span<const KmerProfile> refs) {
  if (refs.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : refs) sum += similarity(x, r);
  return sum / static_cast<double>(refs.size());
}

}  // namespace salign::kmer::reference
