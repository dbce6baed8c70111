#include "kmer/kmer_profile.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "util/thread_pool.hpp"

namespace salign::kmer {

namespace {

/// Bits of the largest packed k-mer id the dense table covers.
constexpr int kDenseIdBits = std::countr_zero(kDenseTableLimit);

/// The calling thread's dense count table, at least `space` slots, all zero
/// between calls: from_sequence and similarity leave every slot they touch
/// at zero again, so the table is allocated once per thread, not per call.
std::uint32_t* dense_table(std::uint64_t space) {
  thread_local std::vector<std::uint32_t> table;
  if (table.size() < space) table.resize(space, 0);
  return table.data();
}

}  // namespace

int packed_kmer_bits(const bio::Alphabet& alpha) {
  const auto letters = static_cast<unsigned>(alpha.letters());
  return std::max(1, static_cast<int>(std::bit_width(letters - 1)));
}

KmerProfile KmerProfile::from_sequence(const bio::Sequence& seq,
                                      const KmerParams& params) {
  const bool compress = params.compressed &&
                        seq.alphabet_kind() == bio::AlphabetKind::AminoAcid;
  const bio::Alphabet& alpha =
      compress ? bio::Alphabet::compressed14() : seq.alphabet();
  const std::uint8_t wildcard = alpha.wildcard();

  // A k-mer id is its residues' packed codes side by side (one shift-or per
  // window), so k is bounded by the ids the dense table covers.
  const int bits = packed_kmer_bits(alpha);
  const int max_k = kDenseIdBits / bits;
  if (params.k <= 0 || params.k > max_k)
    throw std::invalid_argument(
        "KmerParams.k = " + std::to_string(params.k) +
        " is out of range for the " + std::string(alpha.name()) +
        " alphabet: the largest k is " + std::to_string(max_k) + " (" +
        std::to_string(bits) + " bits per residue, at most 2^" +
        std::to_string(kDenseIdBits) + " k-mer ids)");
  const auto k = static_cast<std::size_t>(params.k);
  const int id_bits = bits * params.k;

  KmerProfile p;
  p.id_space_ = 1ULL << id_bits;
  p.length_ = seq.size();
  p.k_ = params.k;
  if (seq.size() < k) return p;

  // Rolling window: shift in one code per position; a wildcard resets the
  // run so windows containing it are skipped. Each id's table slot holds
  // one past its index in counts_ (0 = not seen yet), so counts_ comes out
  // in first-occurrence order; the slots are cleared from counts_ after.
  // counts_ is reserved for every window up front, so nothing can throw
  // while slots are set.
  std::uint32_t* const table = dense_table(p.id_space_);
  const std::uint32_t mask = (1U << id_bits) - 1;
  p.counts_.reserve(std::min<std::size_t>(seq.size() - k + 1, p.id_space_));
  std::uint32_t id = 0;
  std::size_t run = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    std::uint8_t c = seq.code(i);
    if (compress) c = alpha.compress_amino(c);
    if (c == wildcard) {
      run = 0;
      continue;
    }
    id = ((id << bits) | c) & mask;
    if (++run < k) continue;
    std::uint32_t& slot = table[id];
    if (slot == 0) {
      p.counts_.emplace_back(id, 0);
      slot = static_cast<std::uint32_t>(p.counts_.size());
    }
    ++p.counts_[slot - 1].second;
  }
  for (const auto& [kmer, n] : p.counts_) table[kmer] = 0;
  return p;
}

double KmerProfile::similarity(const KmerProfile& other) const {
  if (k_ != other.k_)
    throw std::invalid_argument("KmerProfile: mismatched k");
  const std::size_t min_len = std::min(length_, other.length_);
  if (min_len < static_cast<std::size_t>(k_)) return 0.0;

  // Scatter this profile's counts by id, gather the other's.
  std::uint32_t* const table =
      dense_table(std::max(id_space_, other.id_space_));
  for (const auto& [id, n] : counts_) table[id] = n;
  std::uint64_t shared = 0;
  for (const auto& [id, n] : other.counts_) shared += std::min(table[id], n);
  for (const auto& [id, n] : counts_) table[id] = 0;
  const auto denom =
      static_cast<double>(min_len - static_cast<std::size_t>(k_) + 1);
  return static_cast<double>(shared) / denom;
}

std::vector<KmerProfile> build_profiles(std::span<const bio::Sequence> seqs,
                                        const KmerParams& params,
                                        unsigned threads) {
  std::vector<KmerProfile> out(seqs.size());
  util::parallel_for(
      seqs.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
          out[i] = KmerProfile::from_sequence(seqs[i], params);
      },
      threads);
  return out;
}

}  // namespace salign::kmer
