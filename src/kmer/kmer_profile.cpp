#include "kmer/kmer_profile.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace salign::kmer {

namespace {

/// Spaces past kDenseTableLimit count through a two-level table: a
/// top-level directory of block handles over lazily-assigned blocks of
/// 2^kBlockBits counts. Only blocks that actually receive a k-mer are
/// allocated (at most one per window), so uncompressed amino-acid spaces
/// up to 2^32 ids cost a few megabytes of persistent directory plus
/// O(windows) block scratch instead of the sort fallback's O(W log W) time.
constexpr int kBlockBits = 12;  // 4096 counts (16 KiB) per block

/// Two-level scratch: persists thread-locally across calls like the
/// one-level table; only touched slots/blocks are reset between calls.
struct TwoLevelTable {
  std::vector<std::uint32_t> block_of;  // directory: 0 = unassigned
  std::vector<std::uint32_t> counts;    // block pool, grown on demand
  std::uint32_t used_blocks = 0;

  void count(std::span<const std::uint32_t> ids,
             std::vector<std::uint32_t>& touched, std::uint64_t space) {
    const std::size_t dirs =
        static_cast<std::size_t>((space + (1ULL << kBlockBits) - 1) >>
                                 kBlockBits);
    if (block_of.size() < dirs) block_of.resize(dirs, 0);
    for (const std::uint32_t id : ids) {
      const std::uint32_t dir = id >> kBlockBits;
      std::uint32_t blk = block_of[dir];
      if (blk == 0) {
        blk = ++used_blocks;  // handle 0 stays "unassigned"
        block_of[dir] = blk;
        const std::size_t need = static_cast<std::size_t>(blk)
                                 << kBlockBits;
        if (counts.size() < need) counts.resize(need, 0);
      }
      std::uint32_t& slot =
          counts[(static_cast<std::size_t>(blk - 1) << kBlockBits) +
                 (id & ((1U << kBlockBits) - 1))];
      if (slot == 0) touched.push_back(id);
      ++slot;
    }
  }

  [[nodiscard]] std::uint32_t take(std::uint32_t id) {
    const std::uint32_t blk = block_of[id >> kBlockBits];
    std::uint32_t& slot =
        counts[(static_cast<std::size_t>(blk - 1) << kBlockBits) +
               (id & ((1U << kBlockBits) - 1))];
    const std::uint32_t c = slot;
    slot = 0;
    return c;
  }

  void reset_blocks(std::span<const std::uint32_t> touched) {
    for (const std::uint32_t id : touched) block_of[id >> kBlockBits] = 0;
    used_blocks = 0;
    // The pool persists thread-locally for reuse, but a pathological call
    // (every window in its own block) must not pin tens of megabytes for
    // the thread's lifetime: release outsized pools.
    constexpr std::size_t kMaxRetainedCounts = 1U << 20;  // 4 MiB
    if (counts.size() > kMaxRetainedCounts) {
      counts.clear();
      counts.shrink_to_fit();
    }
  }
};

}  // namespace

int packed_kmer_bits(const bio::Alphabet& alpha) {
  const auto letters = static_cast<unsigned>(alpha.letters());
  return std::max(1, static_cast<int>(std::bit_width(letters - 1)));
}

KmerProfile KmerProfile::from_sequence(const bio::Sequence& seq,
                                      const KmerParams& params) {
  if (params.k <= 0) throw std::invalid_argument("KmerParams.k must be > 0");
  const bool compress = params.compressed &&
                        seq.alphabet_kind() == bio::AlphabetKind::AminoAcid;
  const bio::Alphabet& alpha =
      compress ? bio::Alphabet::compressed14() : seq.alphabet();
  const std::uint8_t wildcard = alpha.wildcard();

  // Pack residues at the alphabet's bit width (2 bits for DNA, 4 for the
  // compressed 14-letter alphabet, 5 for amino acids): a k-mer id is then a
  // single shift-or per window instead of k base-multiplications, and the
  // id space is a power of two so small spaces count into a dense table.
  // When the padded width overflows 32 bits but the exact base-|alphabet|
  // space still fits (e.g. uncompressed amino acids at k = 7), fall back to
  // rolling base-N ids so the historically accepted k range is preserved.
  const int bits = packed_kmer_bits(alpha);
  const auto k = static_cast<std::size_t>(params.k);
  const std::uint64_t id_bits =
      static_cast<std::uint64_t>(bits) * static_cast<std::uint64_t>(k);
  const auto base = static_cast<std::uint64_t>(alpha.size());
  std::uint64_t space;
  if (id_bits <= 32) {
    space = 1ULL << id_bits;
  } else {
    space = 1;
    for (std::size_t i = 0; i < k; ++i) {
      space *= base;
      if (space > (1ULL << 32))
        throw std::invalid_argument("KmerParams.k too large for alphabet");
    }
  }

  KmerProfile p;
  p.id_space_ = space;
  p.length_ = seq.size();
  p.k_ = params.k;
  if (seq.size() < k) return p;

  // Rolling window: shift (or multiply) in one code per position; a
  // wildcard resets the run so windows containing it are skipped. The
  // base-N roll drops the outgoing digit explicitly.
  std::vector<std::uint32_t> ids;
  ids.reserve(seq.size());
  const bool bit_packed = id_bits <= 32;
  const std::uint32_t mask =
      !bit_packed ? 0U
      : id_bits == 32
          ? 0xFFFFFFFFU
          : static_cast<std::uint32_t>((1ULL << id_bits) - 1);
  std::uint64_t high_digit = 1;  // base^(k-1), for the base-N roll
  for (std::size_t i = 0; i + 1 < k; ++i) high_digit *= base;
  std::uint64_t id = 0;
  std::size_t run = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    std::uint8_t c = seq.code(i);
    if (compress) c = alpha.compress_amino(c);
    if (c == wildcard) {
      run = 0;
      id = 0;
      continue;
    }
    if (bit_packed) {
      id = ((id << bits) | c) & mask;
    } else {
      if (run >= k) id %= high_digit;  // drop the window's oldest digit
      id = id * base + c;
    }
    if (++run >= k) ids.push_back(static_cast<std::uint32_t>(id));
  }
  if (space <= kDenseTableLimit) {
    // One-level dense counting: O(windows) with one table slot per possible
    // id. The scratch table persists across calls and only touched slots
    // are cleared, so building a whole set's profiles stays
    // allocation-free.
    thread_local std::vector<std::uint32_t> table;
    if (table.size() < space) table.resize(space, 0);
    std::vector<std::uint32_t> touched;
    touched.reserve(ids.size());
    for (const std::uint32_t v : ids) {
      if (table[v] == 0) touched.push_back(v);
      ++table[v];
    }
    std::sort(touched.begin(), touched.end());
    p.counts_.reserve(touched.size());
    for (const std::uint32_t v : touched) {
      p.counts_.emplace_back(v, table[v]);
      table[v] = 0;
    }
  } else if (ids.size() <= kTwoLevelWindowCap) {
    // Two-level dense counting for the big spaces (uncompressed amino
    // k >= 4): directory + lazily-assigned count blocks, still O(windows).
    thread_local TwoLevelTable table;
    std::vector<std::uint32_t> touched;
    touched.reserve(ids.size());
    table.count(ids, touched, space);
    std::sort(touched.begin(), touched.end());
    p.counts_.reserve(touched.size());
    for (const std::uint32_t v : touched)
      p.counts_.emplace_back(v, table.take(v));
    table.reset_blocks(touched);
  } else {
    // Past kTwoLevelWindowCap windows on a big space: sort and group.
    std::sort(ids.begin(), ids.end());
    for (std::size_t i = 0; i < ids.size();) {
      std::size_t j = i;
      while (j < ids.size() && ids[j] == ids[i]) ++j;
      p.counts_.emplace_back(ids[i], static_cast<std::uint32_t>(j - i));
      i = j;
    }
  }
  return p;
}

double KmerProfile::similarity(const KmerProfile& other) const {
  if (k_ != other.k_)
    throw std::invalid_argument("KmerProfile: mismatched k");
  const std::size_t min_len = std::min(length_, other.length_);
  if (min_len < static_cast<std::size_t>(k_)) return 0.0;

  std::uint64_t shared = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < counts_.size() && j < other.counts_.size()) {
    if (counts_[i].first < other.counts_[j].first) {
      ++i;
    } else if (counts_[i].first > other.counts_[j].first) {
      ++j;
    } else {
      shared += std::min(counts_[i].second, other.counts_[j].second);
      ++i;
      ++j;
    }
  }
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
