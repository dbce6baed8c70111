#include "kmer/kmer_rank.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace salign::kmer {

namespace {

/// Slots of a dense scoring table covering every id in `a` and `b`: one past
/// the largest id (at least 1), or 0 when some profile's id space exceeds
/// kDenseTableLimit and the sets keep the sorted merge.
std::size_t dense_slots(std::span<const KmerProfile> a,
                        std::span<const KmerProfile> b) {
  std::size_t slots = 1;
  for (const auto set : {a, b}) {
    for (const KmerProfile& p : set) {
      if (p.id_space() > kDenseTableLimit) return 0;
      // counts() is sorted by id, so its last entry holds the largest id.
      if (!p.counts().empty())
        slots = std::max<std::size_t>(slots, p.counts().back().first + 1U);
    }
  }
  return slots;
}

/// Scores partners against one loaded profile x: load() scatters x's counts
/// into a dense table indexed by k-mer id, and similarity() probes the
/// partner's sparse counts with a branchless `shared += min(table[id], n)`.
/// The shared count is the same integer KmerProfile::similarity's merge
/// finds, and the division is the same, so the doubles are bit-identical.
/// A scorer with zero slots falls back to that merge. One per worker: a
/// scorer is not thread-safe.
class PairScorer {
 public:
  explicit PairScorer(std::size_t slots) : table_(slots, 0) {}

  void load(const KmerProfile& x) {
    if (!table_.empty()) {
      if (x_ != nullptr)
        for (const auto& [id, n] : x_->counts()) table_[id] = 0;
      for (const auto& [id, n] : x.counts()) table_[id] = n;
    }
    x_ = &x;
  }

  [[nodiscard]] double similarity(const KmerProfile& y) const {
    if (table_.empty()) return x_->similarity(y);
    if (x_->k() != y.k())
      throw std::invalid_argument("KmerProfile: mismatched k");
    const std::size_t min_len = std::min(x_->length(), y.length());
    const auto k = static_cast<std::size_t>(y.k());
    if (min_len < k) return 0.0;
    std::uint64_t shared = 0;
    for (const auto& [id, n] : y.counts()) shared += std::min(table_[id], n);
    return static_cast<double>(shared) / static_cast<double>(min_len - k + 1);
  }

 private:
  std::vector<std::uint32_t> table_;
  const KmerProfile* x_ = nullptr;
};

}  // namespace

double rank_from_mean_similarity(double mean_similarity) {
  if (mean_similarity < 0.0 || mean_similarity > 1.0 + 1e-9)
    throw std::invalid_argument("mean similarity outside [0, 1]");
  return -std::log(0.1 + mean_similarity);
}

double mean_similarity(const KmerProfile& x,
                       std::span<const KmerProfile> refs) {
  if (refs.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : refs) sum += x.similarity(r);
  return sum / static_cast<double>(refs.size());
}

std::vector<double> ranks_against(std::span<const KmerProfile> seqs,
                                  std::span<const KmerProfile> refs) {
  std::vector<double> out;
  out.reserve(seqs.size());
  PairScorer scorer(dense_slots(seqs, refs));
  for (const KmerProfile& x : seqs) {
    scorer.load(x);
    // Summed in ref order, exactly as mean_similarity does.
    double sum = 0.0;
    for (const KmerProfile& r : refs) sum += scorer.similarity(r);
    out.push_back(rank_from_mean_similarity(
        refs.empty() ? 0.0 : sum / static_cast<double>(refs.size())));
  }
  return out;
}

std::vector<double> centralized_ranks(std::span<const bio::Sequence> seqs,
                                      const KmerParams& params) {
  const std::vector<KmerProfile> profiles = build_profiles(seqs, params);
  return ranks_against(profiles, profiles);
}

std::vector<double> globalized_ranks(std::span<const bio::Sequence> seqs,
                                     std::span<const bio::Sequence> samples,
                                     const KmerParams& params) {
  const std::vector<KmerProfile> profiles = build_profiles(seqs, params);
  const std::vector<KmerProfile> refs = build_profiles(samples, params);
  return ranks_against(profiles, refs);
}

util::SymmetricMatrix<double> distance_matrix(
    std::span<const bio::Sequence> seqs, const KmerParams& params,
    unsigned threads) {
  const std::vector<KmerProfile> profiles = build_profiles(seqs, params);
  const std::size_t n = profiles.size();
  util::SymmetricMatrix<double> d(n);  // the diagonal stays 0
  const std::size_t pairs = n < 2 ? 0 : n * (n - 1) / 2;
  const std::size_t slots = dense_slots(profiles, {});
  // Pair t = i(i-1)/2 + j (j < i) walks the strict lower triangle row by
  // row. Chunking t rather than rows gives every worker the same number of
  // pairs however uneven the triangle's rows are; a worker re-scatters only
  // when its walk enters a new row.
  util::parallel_for(
      pairs,
      [&](std::size_t begin, std::size_t end) {
        auto [i, j] = util::pair_from_index(begin);
        PairScorer scorer(slots);
        scorer.load(profiles[i]);
        for (std::size_t t = begin; t < end; ++t) {
          d(i, j) = 1.0 - scorer.similarity(profiles[j]);
          if (++j == i && t + 1 < end) {
            ++i;
            j = 0;
            scorer.load(profiles[i]);
          }
        }
      },
      threads);
  return d;
}

}  // namespace salign::kmer
