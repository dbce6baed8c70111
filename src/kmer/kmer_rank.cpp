#include "kmer/kmer_rank.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "align/engine/simd_int.hpp"
#include "util/thread_pool.hpp"

namespace salign::kmer {

namespace {

/// One int16 lane per loaded profile: 8 lanes in vector builds, 1 in the
/// scalar build.
using Lanes = align::engine::VecI16;
constexpr std::size_t kLanes = Lanes::kLanes;
/// Windows (length - k + 1) of the longest sequence the lanes hold exactly.
constexpr auto kMaxLaneWindows =
    static_cast<std::size_t>(std::numeric_limits<std::int16_t>::max());

/// Slots of a lane table covering every id in `a` and `b`: one past the
/// largest id (at least 1), or 0 when the sets keep the per-pair
/// KmerProfile::similarity. That is when some sequence has more than
/// INT16_MAX windows: the windows bound every count and every shared sum,
/// so below it no lane can overflow.
std::size_t lane_table_slots(std::span<const KmerProfile> a,
                             std::span<const KmerProfile> b) {
  std::size_t slots = 1;
  for (const auto set : {a, b}) {
    for (const KmerProfile& p : set) {
      if (p.length() >= static_cast<std::size_t>(p.k()) + kMaxLaneWindows)
        return 0;
      for (const auto& [id, n] : p.counts())
        slots = std::max<std::size_t>(slots, id + 1U);
    }
  }
  return slots;
}

/// Scores up to kLanes loaded profiles against one partner at a time.
/// load() writes lane l's counts into an interleaved table whose slot per
/// k-mer id holds the kLanes counts side by side; score() walks the
/// partner's sparse counts once, adding one lane-wise min(table, n) per
/// entry, so one pass yields every lane's shared count. That is the same
/// integer KmerProfile::similarity finds, and the division is the same, so
/// the doubles are bit-identical. A scorer with zero slots calls
/// similarity per lane instead. One per worker: a scorer is not
/// thread-safe.
class LaneGroupScorer {
 public:
  explicit LaneGroupScorer(std::size_t slots) : table_(slots * kLanes, 0) {}

  /// Loads xs (at most kLanes profiles) as lanes 0.., clearing only the
  /// slots the previous group touched.
  void load(std::span<const KmerProfile> xs) {
    if (!table_.empty()) {
      for (const KmerProfile& x : xs_)
        for (const auto& [id, n] : x.counts()) Lanes::splat(0).store(slot(id));
      for (std::size_t l = 0; l < xs.size(); ++l)
        for (const auto& [id, n] : xs[l].counts())
          slot(id)[l] = static_cast<std::int16_t>(n);
    }
    xs_ = xs;
  }

  /// out[l] = xs[l].similarity(y) for every loaded lane l, bit for bit.
  void score(const KmerProfile& y, std::span<double, kLanes> out) const {
    if (table_.empty()) {
      for (std::size_t l = 0; l < xs_.size(); ++l)
        out[l] = xs_[l].similarity(y);
      return;
    }
    const Lanes shared = shared_counts(y);
    const auto k = static_cast<std::size_t>(y.k());
    for (std::size_t l = 0; l < xs_.size(); ++l) {
      const std::size_t min_len = std::min(xs_[l].length(), y.length());
      const std::int16_t n = shared.lane(static_cast<int>(l));
      out[l] = min_len < k ? 0.0
                           : static_cast<double>(n) /
                                 static_cast<double>(min_len - k + 1);
    }
  }

 private:
  /// Every lane's shared-k-mer count with y.
  Lanes shared_counts(const KmerProfile& y) const {
    Lanes acc = Lanes::splat(0);
    for (const auto& [id, n] : y.counts())
      acc = acc + Lanes::min(Lanes::load(slot(id)),
                             Lanes::splat(static_cast<std::int16_t>(n)));
    return acc;
  }

  std::int16_t* slot(std::uint32_t id) { return &table_[id * kLanes]; }
  const std::int16_t* slot(std::uint32_t id) const {
    return &table_[id * kLanes];
  }

  std::vector<std::int16_t> table_;
  std::span<const KmerProfile> xs_;
};

/// The profiles of lane group g of `set`: [g*kLanes, (g+1)*kLanes) clipped.
std::span<const KmerProfile> lane_group(std::span<const KmerProfile> set,
                                        std::size_t g) {
  const std::size_t begin = g * kLanes;
  return set.subspan(begin, std::min(kLanes, set.size() - begin));
}

std::size_t lane_groups(std::size_t n) { return (n + kLanes - 1) / kLanes; }

}  // namespace

double rank_from_mean_similarity(double mean_similarity) {
  if (mean_similarity < 0.0 || mean_similarity > 1.0 + 1e-9)
    throw std::invalid_argument("mean similarity outside [0, 1]");
  return -std::log(0.1 + mean_similarity);
}

std::vector<double> ranks_against(std::span<const KmerProfile> seqs,
                                  std::span<const KmerProfile> refs,
                                  unsigned threads) {
  // Every (seq, ref) pair is scored, so any two k values meet in some pair.
  if (!seqs.empty() && !refs.empty()) {
    for (const auto set : {seqs, refs})
      for (const KmerProfile& p : set)
        if (p.k() != refs.front().k())
          throw std::invalid_argument("KmerProfile: mismatched k");
  }
  std::vector<double> out(seqs.size());
  const std::size_t slots = lane_table_slots(seqs, refs);
  util::parallel_for(
      lane_groups(seqs.size()),
      [&](std::size_t begin, std::size_t end) {
        LaneGroupScorer scorer(slots);
        std::array<double, kLanes> sim{};
        for (std::size_t g = begin; g < end; ++g) {
          const std::span<const KmerProfile> xs = lane_group(seqs, g);
          scorer.load(xs);
          // Each lane sums in ref order.
          std::array<double, kLanes> sum{};
          for (const KmerProfile& r : refs) {
            scorer.score(r, sim);
            for (std::size_t l = 0; l < xs.size(); ++l) sum[l] += sim[l];
          }
          for (std::size_t l = 0; l < xs.size(); ++l)
            out[g * kLanes + l] = rank_from_mean_similarity(
                refs.empty() ? 0.0
                             : sum[l] / static_cast<double>(refs.size()));
        }
      },
      threads);
  return out;
}

std::vector<double> centralized_ranks(std::span<const bio::Sequence> seqs,
                                      const KmerParams& params,
                                      unsigned threads) {
  const std::vector<KmerProfile> profiles =
      build_profiles(seqs, params, threads);
  return ranks_against(profiles, profiles, threads);
}

std::vector<double> globalized_ranks(std::span<const bio::Sequence> seqs,
                                     std::span<const bio::Sequence> samples,
                                     const KmerParams& params,
                                     unsigned threads) {
  const std::vector<KmerProfile> profiles =
      build_profiles(seqs, params, threads);
  const std::vector<KmerProfile> refs =
      build_profiles(samples, params, threads);
  return ranks_against(profiles, refs, threads);
}

util::SymmetricMatrix<double> distance_matrix(
    std::span<const bio::Sequence> seqs, const KmerParams& params,
    unsigned threads) {
  const std::vector<KmerProfile> profiles =
      build_profiles(seqs, params, threads);
  const std::size_t n = profiles.size();
  util::SymmetricMatrix<double> d(n);  // the diagonal stays 0
  if (n < 2) return d;
  const std::size_t slots = lane_table_slots(profiles, {});
  const std::size_t groups = lane_groups(n);
  const std::size_t pairs = n * (n - 1) / 2;
  const std::size_t workers =
      std::max<std::size_t>(1, std::min<std::size_t>(threads, groups));
  // Worker w walks the row groups [first_group(w), first_group(w + 1)),
  // cut where the pairs of the rows before a group first reach
  // w * pairs / workers: rows grow longer down the triangle, so the cuts
  // follow pair count, not group count, and depend only on (n, workers).
  const auto pairs_before = [&](std::size_t g) {
    const std::size_t rows = std::min(n, g * kLanes);
    return rows < 2 ? 0 : rows * (rows - 1) / 2;
  };
  const auto first_group = [&](std::size_t w) {
    const std::size_t target = pairs * w / workers;
    std::size_t g = 0;
    while (pairs_before(g) < target) ++g;
    return g;
  };
  util::parallel_for(
      workers,
      [&](std::size_t w_begin, std::size_t w_end) {
        LaneGroupScorer scorer(slots);
        std::array<double, kLanes> sim{};
        const std::size_t g_end = first_group(w_end);
        for (std::size_t g = first_group(w_begin); g < g_end; ++g) {
          const std::span<const KmerProfile> xs = lane_group(profiles, g);
          const std::size_t row0 = g * kLanes;
          const std::size_t row_end = row0 + xs.size();
          scorer.load(xs);
          // Columns before the group pair with every lane; columns inside
          // it pair only with the lanes below them.
          for (std::size_t j = 0; j + 1 < row_end; ++j) {
            scorer.score(profiles[j], sim);
            for (std::size_t i = std::max(row0, j + 1); i < row_end; ++i)
              d(i, j) = 1.0 - sim[i - row0];
          }
        }
      },
      static_cast<unsigned>(workers));
  return d;
}

}  // namespace salign::kmer
