// Ablation A: why regular sampling?
//
// The paper justifies regular sampling over alternatives (e.g. Huang &
// Chow) with three arguments: distribution independence, ~equal ordered
// buckets, and the 2N/p worst-case bound. This bench compares the pivot
// strategies head-to-head on uniform, skewed and clustered rank
// distributions, reporting the load factor max_bucket / (N/p).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/partition.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using salign::core::bucket_histogram;
using salign::core::choose_pivots;
using salign::core::regular_samples;

/// PSRS pivots: per-block local sort + regular samples + pooled selection.
std::vector<double> psrs_pivots(const std::vector<double>& keys, int p) {
  const std::size_t n = keys.size();
  const std::size_t chunk = (n + static_cast<std::size_t>(p) - 1) /
                            static_cast<std::size_t>(p);
  std::vector<double> pooled;
  for (int r = 0; r < p; ++r) {
    const std::size_t b = std::min(n, static_cast<std::size_t>(r) * chunk);
    const std::size_t e = std::min(n, b + chunk);
    std::vector<double> local(keys.begin() + static_cast<long>(b),
                              keys.begin() + static_cast<long>(e));
    std::sort(local.begin(), local.end());
    const auto s = regular_samples(local, static_cast<std::size_t>(p - 1));
    pooled.insert(pooled.end(), s.begin(), s.end());
  }
  return choose_pivots(std::move(pooled), p);
}

/// Naive alternative: p-1 uniformly random keys as pivots (the strategy
/// regular sampling replaces).
std::vector<double> random_pivots(const std::vector<double>& keys, int p,
                                  salign::util::Rng& rng) {
  std::vector<double> piv;
  for (int i = 0; i < p - 1; ++i)
    piv.push_back(keys[rng.below(keys.size())]);
  std::sort(piv.begin(), piv.end());
  return piv;
}

/// Range-split alternative: pivots evenly spaced in *value* space (assumes
/// uniformity; Huang-Chow-style distribution sensitivity).
std::vector<double> range_pivots(const std::vector<double>& keys, int p) {
  const auto [lo_it, hi_it] = std::minmax_element(keys.begin(), keys.end());
  std::vector<double> piv;
  for (int i = 1; i < p; ++i)
    piv.push_back(*lo_it + (*hi_it - *lo_it) * i / p);
  return piv;
}

double load_factor(const std::vector<double>& keys,
                   const std::vector<double>& pivots, int p) {
  const auto h = bucket_histogram(keys, pivots);
  std::size_t mx = 0;
  for (std::size_t c : h) mx = std::max(mx, c);
  return static_cast<double>(mx) /
         (static_cast<double>(keys.size()) / static_cast<double>(p));
}

}  // namespace

int main() {
  using namespace salign;
  const double factor = bench::scale(1.0);
  const std::size_t n = bench::scaled(20000, factor, 1000);
  bench::banner("Ablation A: regular sampling vs alternative pivot schemes",
                "paper §3 justification of regular sampling [26]", factor);

  util::Rng rng(77);
  struct Dist {
    const char* name;
    std::vector<double> keys;
  };
  std::vector<Dist> dists;
  {
    std::vector<double> uniform(n);
    for (auto& k : uniform) k = rng.uniform(0, 1);
    dists.push_back({"uniform", std::move(uniform)});

    std::vector<double> skewed(n);  // quadratic pile-up at the low end
    for (auto& k : skewed) {
      const double u = rng.uniform();
      k = u * u;
    }
    dists.push_back({"skewed", std::move(skewed)});

    std::vector<double> clustered(n);  // two tight families of ranks
    for (auto& k : clustered)
      k = rng.chance(0.7) ? rng.uniform(0.20, 0.25) : rng.uniform(0.8, 0.9);
    dists.push_back({"clustered", std::move(clustered)});
  }

  util::Table t({"distribution", "p", "regular (PSRS)", "random pivots",
                 "range split", "2N/p bound holds (PSRS)"});
  for (const auto& d : dists) {
    for (int p : {4, 8, 16}) {
      const double lf_psrs = load_factor(d.keys, psrs_pivots(d.keys, p), p);
      const double lf_rand =
          load_factor(d.keys, random_pivots(d.keys, p, rng), p);
      const double lf_range = load_factor(d.keys, range_pivots(d.keys, p), p);
      t.add_row({d.name, std::to_string(p), util::fmt("%.2f", lf_psrs),
                 util::fmt("%.2f", lf_rand), util::fmt("%.2f", lf_range),
                 lf_psrs <= 2.0 + 1e-9 ? "yes" : "NO (duplicate keys)"});
    }
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("load factor = max bucket / (N/p); 1.0 is perfect, PSRS "
              "guarantees <= 2.0 for distinct keys.\n"
              "Range splitting collapses on skewed/clustered ranks — the "
              "paper's reason for choosing regular sampling.\n");
  return 0;
}
