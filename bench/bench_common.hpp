#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace salign::bench {

/// Global scale knob of the figure/table benches.
///
/// The paper's experiments run at N up to 20000 on a 16-node cluster; a CI
/// container cannot re-run those sizes in minutes, so every bench scales the
/// paper's N by `SALIGN_BENCH_SCALE` (default: the per-bench value chosen so
/// the binary finishes in about a minute on two cores). Shapes — speedup
/// curves, rank distributions, quality orderings — are scale-stable, which
/// is what the benches compare against the paper.
inline double scale(double default_scale) {
  if (const char* env = std::getenv("SALIGN_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return default_scale;
}

/// Applies the scale to a paper-sized N with a sane floor.
inline std::size_t scaled(std::size_t paper_n, double factor,
                          std::size_t floor_n = 16) {
  const auto n = static_cast<std::size_t>(static_cast<double>(paper_n) *
                                          factor);
  return std::max(floor_n, n);
}

inline void banner(const char* title, const char* paper_ref, double factor) {
  std::printf("=== %s ===\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("scale: %.4f of the paper's N (override with "
              "SALIGN_BENCH_SCALE)\n\n",
              factor);
}

/// Projects the paper's §3 cost model onto a measured bucket distribution.
///
/// The paper charges step 7 (per-bucket MUSCLE) as O(w^4 + w L^2); that
/// w^4 term is where its *superlinear* Fig. 5/6 speedups come from — split
/// N sequences p ways and the dominant cost falls by p^4. Our MiniMuscle
/// implements the efficient O(w^2 + w L^2) pipeline instead, so measured
/// speedups are bounded by ~p^2 in the quadratic-dominated regime; this
/// projection applies the paper's own exponents to our measured max bucket
/// (which includes the real redistribution imbalance), reproducing the
/// published shape from the same run (Figs. 4-6).
inline double paper_model_speedup(std::size_t n, std::size_t max_bucket,
                                  double avg_len) {
  const auto fn = [avg_len](double w) {
    return w * w * w * w + w * avg_len * avg_len;
  };
  const double t1 = fn(static_cast<double>(n));
  const double tp = fn(static_cast<double>(std::max<std::size_t>(
      max_bucket, 1)));
  return tp > 0.0 ? t1 / tp : 0.0;
}

}  // namespace salign::bench
