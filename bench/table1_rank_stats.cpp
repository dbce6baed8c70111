// Reproduces paper Table 1: statistical comparison of the k-mer rank
// computed on a globalized (sample-based) system vs the centralized system,
// for 5000 sequences.
//
// Paper values: central (max, min) = (1.44827, 0.0), mean 0.722962;
// globalized (max, min) = (1.46207, 0.0), mean 1.11302; stddev of the two
// rank sets w.r.t. each other 0.576377. The shape claims to reproduce:
// globalized mean exceeds centralized mean, maxima nearly coincide, and the
// per-sequence deviation is a sizable fraction of the rank range.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "kmer/kmer_rank.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/rose.hpp"

int main() {
  using namespace salign;
  const double factor = bench::scale(0.2);
  const std::size_t n = bench::scaled(5000, factor);
  bench::banner("Table 1: globalized vs centralized k-mer rank statistics",
                "Saeed & Khokhar 2008, Table 1 (5000 sequences)", factor);

  const auto seqs = workload::rose_sequences(
      {.num_sequences = n, .average_length = 300, .relatedness = 800,
       .seed = 5000});

  const int p = 16;
  const std::size_t chunk = (n + p - 1) / p;
  std::vector<bio::Sequence> samples;
  for (int r = 0; r < p; ++r) {
    const std::size_t b = std::min(n, static_cast<std::size_t>(r) * chunk);
    const std::size_t e = std::min(n, b + chunk);
    const std::size_t w = e - b;
    if (w == 0) continue;
    for (std::size_t i = 0; i < static_cast<std::size_t>(p - 1) && i < w; ++i)
      samples.push_back(seqs[b + std::min(w - 1, (i + 1) * w / p)]);
  }

  const std::vector<double> central = kmer::centralized_ranks(seqs, {});
  const std::vector<double> global = kmer::globalized_ranks(seqs, samples, {});

  const auto sc = util::summarize(central);
  const auto sg = util::summarize(global);
  util::RunningStats dev;  // per-sequence deviation globalized - centralized
  for (std::size_t i = 0; i < central.size(); ++i)
    dev.add(global[i] - central[i]);
  double var_wrt_central = 0.0;
  for (std::size_t i = 0; i < central.size(); ++i)
    var_wrt_central += (global[i] - central[i]) * (global[i] - central[i]);
  var_wrt_central /= static_cast<double>(central.size());

  util::Table t({"quantity", "paper", "measured"});
  t.add_row({"(max, min) central", "(1.44827, 0.0)",
             "(" + util::fmt("%.5f", sc.max()) + ", " +
                 util::fmt("%.5f", sc.min()) + ")"});
  t.add_row({"average centralized", "0.722962", util::fmt("%.6f", sc.mean())});
  t.add_row({"(max, min) globalized", "(1.46207, 0.0)",
             "(" + util::fmt("%.5f", sg.max()) + ", " +
                 util::fmt("%.5f", sg.min()) + ")"});
  t.add_row({"average globalized", "1.11302", util::fmt("%.6f", sg.mean())});
  t.add_row({"variance w.r.t. centralized", "0.33190",
             util::fmt("%.5f", var_wrt_central)});
  t.add_row({"stddev w.r.t. centralized", "0.576377",
             util::fmt("%.6f", std::sqrt(var_wrt_central))});
  std::printf("%s\n", t.to_string().c_str());

  std::printf("shape checks:\n");
  std::printf("  globalized mean > centralized mean: %s\n",
              sg.mean() > sc.mean() ? "yes (matches paper)" : "NO");
  std::printf("  maxima within 10%% of each other:    %s\n",
              std::abs(sg.max() - sc.max()) < 0.1 * sc.max()
                  ? "yes (matches paper)"
                  : "NO");
  return 0;
}
