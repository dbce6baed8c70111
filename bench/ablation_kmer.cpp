// Ablation C: sensitivity to the k-mer size and the sample
// count k' (the paper's k, default p-1).
//
// The paper fixes k-mer parameters implicitly (via MUSCLE's distance) and
// uses k' = p-1 samples per processor. This bench sweeps both knobs and
// reports (a) how well sample-based ranks preserve the centralized rank
// ordering and (b) the pipeline's load factor — the two quantities the
// sampling scheme exists to serve.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/sample_align_d.hpp"
#include "kmer/kmer_rank.hpp"
#include "util/table.hpp"
#include "workload/rose.hpp"

namespace {

/// Pairwise order agreement between two rank vectors (1.0 = same ordering).
double order_agreement(const std::vector<double>& a,
                       const std::vector<double>& b) {
  std::size_t agree = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      if (a[i] == a[j]) continue;
      ++total;
      if ((a[i] < a[j]) == (b[i] < b[j])) ++agree;
    }
  return total ? static_cast<double>(agree) / static_cast<double>(total) : 1.0;
}

}  // namespace

int main() {
  using namespace salign;
  const double factor = bench::scale(0.1);
  const std::size_t n = bench::scaled(5000, factor, 64);
  bench::banner("Ablation C: k-mer size and sample-count sensitivity",
                "paper §2 (k-mer rank) and §2.3.2 (k = p-1 samples)", factor);

  const auto seqs = workload::rose_sequences(
      {.num_sequences = n, .average_length = 200, .relatedness = 800,
       .seed = 31337});
  const int p = 8;

  // (a) k-mer size sweep: ordering fidelity of sample-based ranks.
  std::printf("--- k-mer size sweep (p=%d, k'=p-1 samples/proc) ---\n", p);
  util::Table tk({"k", "compressed", "order agreement vs centralized"});
  std::vector<bio::Sequence> sample;
  for (std::size_t i = 0; i < static_cast<std::size_t>(p * (p - 1)); ++i)
    sample.push_back(seqs[(i * seqs.size()) / (p * (p - 1))]);
  // Each alphabet up to its largest k (kmer::kDenseTableLimit): 4 on the
  // compressed alphabet, 3 on plain amino acids.
  for (const bool compressed : {true, false}) {
    for (int k = 2; k <= (compressed ? 4 : 3); ++k) {
      const kmer::KmerParams params{k, compressed};
      const auto central = kmer::centralized_ranks(seqs, params);
      const auto global = kmer::globalized_ranks(seqs, sample, params);
      tk.add_row({std::to_string(k), compressed ? "yes" : "no",
                  util::fmt("%.3f", order_agreement(central, global))});
    }
  }
  std::printf("%s\n", tk.to_string().c_str());

  // (b) sample count sweep: pipeline load factor.
  std::printf("--- sample count sweep (pipeline, p=%d) ---\n", p);
  util::Table ts({"samples/proc", "load factor", "modeled s"});
  for (int k : {1, 3, 7, 15, 31}) {
    core::SampleAlignDConfig cfg;
    cfg.num_procs = p;
    cfg.samples_per_proc = k;
    core::PipelineStats stats;
    (void)core::SampleAlignD(cfg).align(seqs, &stats);
    ts.add_row({std::to_string(k), util::fmt("%.2f", stats.load_factor()),
                util::fmt("%.3f", stats.modeled_seconds())});
    std::printf("k'=%d done\n", k);
  }
  std::printf("\n%s\n", ts.to_string().c_str());
  std::printf("expected: agreement grows with k then saturates; more "
              "samples tighten the load factor toward 1.0 at slightly "
              "higher sample-exchange cost (paper's default k'=p-1=%d).\n",
              p - 1);
  return 0;
}
