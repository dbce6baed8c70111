// Reproduces paper Fig. 5: speedup of Sample-Align-D vs number of
// processors for N = 5000, 10000, 20000. The paper observes *superlinear*
// speedup — the sequential MSA cost falls as O((N/p)^2 ... (N/p)^4), so
// p-fold partitioning removes more than p-fold work — with a knee at p=16
// for the smaller data sets (per-bucket granularity becomes too fine).
//
// Two speedups are printed, and neither is measured: the modeled one is
// computed from the modeled dedicated-cluster makespan (see
// fig4_scalability.cpp for why), the projected one from the paper's w^4
// cost model applied to the run's bucket sizes. The superlinearity check
// is projected speedup(p) > p.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/sample_align_d.hpp"
#include "util/table.hpp"
#include "workload/rose.hpp"

int main() {
  using namespace salign;
  const double factor = bench::scale(0.1);
  bench::banner("Fig 5: speedup vs processors (superlinear)",
                "Saeed & Khokhar 2008, Fig. 5", factor);

  const std::vector<std::size_t> paper_ns{5000, 10000, 20000};
  const std::vector<int> procs{1, 4, 8, 12, 16};

  util::Table t({"paper N", "run N", "p", "modeled s", "speedup (modeled)",
                 "speedup (projected, paper w^4)", "superlinear (projected)?"});
  for (std::size_t paper_n : paper_ns) {
    const std::size_t n = bench::scaled(paper_n, factor, 32);
    const auto seqs = workload::rose_sequences(
        {.num_sequences = n, .average_length = 300, .relatedness = 800,
         .seed = paper_n + 1});
    double t1 = 0.0;
    for (int p : procs) {
      core::SampleAlignDConfig cfg;
      cfg.num_procs = p;
      core::PipelineStats stats;
      (void)core::SampleAlignD(cfg).align(seqs, &stats);
      const double tp = stats.modeled_seconds();
      if (p == 1) t1 = tp;
      const double speedup = tp > 0.0 ? t1 / tp : 0.0;
      std::size_t max_bucket = 0;
      for (std::size_t b : stats.bucket_sizes)
        max_bucket = std::max(max_bucket, b);
      const double projected =
          bench::paper_model_speedup(n, max_bucket, 300.0);
      t.add_row({std::to_string(paper_n), std::to_string(n),
                 std::to_string(p), util::fmt("%.3f", tp),
                 util::fmt("%.2f", speedup), util::fmt("%.1f", projected),
                 p == 1 ? "-" : (projected > p ? "yes" : "no")});
      std::printf("N=%zu p=%2d modeled %.3f s (modeled speedup %.2f, "
                  "projected paper-w^4 speedup %.1f)\n",
                  n, p, tp, speedup, projected);
    }
  }
  std::printf("\n%s\n", t.to_string().c_str());
  std::printf(
      "paper claim: superlinear speedup; curves dip at p=16 for N<=10000.\n"
      "reading the two speedup columns:\n"
      " - modeled: p=1 over p of the modeled makespan (per-stage max rank\n"
      "   thread-CPU time plus the 2008 GigE wire model), not a measured\n"
      "   wall. Our MiniMuscle is the efficient O(w^2 + wL^2) pipeline, so\n"
      "   it is bounded by ~p^2 in the quadratic regime and grows with N\n"
      "   (granularity knee at p>=12 for the small sets);\n"
      " - projected (paper w^4): the paper's own step-7 cost model applied\n"
      "   to our bucket sizes (unit constants, no communication) — the\n"
      "   upper envelope that makes the published curves superlinear; the\n"
      "   paper's measured ~45x at p=16 sits between the two columns.\n");
  return 0;
}
