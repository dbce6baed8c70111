// Reproduces paper Fig. 4: execution time of Sample-Align-D vs number of
// processors for N = 5000, 10000, 20000 (ROSE, length 300, relatedness
// 800). The paper reports times dropping sharply with p (e.g. 20000
// sequences in ~25 s on 16 processors).
//
// Substitution note: a bench host has far fewer cores than the paper had
// nodes, so two times are reported per cell:
//   wall    — host wall-clock with p concurrent ranks (oversubscribed);
//   modeled — per-stage max rank CPU time + Beowulf/GigE wire model, i.e.
//             the dedicated-cluster makespan the paper measures.
// The modeled column is the one whose *shape* (sharp drop, diminishing
// returns by p=16 on small N) must match Fig. 4.

#include <cstdio>
#include <vector>

#include <string>

#include "bench_common.hpp"
#include "core/sample_align_d.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workload/rose.hpp"

int main() {
  using namespace salign;
  const double factor = bench::scale(0.1);
  bench::banner("Fig 4: execution time vs processors",
                "Saeed & Khokhar 2008, Fig. 4 (N=5000/10000/20000)", factor);

  const std::vector<std::size_t> paper_ns{5000, 10000, 20000};
  const std::vector<int> procs{1, 4, 8, 12, 16};

  util::Table t({"paper N", "run N", "p", "wall s", "modeled s",
                 "max bucket", "bytes"});
  for (std::size_t paper_n : paper_ns) {
    const std::size_t n = bench::scaled(paper_n, factor, 32);
    const auto seqs = workload::rose_sequences(
        {.num_sequences = n, .average_length = 300, .relatedness = 800,
         .seed = paper_n});
    for (int p : procs) {
      core::SampleAlignDConfig cfg;
      cfg.num_procs = p;
      core::PipelineStats stats;
      (void)core::SampleAlignD(cfg).align(seqs, &stats);
      std::size_t max_bucket = 0;
      for (std::size_t b : stats.bucket_sizes)
        max_bucket = std::max(max_bucket, b);
      t.add_row({std::to_string(paper_n), std::to_string(n),
                 std::to_string(p), util::fmt("%.3f", stats.wall_seconds),
                 util::fmt("%.3f", stats.modeled_seconds()),
                 std::to_string(max_bucket),
                 std::to_string(stats.total_bytes())});
      std::printf("N=%zu p=%2d done (modeled %.3f s)\n", n, p,
                  stats.modeled_seconds());
    }
  }
  std::printf("\n%s\n", t.to_string().c_str());
  std::printf("paper reference points: 20000 seqs aligned in ~25 s on 16 "
              "procs; execution time decreases sharply with p.\n");

  // Per-stage thread speedup from the PR 4 wall/CPU instrumentation: the
  // same input once with threads=1 and once with the auto thread count,
  // per-stage max wall seconds side by side. On a single-CPU container the
  // ratio degenerates to ~1 (the correctness half — thread invariance — is
  // test-pinned); on multi-core hosts this is the per-stage scaling table.
  {
    const std::size_t n = bench::scaled(5000, factor, 32);
    const auto seqs = workload::rose_sequences(
        {.num_sequences = n, .average_length = 300, .relatedness = 800,
         .seed = 5000});
    const unsigned auto_threads = util::default_threads();
    core::PipelineStats serial;
    core::PipelineStats threaded;
    {
      core::SampleAlignDConfig cfg;
      cfg.num_procs = 4;
      cfg.threads = 1;
      (void)core::SampleAlignD(cfg).align(seqs, &serial);
    }
    {
      core::SampleAlignDConfig cfg;
      cfg.num_procs = 4;
      cfg.threads = auto_threads;
      (void)core::SampleAlignD(cfg).align(seqs, &threaded);
    }
    util::Table st({"stage", "wall s (1 thr)",
                    "wall s (" + std::to_string(auto_threads) + " thr)",
                    "speedup (measured wall)"});
    for (std::size_t s = 0; s < serial.stages.size() &&
                            s < threaded.stages.size();
         ++s) {
      const double w1 = serial.stages[s].max_wall_seconds();
      const double wt = threaded.stages[s].max_wall_seconds();
      st.add_row({serial.stages[s].name, util::fmt("%.4f", w1),
                  util::fmt("%.4f", wt),
                  wt > 0.0 ? util::fmt("%.2f", w1 / wt) : "-"});
    }
    std::printf("\nper-stage thread speedup (N=%zu, p=4, %u threads):\n%s\n",
                n, auto_threads, st.to_string().c_str());
  }
  return 0;
}
