// Ablation B: what does the global-ancestor tweak buy?
//
// The paper's Fig. 2 argues the ancestor-constrained profile alignment is
// what turns p independent bucket alignments into one coherent global MSA.
// This bench runs the pipeline with and without the ancestor stage (the
// fallback is block-diagonal concatenation) and reports SP score, Q-score
// against the evolver's exact reference, and the number of columns.

#include <cstdio>

#include "bench_common.hpp"
#include "core/sample_align_d.hpp"
#include "msa/scoring.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/prefab.hpp"

int main() {
  using namespace salign;
  const double factor = bench::scale(0.4);
  bench::banner("Ablation B: effect of the global-ancestor tweak",
                "paper §2.3.3 / Fig. 2 (ancestor-constrained glue)", factor);

  workload::PrefabParams pp;
  pp.num_cases = std::max<std::size_t>(4, static_cast<std::size_t>(16 * factor));
  pp.min_length = 100;
  pp.max_length = 220;
  const auto cases = workload::prefab_cases(pp);

  const auto& b62 = bio::SubstitutionMatrix::blosum62();
  const auto gaps = b62.default_gaps();

  util::Table t({"configuration", "mean Q", "mean SP", "mean columns"});
  for (const bool with_ancestor : {true, false}) {
    core::SampleAlignDConfig cfg;
    cfg.num_procs = 4;
    cfg.ancestor_refinement = with_ancestor;
    util::RunningStats q;
    util::RunningStats sp;
    util::RunningStats cols;
    for (const auto& c : cases) {
      const msa::Alignment a = core::SampleAlignD(cfg).align(c.sequences);
      q.add(msa::q_score(a, c.reference));
      sp.add(msa::sp_score(a, b62, gaps));
      cols.add(static_cast<double>(a.num_cols()));
    }
    t.add_row({with_ancestor ? "with global ancestor (paper)"
                             : "no ancestor (block-diagonal glue)",
               util::fmt("%.3f", q.mean()), util::fmt("%.0f", sp.mean()),
               util::fmt("%.0f", cols.mean())});
    std::printf("%s done\n",
                with_ancestor ? "ancestor on" : "ancestor off");
  }
  std::printf("\n%s\n", t.to_string().c_str());
  std::printf("expected: the ancestor configuration dominates on all three "
              "columns — cross-bucket residues only align through the "
              "shared ancestor coordinate system.\n");
  return 0;
}
