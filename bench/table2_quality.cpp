// Reproduces paper Table 2: PREFAB Q-scores for Sample-Align-D (run on a
// 4-processor system) against the sequential comparators.
//
// Paper values:
//   Sample-Align-D 0.544, MUSCLE 0.645, MUSCLE-p 0.634, T-Coffee 0.615,
//   NWNSI 0.615, FFTNSI 0.591, CLUSTALW 0.563.
//
// PREFAB itself ships structure-derived references; we substitute
// exact-history references from the evolver. The shape to
// reproduce: refined MUSCLE at the top, consistency/iterative methods in the
// middle band, CLUSTALW below them, and Sample-Align-D comparable to
// CLUSTALW — the paper's own observation that domain decomposition on sets
// of 20-30 sequences over 4 processors is "too fine grain" and costs some
// quality versus the sequential aligner it wraps.

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/sample_align_d.hpp"
#include "msa/clustalw_like.hpp"
#include "msa/mafft_like.hpp"
#include "msa/muscle_like.hpp"
#include "msa/scoring.hpp"
#include "msa/tcoffee_like.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/prefab.hpp"

int main() {
  using namespace salign;
  const double factor = bench::scale(0.4);
  bench::banner("Table 2: PREFAB-style Q-scores per method",
                "Saeed & Khokhar 2008, Table 2", factor);

  workload::PrefabParams pp;
  pp.num_cases = std::max<std::size_t>(4, static_cast<std::size_t>(24 * factor));
  pp.min_length = 100;
  pp.max_length = 260;
  const auto cases = workload::prefab_cases(pp);
  std::printf("%zu PREFAB-style cases, 20-30 sequences each, divergence "
              "%.2f..%.2f\n\n",
              cases.size(), pp.min_divergence, pp.max_divergence);

  using AlignFn =
      std::function<msa::Alignment(std::span<const bio::Sequence>)>;
  struct Method {
    const char* label;
    const char* paper_q;
    AlignFn fn;
  };

  msa::MuscleOptions refined;
  refined.refine_passes = 2;
  msa::MafftOptions nw;
  nw.use_fft = false;
  msa::MafftOptions fft;
  fft.use_fft = true;
  core::SampleAlignDConfig sad_cfg;
  sad_cfg.num_procs = 4;  // the paper runs Table 2 on a 4-processor system

  const std::vector<Method> methods{
      {"Sample-Align-D (p=4)", "0.544",
       [&](std::span<const bio::Sequence> s) {
         return core::SampleAlignD(sad_cfg).align(s);
       }},
      {"MUSCLE", "0.645",
       [&](std::span<const bio::Sequence> s) {
         return msa::MuscleAligner(refined).align(s);
       }},
      {"MUSCLE-p", "0.634",
       [&](std::span<const bio::Sequence> s) {
         return msa::MuscleAligner().align(s);  // progressive only
       }},
      {"T-Coffee", "0.615",
       [&](std::span<const bio::Sequence> s) {
         return msa::TCoffeeAligner().align(s);
       }},
      {"NWNSI", "0.615",
       [&](std::span<const bio::Sequence> s) {
         return msa::MafftAligner(nw).align(s);
       }},
      {"FFTNSI", "0.591",
       [&](std::span<const bio::Sequence> s) {
         return msa::MafftAligner(fft).align(s);
       }},
      {"CLUSTALW", "0.563",
       [&](std::span<const bio::Sequence> s) {
         return msa::ClustalWAligner().align(s);
       }},
  };

  util::Table t({"method", "paper Q", "measured Q", "measured TC"});
  std::map<std::string, double> measured;
  for (const Method& m : methods) {
    util::RunningStats q;
    util::RunningStats tc;
    for (const auto& c : cases) {
      const msa::Alignment a = m.fn(c.sequences);
      q.add(msa::q_score(a, c.reference));
      tc.add(msa::tc_score(a, c.reference));
    }
    measured[m.label] = q.mean();
    t.add_row({m.label, m.paper_q, util::fmt("%.3f", q.mean()),
               util::fmt("%.3f", tc.mean())});
    std::printf("%-22s Q=%.3f\n", m.label, q.mean());
  }
  std::printf("\n%s\n", t.to_string().c_str());

  std::printf("shape checks (paper Table 2 ordering):\n");
  std::printf("  refined MUSCLE >= progressive MUSCLE: %s\n",
              measured["MUSCLE"] >= measured["MUSCLE-p"] - 0.02 ? "yes" : "NO");
  std::printf("  Sample-Align-D within 0.1 of CLUSTALW: %s\n",
              std::abs(measured["Sample-Align-D (p=4)"] -
                       measured["CLUSTALW"]) < 0.1
                  ? "yes (paper: 0.544 vs 0.563)"
                  : "NO");
  std::printf("  Sample-Align-D below its sequential aligner: %s\n",
              measured["Sample-Align-D (p=4)"] <= measured["MUSCLE-p"] + 0.02
                  ? "yes (partitioning 20-30 seqs over 4 procs is too fine "
                    "grain — paper §4.1)"
                  : "NO");
  return 0;
}
