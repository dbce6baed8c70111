// Extension bench (paper §5, future work): quality on BAliBASE-like and
// SABmark-like suites.
//
// The paper's conclusions name BAliBASE, SMART and SABmark as the
// benchmarks to evaluate next, noting that "these benchmarks are not
// designed to access the quality of the alignments produced in a
// distributed manner". This bench implements that evaluation with the
// library's simulated suites:
//   - BAliBASE-like: five structural categories (RV1-RV5 analogues), scored
//     on core blocks (Q and TC restricted to the core-column mask);
//   - SABmark-like: superfamily + twilight tiers, scored on full
//     references.
// Expected shape: every method degrades from RV1 toward RV4/RV5 and from
// superfamily to twilight; Sample-Align-D tracks its sequential aligner
// within a modest gap (the distributed glue costs quality on small sets,
// as the paper's own PREFAB observation says).

#include <cstdio>
#include <functional>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "core/sample_align_d.hpp"
#include "msa/clustalw_like.hpp"
#include "msa/muscle_like.hpp"
#include "msa/scoring.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/balibase.hpp"
#include "workload/sabmark.hpp"

int main() {
  using namespace salign;
  const double factor = bench::scale(1.0);
  bench::banner("Quality on BAliBASE-like and SABmark-like suites",
                "Saeed & Khokhar 2008, §5 (future work: BAliBASE/SABmark)",
                factor);

  using AlignFn =
      std::function<msa::Alignment(std::span<const bio::Sequence>)>;
  struct Method {
    const char* label;
    AlignFn fn;
  };

  msa::MuscleOptions refined;
  refined.refine_passes = 2;
  core::SampleAlignDConfig sad_cfg;
  sad_cfg.num_procs = 4;
  core::SampleAlignDConfig sad_polish = sad_cfg;
  sad_polish.polish_divergent = true;
  sad_polish.polish.passes = 2;

  const std::vector<Method> methods{
      {"Sample-Align-D (p=4)",
       [&](std::span<const bio::Sequence> s) {
         return core::SampleAlignD(sad_cfg).align(s);
       }},
      {"Sample-Align-D+polish",
       [&](std::span<const bio::Sequence> s) {
         return core::SampleAlignD(sad_polish).align(s);
       }},
      {"MUSCLE",
       [&](std::span<const bio::Sequence> s) {
         return msa::MuscleAligner(refined).align(s);
       }},
      {"CLUSTALW",
       [&](std::span<const bio::Sequence> s) {
         return msa::ClustalWAligner().align(s);
       }},
  };

  // ---- BAliBASE-like: per-category core-block scores ----------------------
  workload::BalibaseParams bp;
  bp.cases_per_category =
      std::max<std::size_t>(2, static_cast<std::size_t>(3 * factor));
  bp.root_length = bench::scaled(180, factor, 80);
  const auto cases = workload::balibase_cases(bp);
  std::printf("BAliBASE-like: %zu cases (%zu per category), core-block "
              "scoring\n\n",
              cases.size(), bp.cases_per_category);

  util::Table bt({"method", "RV1 Q", "RV2 Q", "RV3 Q", "RV4 Q", "RV5 Q",
                  "mean TC(core)"});
  std::map<std::string, std::map<workload::BalibaseCategory, double>> bb_q;
  for (const Method& m : methods) {
    std::map<workload::BalibaseCategory, util::RunningStats> per_cat;
    util::RunningStats tc_all;
    for (const auto& c : cases) {
      const msa::Alignment a = m.fn(c.sequences);
      per_cat[c.category].add(msa::q_score(a, c.reference, c.core_columns));
      tc_all.add(msa::tc_score(a, c.reference, c.core_columns));
    }
    for (auto& [cat, stats] : per_cat) bb_q[m.label][cat] = stats.mean();
    bt.add_row(
        {m.label,
         util::fmt("%.3f", per_cat[workload::BalibaseCategory::Equidistant]
                               .mean()),
         util::fmt("%.3f",
                   per_cat[workload::BalibaseCategory::Orphan].mean()),
         util::fmt("%.3f",
                   per_cat[workload::BalibaseCategory::Subfamilies].mean()),
         util::fmt("%.3f",
                   per_cat[workload::BalibaseCategory::Extensions].mean()),
         util::fmt("%.3f",
                   per_cat[workload::BalibaseCategory::Insertions].mean()),
         util::fmt("%.3f", tc_all.mean())});
    std::printf("%-22s done\n", m.label);
  }
  std::printf("\n%s\n", bt.to_string().c_str());

  // ---- SABmark-like: per-tier scores --------------------------------------
  workload::SabmarkParams sp;
  sp.groups_per_tier =
      std::max<std::size_t>(3, static_cast<std::size_t>(6 * factor));
  const auto groups = workload::sabmark_groups(sp);
  std::printf("SABmark-like: %zu groups (%zu per tier)\n\n", groups.size(),
              sp.groups_per_tier);

  util::Table st({"method", "superfamily Q", "twilight Q"});
  std::map<std::string, std::pair<double, double>> sb_q;
  for (const Method& m : methods) {
    util::RunningStats super;
    util::RunningStats twilight;
    for (const auto& g : groups) {
      const msa::Alignment a = m.fn(g.sequences);
      (g.tier == workload::SabmarkTier::Superfamily ? super : twilight)
          .add(msa::q_score(a, g.reference));
    }
    sb_q[m.label] = {super.mean(), twilight.mean()};
    st.add_row({m.label, util::fmt("%.3f", super.mean()),
                util::fmt("%.3f", twilight.mean())});
  }
  std::printf("%s\n", st.to_string().c_str());

  std::printf("shape checks:\n");
  bool harder_categories_degrade = true;
  for (const auto& [label, per_cat] : bb_q) {
    const double rv1 = per_cat.at(workload::BalibaseCategory::Equidistant);
    const double rv3 = per_cat.at(workload::BalibaseCategory::Subfamilies);
    if (rv3 > rv1 + 0.1) harder_categories_degrade = false;
  }
  std::printf("  RV3 (subfamilies) never beats RV1 by >0.1: %s\n",
              harder_categories_degrade ? "yes" : "NO");
  bool twilight_harder = true;
  for (const auto& [label, qs] : sb_q)
    if (qs.second > qs.first + 0.05) twilight_harder = false;
  std::printf("  twilight tier scores below superfamily for every method: "
              "%s\n",
              twilight_harder ? "yes" : "NO");
  const bool polish_helps =
      bb_q["Sample-Align-D+polish"]
          .at(workload::BalibaseCategory::Subfamilies) >=
      bb_q["Sample-Align-D (p=4)"]
              .at(workload::BalibaseCategory::Subfamilies) -
          0.02;
  std::printf("  divergent polish does not hurt the hardest category: %s\n",
              polish_helps ? "yes" : "NO");
  return 0;
}
