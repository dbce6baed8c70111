// One run of a workload: one SampleAlignD::align per 2000 x 300 family,
// interleaved with the closed loop of small jobs.

#include "bench.hpp"
#include "bio/fasta.hpp"
#include "core/sample_align_d.hpp"
#include "msa/scoring.hpp"
#include "trace.hpp"

namespace perfbench {

namespace sa = salign;

void run_batch(const RunArgs& a, Report& rep) {
  const sa::core::SampleAlignDConfig cfg = workload_config(*a.workload);
  Tracer tracer;
  Tracer* tr = a.trace ? &tracer : nullptr;
  // The traced run covers family 0 only; the per-layer metrics need one.
  const std::size_t families = a.trace ? 1 : a.workload->families;

  // Set-up: read the inputs, build the config, align a small unrelated
  // input so the pool threads exist. The first one counts from process
  // start. The repeats run between the family alignments, like the job
  // loop, so their median samples the whole run and not the host's speed
  // in its first second.
  std::vector<std::vector<sa::bio::Sequence>> inputs(families);
  std::vector<double> setups;
  double fasta_read_s = 0.0;
  const auto set_up = [&](double t0) {
    const double f0 = now_s();
    for (std::size_t k = 0; k < families; ++k) {
      ScopedSpan span(tr, "bio.read_fasta");
      inputs[k] = sa::bio::read_fasta_file(a.inputs.main_fasta(k));
    }
    fasta_read_s = now_s() - f0;
    const auto warm = sa::bio::read_fasta_file(a.inputs.warmup());
    (void)sa::core::SampleAlignD(cfg).align(warm);
    setups.push_back(now_s() - t0);
  };
  set_up(0.0);

  if (a.trace) {
    rep.attempt(2);
    const double t0 = now_s();
    const sa::msa::Alignment aln = sa::core::SampleAlignD(cfg).align(inputs[0]);
    LayerTotals totals;
    totals.untraced_wall_s = now_s() - t0;
    if (const std::string d = check_alignment(aln, inputs[0]); !d.empty())
      rep.fail("untraced: " + d);
    if (const std::string d =
            traced_align(cfg, inputs[0], fasta_text(aln), tracer, 0, totals);
        !d.empty())
      rep.fail(d);
    set_layer_metrics(rep, totals, fasta_read_s);
    if (a.workload->serve_layers)
      measure_serve_layers(a, tracer, rep);
    else
      set_serve_layers_absent(rep);
    tracer.write_chrome_trace(a.trace_out);
    return;
  }
  // The small-job loop runs in equal slices before, between and after the
  // family alignments, so its latencies sample the whole run rather than
  // one stretch of it: the host's speed swings over seconds as well as
  // minutes.
  ClosedLoop loop(job_plan(a.seed), a.inputs);
  const std::size_t jobs = loop.remaining();
  const std::size_t slices = families + 1;
  const auto slice = [&](std::size_t w) {
    loop.run((w + 1) * jobs / slices - w * jobs / slices, rep);
  };
  double wall = 0.0;
  double cpu = 0.0;
  double q = 0.0;
  const std::size_t repeats = kSetupRepeats - 1;
  for (std::size_t k = 0; k < families; ++k) {
    for (std::size_t r = k * repeats / families; r < (k + 1) * repeats / families; ++r)
      set_up(now_s());
    slice(k);
    rep.attempt();
    try {
      const double cpu0 = process_cpu_s();
      const double t0 = now_s();
      const sa::msa::Alignment aln = sa::core::SampleAlignD(cfg).align(inputs[k]);
      wall += now_s() - t0;
      cpu += process_cpu_s() - cpu0;
      if (const std::string d = check_alignment(aln, inputs[k]); !d.empty())
        rep.fail("family " + std::to_string(k) + ": " + d);
      // Q costs O(columns x rows^2) at N=2000, about as much as a p=4
      // alignment, so it is scored on the two families both batch
      // workloads share.
      if (k < kScoredFamilies)
        q += sa::msa::q_score(aln, read_reference(a.inputs.main_ref(k)));
    } catch (const std::exception& e) {
      rep.fail("family " + std::to_string(k) + ": " + e.what());
    }
  }
  slice(families);
  rep.set("setup_s", median(setups), setups.size());
  const auto n = static_cast<double>(families);
  rep.set("align_wall_s", wall / n, families);
  rep.set("align_cpu_s", cpu / n, families);
  rep.set("q_score", q / static_cast<double>(kScoredFamilies), kScoredFamilies);

  loop.report(rep);
  rep.set("peak_rss_mb", peak_rss_mb(), 1);
  rep.set("success_frac",
          1.0 - static_cast<double>(rep.failed()) /
                    static_cast<double>(rep.attempted()),
          rep.attempted());
}

}  // namespace perfbench
