#include "bench.hpp"

#include <algorithm>

#include "bio/fasta.hpp"
#include "core/sample_align_d.hpp"
#include "trace.hpp"

namespace perfbench {

namespace sa = salign;

sa::core::SampleAlignDConfig workload_config(const Workload& w) {
  sa::core::SampleAlignDConfig cfg;
  cfg.num_procs = w.procs;
  cfg.threads = w.threads;
  return cfg;
}

ClosedLoop::ClosedLoop(JobPlan plan, const InputFiles& inputs)
    : plan_(std::move(plan)), inputs_(inputs) {
  // Sequential small jobs: a job whose ranks or threads synchronise across
  // all four cores stalls whenever any one of them is taken by the host,
  // which made their latency swing by half between runs.
  cfg_.num_procs = 1;
  cfg_.threads = 1;
}

void ClosedLoop::run(std::size_t count, Report& rep) {
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  for (; count > 0 && next_ < plan_.sends.size(); --count) {
    const Submission& s = plan_.sends[next_++];
    rep.attempt();
    try {
      const double j0 = now_s();
      const auto seqs = sa::bio::read_fasta_file(inputs_.job_fasta(s.input));
      const sa::msa::Alignment aln = sa::core::SampleAlignD(cfg_).align(seqs);
      const double latency = now_s() - j0;
      if (const std::string d = check_alignment(aln, seqs); !d.empty()) {
        rep.fail("job " + std::to_string(s.input) + ": " + d);
        continue;
      }
      latencies_.push_back(latency);
      if (latency <= kLatencyLimit) ++within_limit_;
    } catch (const std::exception& e) {
      rep.fail(std::string("job: ") + e.what());
    }
  }
  busy_s_ += now_s() - t0;
  cpu_s_ += process_cpu_s() - cpu0;
}

void ClosedLoop::report(Report& rep) const {
  const std::size_t n = latencies_.size();
  rep.set("job_latency_p50_s", guarded_percentile(latencies_, 0.5), n);
  rep.set("job_latency_p90_s", guarded_percentile(latencies_, 0.9), n);
  rep.set("goodput_jobs_per_s", static_cast<double>(within_limit_) / busy_s_, n);
  rep.set("cpu_per_job_s", cpu_s_ / static_cast<double>(std::max<std::size_t>(n, 1)),
          n);
}

void set_layer_metrics(Report& rep, const LayerTotals& t, double fasta_read_s) {
  const std::size_t aligns = t.load_factors.size();
  rep.set("bio.fasta_read_s", fasta_read_s, 1);
  rep.set("kmer.distance_s", t.kmer_distance_s, t.align_calls);
  rep.set("kmer.distance_pairs", t.kmer_pairs, t.align_calls);
  rep.set("kmer.distance_pairs_per_s",
          t.kmer_distance_s > 0.0 ? t.kmer_pairs / t.kmer_distance_s : 0.0,
          t.align_calls);
  rep.set("kmer.rank_s", t.kmer_rank_s, aligns);
  rep.set("msa.align_calls", static_cast<double>(t.align_calls), t.align_calls);
  rep.set("msa.bucket_align_s", t.bucket_align_s, t.align_calls);
  rep.set("msa.bucket_align_max_s", t.bucket_align_max_s, t.align_calls);
  rep.set("msa.guide_tree_s", t.guide_tree_s, t.align_calls);
  rep.set("msa.progressive_s", t.progressive_s, t.align_calls);
  rep.set("core.self_s", t.core_self_s, aligns);
  double load = 0.0;
  for (const double f : t.load_factors) load += f;
  rep.set("core.load_factor", aligns > 0 ? load / static_cast<double>(aligns) : 0.0,
          aligns);
  rep.set("core.straggler_wait_s", t.straggler_wait_s, aligns);
  rep.set("par.wire_bytes", t.wire_bytes, aligns);
  rep.set("util.cpu_per_wall",
          t.traced_wall_s > 0.0 ? t.traced_cpu_s / t.traced_wall_s : 0.0, aligns);
  rep.set("trace.overhead_frac",
          t.untraced_wall_s > 0.0 ? t.traced_wall_s / t.untraced_wall_s - 1.0 : 0.0,
          aligns);
  rep.set("kmer.distance_share_of_bucket_align",
          t.bucket_align_s > 0.0 ? t.kmer_distance_s / t.bucket_align_s : 0.0,
          t.align_calls);
  rep.set("msa.progressive_share_of_bucket_align",
          t.bucket_align_s > 0.0 ? t.progressive_s / t.bucket_align_s : 0.0,
          t.align_calls);
  rep.set("core.self_share_of_align_wall",
          t.traced_wall_s > 0.0 ? t.core_self_s / t.traced_wall_s : 0.0, aligns);
}

void set_serve_layers_absent(Report& rep) {
  for (const char* name :
       {"core.checkpoint_bytes_per_job", "cache.lookups", "cache.hit_ratio",
        "cache.hit_bytes", "serve.boot_s", "serve.submit_rtt_p50_s",
        "serve.queue_wait_p50_s", "serve.queue_wait_p90_s", "serve.exec_p50_s",
        "serve.shed", "serve.failed", "serve.generator_lag_max_s"})
    rep.set(name, 0.0, 0);
}

}  // namespace perfbench
