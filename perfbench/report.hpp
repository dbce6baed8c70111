#pragma once

// Metric names, sample statistics with the ten-beyond guard, output checks
// and the result line the measured process prints.

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "bio/sequence.hpp"
#include "msa/alignment.hpp"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Emitted with tracing off. Must match BENCHMARK.json's end_to_end list.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"align_wall_s", "s"},
    {"align_cpu_s", "s"},
    {"peak_rss_mb", "MB"},
    {"q_score", "ratio"},
    {"success_frac", "ratio"},
    {"job_latency_p50_s", "s"},
    {"job_latency_p90_s", "s"},
    {"goodput_jobs_per_s", "1/s"},
    {"cpu_per_job_s", "s"},
};

/// Emitted by the traced run. Must match BENCHMARK.json's per_layer list.
/// A layer that does not run on a workload reports 0.
inline constexpr MetricDef kPerLayer[] = {
    {"bio.fasta_read_s", "s"},
    {"kmer.distance_s", "s"},
    {"kmer.distance_pairs", "count"},
    {"kmer.distance_pairs_per_s", "1/s"},
    {"kmer.rank_s", "s"},
    {"msa.align_calls", "count"},
    {"msa.bucket_align_s", "s"},
    {"msa.bucket_align_max_s", "s"},
    {"msa.guide_tree_s", "s"},
    {"msa.progressive_s", "s"},
    {"core.self_s", "s"},
    {"core.load_factor", "ratio"},
    {"core.straggler_wait_s", "s"},
    {"core.checkpoint_bytes_per_job", "bytes"},
    {"par.wire_bytes", "bytes"},
    {"util.cpu_per_wall", "ratio"},
    {"cache.lookups", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.hit_bytes", "bytes"},
    {"serve.boot_s", "s"},
    {"serve.submit_rtt_p50_s", "s"},
    {"serve.queue_wait_p50_s", "s"},
    {"serve.queue_wait_p90_s", "s"},
    {"serve.exec_p50_s", "s"},
    {"serve.shed", "count"},
    {"serve.failed", "count"},
    {"serve.generator_lag_max_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"kmer.distance_share_of_bucket_align", "ratio"},
    {"msa.progressive_share_of_bucket_align", "ratio"},
    {"core.self_share_of_align_wall", "ratio"},
};

/// Median of repeated measurements of one quantity.
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank q-quantile of a distribution. Throws std::runtime_error
/// unless at least ten samples lie beyond it, so no tail figure ever rests
/// on a handful of samples.
[[nodiscard]] double guarded_percentile(std::vector<double> v, double q);

/// Process user+sys CPU seconds (getrusage RUSAGE_SELF).
[[nodiscard]] double process_cpu_s();
/// Peak resident set of this process in MB (ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Aligned-FASTA bytes, the form every output comparison uses.
[[nodiscard]] std::string fasta_text(const salign::msa::Alignment& aln);

/// Empty when `aln` validates and its rows degap to `seqs` in input order;
/// otherwise a one-line description of the first defect.
[[nodiscard]] std::string check_alignment(const salign::msa::Alignment& aln,
    std::span<const salign::bio::Sequence> seqs);

/// Operation accounting plus the metrics of one run. Every setter names a
/// metric of the two tables above; emit() refuses a run whose metric set
/// differs from the table of its mode.
class Report {
 public:
  void set(const std::string& name, double value, std::size_t samples);
  void attempt(std::size_t n = 1) { attempted_ += n; }
  /// Counts one failed operation and keeps the first few reasons.
  void fail(const std::string& why);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// Prints the result line: {"correct","attempted","failed","metrics",
  /// "errors"}, each metric as {"value","unit","samples"}.
  void emit(std::ostream& out, bool trace) const;

 private:
  struct Value {
    double value = 0.0;
    std::size_t samples = 0;
  };
  std::map<std::string, Value> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

}  // namespace perfbench
