#pragma once

// Run arguments, the pipeline config of a workload, the closed loop of
// small jobs, the serve phase, and the per-layer metrics of a traced run.

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct RunArgs {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  bool trace = false;
  InputFiles inputs;
  std::string work;       ///< scratch directory of this run
  std::string trace_out;  ///< Chrome trace file of a traced run
};

/// The default pipeline config at the workload's procs and threads.
[[nodiscard]] salign::core::SampleAlignDConfig workload_config(
    const Workload& w);

/// The closed loop of small jobs every run measures: each submission of the
/// job plan is a direct SampleAlignD::align (FASTA read included) at
/// procs=1, threads=1, one after another. run() takes the next slice of the
/// plan, so a caller can spread the loop over its run; report() sets
/// job_latency_p50_s, job_latency_p90_s, goodput_jobs_per_s and
/// cpu_per_job_s.
class ClosedLoop {
 public:
  ClosedLoop(JobPlan plan, const InputFiles& inputs);

  /// Runs the next `count` submissions (fewer at the end of the plan).
  void run(std::size_t count, Report& rep);
  [[nodiscard]] std::size_t remaining() const { return plan_.sends.size() - next_; }
  void report(Report& rep) const;

 private:
  salign::core::SampleAlignDConfig cfg_;
  JobPlan plan_;
  InputFiles inputs_;
  std::size_t next_ = 0;
  std::vector<double> latencies_;
  std::size_t within_limit_ = 0;
  double busy_s_ = 0.0;  ///< wall time spent inside run()
  double cpu_s_ = 0.0;
};

/// Sets the per-layer metrics that come from traced pipeline calls.
void set_layer_metrics(Report& rep, const LayerTotals& t, double fasta_read_s);

/// Runs the job plan through an in-process serve::Daemon on an open-loop
/// schedule, checks every result against a direct alignment, and sets the
/// serve, cache and checkpoint metrics.
void measure_serve_layers(const RunArgs& args, Tracer& tracer, Report& rep);

/// Sets the serve, cache and checkpoint metrics to 0 (a traced run that
/// does not run the serve phase).
void set_serve_layers_absent(Report& rep);

void run_batch(const RunArgs& args, Report& rep);

}  // namespace perfbench
