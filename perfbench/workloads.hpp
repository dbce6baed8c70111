#pragma once

// The workloads, their seeded inputs and the small-job plan.
// Everything here is a pure function of the seed; the measured process
// reads the FASTA files `generate_inputs` wrote in a separate, untimed step.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workload/evolver.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  int procs;             ///< SampleAlignDConfig::num_procs
  unsigned threads;      ///< SampleAlignDConfig::threads; procs*threads == 4
  std::size_t families;  ///< batch families aligned per run
  bool serve_layers;     ///< its traced run also measures the serve layers
};

/// Batch families whose q_score is computed: the ones both workloads align.
inline constexpr std::size_t kScoredFamilies = 2;

// The p=4 wall time follows the bucket imbalance, which changes from family
// to family (one family per run spread 22% over seeds 1-5), so rose2k-p4
// averages twelve. The p=1 time barely depends on the family; rose2k-p1
// aligns the first five of the same twelve so that its run, and the slices
// of the small-job loop spread over it, last about as long as rose2k-p4's:
// with two families its job latencies sampled too short a stretch of a
// host whose speed drifts over minutes.
inline constexpr Workload kWorkloads[] = {
    {"rose2k-p1", 1, 4, 5, false},
    {"rose2k-p4", 4, 1, 12, true},
};

/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] const Workload& find_workload(std::string_view name);

// The batch families: the abstract's 2000 x 300 at the Fig. 4/5
// relatedness.
inline constexpr std::size_t kMainN = 2000;
inline constexpr std::size_t kMainLength = 300;
inline constexpr double kRelatedness = 800.0;

// The small-job mix: 100 submissions, a third of them re-sending an input
// already sent. Job sizes are stratified over [40, 300] and every other
// stratum is the one re-sent, so the sizes of the 100 sends form the same
// multiset on every seed; the seed picks the sequences, the offset of the
// send order (see job_plan) and the arrival jitter.
inline constexpr std::size_t kJobs = 100;
inline constexpr std::size_t kJobMinN = 40;
inline constexpr std::size_t kJobMaxN = 300;
inline constexpr std::size_t kJobLength = 250;
/// Open-loop arrival rate of the serve phase; keeps the daemon about 40%
/// busy on a quiet host.
inline constexpr double kJobRate = 3.3;
/// Latency limit of goodput: several times the p90 seen on seed 1.
inline constexpr double kLatencyLimit = 2.0;

/// Setups measured per run; setup_s reports their median.
inline constexpr std::size_t kSetupRepeats = 15;

/// A ROSE-style family at rose_sequences' calibration with the true
/// alignment recorded. For (kMainN, kMainLength, seed) the sequences equal
/// `salign generate --kind rose --n 2000 --length 300 --seed <seed>`.
/// Batch family k of a run uses family_seed(seed, k); family 0 is the
/// seed's own.
[[nodiscard]] salign::workload::Family rose_family(std::size_t n,
                                                   std::size_t length,
                                                   std::uint64_t seed,
                                                   const std::string& prefix);
[[nodiscard]] std::uint64_t family_seed(std::uint64_t seed, std::size_t k);

struct Submission {
  std::size_t input = 0;  ///< index into JobPlan::sizes
  double due = 0.0;       ///< send time, seconds after the schedule starts
  bool resend = false;    ///< re-sends an input already sent this run
};

struct JobPlan {
  std::vector<std::size_t> sizes;   ///< N of each distinct input
  std::vector<std::uint64_t> seeds; ///< family seed of each distinct input
  std::vector<Submission> sends;    ///< in send order
  double span = 0.0;                ///< schedule length: kJobs / kJobRate
};

[[nodiscard]] JobPlan job_plan(std::uint64_t seed);

/// File layout of one run's generated inputs.
struct InputFiles {
  std::string dir;
  [[nodiscard]] std::string main_fasta(std::size_t k) const;
  [[nodiscard]] std::string main_ref(std::size_t k) const;
  [[nodiscard]] std::string warmup() const { return dir + "/warmup.fasta"; }
  [[nodiscard]] std::string job_fasta(std::size_t i) const;
};

/// Writes what `w` reads: its batch families, the distinct inputs of the
/// job plan, and the small warm-up input.
void generate_inputs(const Workload& w, std::uint64_t seed,
                     const InputFiles& files);

[[nodiscard]] salign::msa::Alignment read_reference(const std::string& path);

}  // namespace perfbench
