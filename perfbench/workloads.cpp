#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "bio/fasta.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace perfbench {

namespace wl = salign::workload;

const Workload& find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

wl::Family rose_family(std::size_t n, std::size_t length, std::uint64_t seed,
                       const std::string& prefix) {
  // Mirrors workload::rose_sequences, which does not record the reference.
  wl::EvolveParams ep;
  ep.num_sequences = n;
  ep.root_length = length;
  ep.mean_branch_distance = kRelatedness / 4500.0;
  ep.indel_rate = 0.02;
  ep.record_reference = true;
  ep.seed = seed;
  ep.id_prefix = prefix;
  return wl::evolve_family(ep);
}

std::uint64_t family_seed(std::uint64_t seed, std::size_t k) {
  salign::util::SplitMix64 sm(seed);
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < k; ++i) s = sm.next();
  return s;
}

JobPlan job_plan(std::uint64_t seed) {
  salign::util::Rng rng(seed ^ 0x5e7e5e7eULL);
  const std::size_t distinct = kJobs - kJobs / 3;
  JobPlan plan;
  for (std::size_t i = 0; i < distinct; ++i) {
    const double frac =
        (static_cast<double>(i) + 0.5) / static_cast<double>(distinct);
    plan.sizes.push_back(
        kJobMinN +
        static_cast<std::size_t>(frac * static_cast<double>(kJobMaxN - kJobMinN)));
    plan.seeds.push_back(rng.next());
  }
  // The odd size strata are the inputs sent twice, the even ones those sent
  // once, so the sizes of all kJobs sends form the same multiset on every
  // seed: a re-send drawn from any input already sent made the latency
  // percentiles depend on which sizes the seed happened to repeat.
  std::vector<std::size_t> by_size;
  for (std::size_t i = 0; i < distinct; ++i) {
    by_size.push_back(i);
    if (i % 2 == 1) by_size.push_back(i);
  }
  if (by_size.size() != kJobs) throw std::logic_error("job plan miscounted");

  // Slot k sends the input whose size rank is the rank of the golden-ratio
  // key frac(offset + k/phi), with the offset drawn from the seed. Any
  // stretch of the schedule then draws sizes from the whole range, so each
  // slice of the loop, and the host's speed while it runs, weighs on every
  // percentile alike; with a shuffled order, the few jobs that set p50 or
  // p90 could all fall in one slice. The second send of an input is its
  // re-send. Arrivals are evenly spaced with up to +-40% jitter, so the
  // schedule stays ordered and no burst depends on the seed.
  const double offset = rng.uniform();
  std::vector<double> key(kJobs);
  for (std::size_t k = 0; k < kJobs; ++k) {
    const double x = offset + static_cast<double>(k) * 0.6180339887498949;
    key[k] = x - std::floor(x);
  }
  std::vector<std::size_t> slot_by_rank(kJobs);
  std::iota(slot_by_rank.begin(), slot_by_rank.end(), std::size_t{0});
  std::sort(slot_by_rank.begin(), slot_by_rank.end(),
            [&key](std::size_t a, std::size_t b) { return key[a] < key[b]; });
  std::vector<std::size_t> input_at(kJobs);
  for (std::size_t r = 0; r < kJobs; ++r) input_at[slot_by_rank[r]] = by_size[r];

  const double gap = 1.0 / kJobRate;
  std::vector<bool> sent(distinct, false);
  for (std::size_t k = 0; k < kJobs; ++k) {
    Submission s;
    s.input = input_at[k];
    s.resend = sent[s.input];
    sent[s.input] = true;
    s.due = (static_cast<double>(k) + 0.5 + rng.uniform(-0.4, 0.4)) * gap;
    plan.sends.push_back(s);
  }
  plan.span = static_cast<double>(kJobs) * gap;
  return plan;
}

std::string InputFiles::main_fasta(std::size_t k) const {
  return dir + "/main" + std::to_string(k) + ".fasta";
}

std::string InputFiles::main_ref(std::size_t k) const {
  return dir + "/main" + std::to_string(k) + ".ref.afa";
}

std::string InputFiles::job_fasta(std::size_t i) const {
  return dir + "/job" + std::to_string(i) + ".fasta";
}

namespace {

void write_reference(const std::string& path, const salign::msa::Alignment& aln) {
  std::ofstream out(path);
  salign::msa::write_aligned_fasta(out, aln);
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace

void generate_inputs(const Workload& w, std::uint64_t seed,
                     const InputFiles& files) {
  std::filesystem::create_directories(files.dir);
  for (std::size_t k = 0; k < w.families; ++k) {
    const wl::Family fam =
        rose_family(kMainN, kMainLength, family_seed(seed, k), "rose_");
    salign::bio::write_fasta_file(files.main_fasta(k), fam.sequences);
    if (k < kScoredFamilies) write_reference(files.main_ref(k), fam.reference);
  }
  const JobPlan plan = job_plan(seed);
  for (std::size_t i = 0; i < plan.sizes.size(); ++i) {
    const wl::Family fam = rose_family(plan.sizes[i], kJobLength, plan.seeds[i],
                                       salign::util::indexed_name("j", i) + "_");
    salign::bio::write_fasta_file(files.job_fasta(i), fam.sequences);
  }
  const wl::Family warm = rose_family(24, 120, seed + 0x9e3779b9ULL, "warm_");
  salign::bio::write_fasta_file(files.warmup(), warm.sequences);
}

salign::msa::Alignment read_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  return salign::msa::read_aligned_fasta(in);
}

}  // namespace perfbench
