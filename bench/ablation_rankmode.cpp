// Ablation D: globalized vs local-only k-mer rank (paper §2.3.1).
//
// The predecessor system Sample-Align [34] ranked every sequence only
// against its own processor's block, which is valid when the input is
// phylogenetically homogeneous. Sample-Align-D's contribution is the
// sample-exchange round that re-ranks every sequence against a global
// k·p-sequence sample. This bench reproduces the motivating comparison:
// on homogeneous input the two modes behave alike; on phylogenetically
// diverse input (several well-separated families interleaved across
// blocks) local-only ranks live on inconsistent scales, so buckets stop
// grouping similar sequences and the final alignment quality drops while
// load imbalance grows.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/sample_align_d.hpp"
#include "msa/scoring.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "workload/rose.hpp"

namespace {

using salign::bio::Sequence;

/// Interleaves f families of n/f sequences each, divergence ladder across
/// families, so that every contiguous block mixes all families.
std::vector<Sequence> diverse_input(std::size_t n, std::size_t families,
                                    std::uint64_t seed) {
  std::vector<std::vector<Sequence>> fams;
  for (std::size_t f = 0; f < families; ++f) {
    const double relatedness = 150.0 + 700.0 * static_cast<double>(f);
    fams.push_back(salign::workload::rose_sequences(
        {.num_sequences = n / families,
         .average_length = 60,
         .relatedness = relatedness,
         .seed = seed + f}));
  }
  std::vector<Sequence> out;
  for (std::size_t i = 0; i < n / families; ++i)
    for (std::size_t f = 0; f < families; ++f) {
      std::string name = salign::util::indexed_name("f", f);
      name += '_';
      name += std::to_string(i);
      out.emplace_back(std::move(name),
                       std::vector<std::uint8_t>(fams[f][i].codes().begin(),
                                                 fams[f][i].codes().end()),
                       salign::bio::AlphabetKind::AminoAcid);
    }
  return out;
}

}  // namespace

int main() {
  using namespace salign;
  const double factor = bench::scale(1.0);
  const std::size_t n = bench::scaled(256, factor, 64);
  bench::banner(
      "Ablation D: globalized re-rank (Sample-Align-D) vs local-only rank "
      "(predecessor Sample-Align [34])",
      "paper §2.3.1 (globalized k-mer rank)", factor);

  struct Workload {
    const char* name;
    std::vector<Sequence> seqs;
  };
  std::vector<Workload> workloads;
  workloads.push_back(
      {"homogeneous (1 family)",
       workload::rose_sequences(
           {.num_sequences = n, .average_length = 60, .relatedness = 400,
            .seed = 11})});
  workloads.push_back({"diverse (4 families interleaved)",
                       diverse_input(n, 4, 17)});

  const auto& matrix = bio::SubstitutionMatrix::blosum62();
  const auto gaps = matrix.default_gaps();

  util::Table t({"workload", "rank mode", "load factor", "SP score",
                 "sample-exchange bytes"});
  for (const auto& w : workloads) {
    for (const core::RankMode mode :
         {core::RankMode::Globalized, core::RankMode::LocalOnly}) {
      core::SampleAlignDConfig cfg;
      cfg.num_procs = 8;
      cfg.samples_per_proc = 8;
      cfg.rank_mode = mode;
      core::PipelineStats stats;
      const msa::Alignment a = core::SampleAlignD(cfg).align(w.seqs, &stats);
      std::uint64_t exchange_bytes = 0;
      for (const auto& s : stats.stages)
        if (s.name == "sample-exchange") exchange_bytes = s.total_bytes();
      t.add_row({w.name,
                 mode == core::RankMode::Globalized ? "globalized (paper)"
                                                    : "local-only [34]",
                 util::fmt("%.2f", stats.load_factor()),
                 util::fmt("%.0f", msa::sp_score(a, matrix, gaps, 2000)),
                 std::to_string(exchange_bytes)});
    }
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "expected shape: on the homogeneous family both modes bucket "
      "similarly;\non the diverse input the local-only mode loses the "
      "2N/p balance guarantee\nand its SP score falls behind the "
      "globalized mode — the paper's case for\nthe sample-exchange "
      "round it adds over [34].\n");
  return 0;
}
