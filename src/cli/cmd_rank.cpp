#include <algorithm>
#include <ostream>

#include "bio/fasta.hpp"
#include "cli/arg_parser.hpp"
#include "cli/commands.hpp"
#include "kmer/kmer_rank.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace salign::cli {

namespace {

ArgParser make_parser() {
  ArgParser p("rank",
              "Prints the k-mer rank R = -ln(0.1 + D) of every sequence\n"
              "(D = mean k-mer similarity to the reference set). This is\n"
              "the similarity index Sample-Align-D buckets on, and the\n"
              "diagnostic behind the paper's Figs. 1/3 and Table 1.");
  p.option("in", "file", "", "input FASTA file");
  p.option("k", "len", "0",
           "k-mer length (0 = library default, 4); at most 4, as k-mers "
           "count over the compressed amino alphabet");
  p.option("sample", "n", "0",
           "rank against n evenly spaced samples instead of the full set "
           "(the pipeline's globalized mode; 0 = centralized)");
  p.flag("hist", "print a 10-bin histogram instead of per-sequence rows");
  return p;
}

}  // namespace

int run_rank(std::span<const std::string> args, std::ostream& out,
             std::ostream& err) {
  ArgParser p = make_parser();
  try {
    p.parse(args);
    if (p.help_requested()) {
      out << p.usage();
      return 0;
    }
    if (p.get("in").empty()) throw UsageError("--in is required");

    const std::vector<bio::Sequence> seqs = bio::read_fasta_file(p.get("in"));
    if (seqs.empty()) throw std::runtime_error("no sequences in input");
    kmer::KmerParams kp;
    const auto k = static_cast<std::size_t>(p.get_int("k", 0, 32));
    if (k > 0) kp.k = k;

    const auto sample_n =
        static_cast<std::size_t>(p.get_int("sample", 0, 1 << 20));
    const unsigned threads = util::default_threads();
    std::vector<double> ranks;
    if (sample_n == 0 || sample_n >= seqs.size()) {
      ranks = kmer::centralized_ranks(seqs, kp, threads);
    } else {
      std::vector<bio::Sequence> samples;
      for (std::size_t i = 0; i < sample_n; ++i)
        samples.push_back(
            seqs[(i + 1) * seqs.size() / (sample_n + 1)]);
      ranks = kmer::globalized_ranks(seqs, samples, kp, threads);
    }

    if (p.get_flag("hist")) {
      const auto [lo_it, hi_it] =
          std::minmax_element(ranks.begin(), ranks.end());
      util::Histogram h(*lo_it, *hi_it + 1e-9, 10);
      h.add_all(ranks);
      out << h.ascii();
    } else {
      util::Table t({"id", "rank"});
      for (std::size_t i = 0; i < seqs.size(); ++i)
        t.add_row({seqs[i].id(), util::fmt("%.5f", ranks[i])});
      out << t.to_string();
    }
    util::RunningStats stats;
    for (const double r : ranks) stats.add(r);
    out << "n=" << ranks.size() << " mean=" << util::fmt("%.5f", stats.mean())
        << " stddev=" << util::fmt("%.5f", stats.stddev())
        << " min=" << util::fmt("%.5f", stats.min())
        << " max=" << util::fmt("%.5f", stats.max()) << "\n";
    return 0;
  } catch (const UsageError& e) {
    err << "salign rank: " << e.what() << "\n\n" << p.usage();
    return kExitUsage;
  } catch (...) {
    return classify_error("rank", err);
  }
}

}  // namespace salign::cli
