#include <memory>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "align/distance.hpp"
#include "bio/fasta.hpp"
#include "bio/substitution_matrix.hpp"
#include "cli/arg_parser.hpp"
#include "cli/commands.hpp"
#include "kmer/kmer_rank.hpp"
#include "msa/guide_tree.hpp"
#include "util/io.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace salign::cli {

namespace {

ArgParser make_parser() {
  ArgParser p("tree",
              "Builds a phylogenetic/guide tree from unaligned sequences\n"
              "and prints it in Newick format. The paper uses exactly this\n"
              "construction (§2): k-mer distances give a rapid tree without\n"
              "aligning first; the ClustalW-style alternative derives\n"
              "Kimura distances from all-pairs global alignments.");
  p.option("in", "file", "", "input FASTA file");
  p.option("method", "name", "upgma",
           "tree construction: upgma (MUSCLE-style) or nj "
           "(neighbor-joining, CLUSTALW-style)");
  p.option("dist", "name", "kmer",
           "distance source: kmer (alignment-free, fast), kimura "
           "(all-pairs global alignments, O(N^2 L^2)), or score "
           "(striped-integer score-only alignments — kimura accuracy "
           "class without tracebacks)");
  p.option("k", "len", "0",
           "k-mer length for --dist kmer (0 = library default, 4); at most "
           "4, as k-mers count over the compressed amino alphabet");
  p.option("threads", "n", "1",
           "worker threads of the distance pass "
           "(0 = auto: hardware concurrency, capped)");
  p.option("out", "file", "", "write the Newick string here instead of stdout");
  p.flag("weights", "also print CLUSTALW-style leaf weights");
  p.flag("stats",
         "print the distance pass's alignment-kernel tier breakdown "
         "(striped int8 / int16 / float, promotions); only "
         "--dist kimura runs full alignments, so only it has one");
  return p;
}

}  // namespace

int run_tree(std::span<const std::string> args, std::ostream& out,
             std::ostream& err) {
  ArgParser p = make_parser();
  try {
    p.parse(args);
    if (p.help_requested()) {
      out << p.usage();
      return 0;
    }
    if (p.get("in").empty()) throw UsageError("--in is required");
    const std::string method = p.get("method");
    if (method != "upgma" && method != "nj")
      throw UsageError("--method must be upgma or nj");
    const std::string dist = p.get("dist");
    if (dist != "kmer" && dist != "kimura" && dist != "score")
      throw UsageError("--dist must be kmer, kimura or score");
    const auto threads_arg =
        static_cast<unsigned>(p.get_int("threads", 0, 1024));
    const unsigned threads =
        threads_arg == 0 ? util::default_threads() : threads_arg;

    const std::vector<bio::Sequence> seqs = bio::read_fasta_file(p.get("in"));
    if (seqs.size() < 2)
      throw bio::InvalidInput("need at least 2 sequences to build a tree");

    util::SymmetricMatrix<double> d(0);
    if (dist == "kmer") {
      kmer::KmerParams kp;
      const auto k = static_cast<std::size_t>(p.get_int("k", 0, 32));
      if (k > 0) kp.k = k;
      d = kmer::distance_matrix(seqs, kp, threads);
    } else {
      const bio::SubstitutionMatrix& m = bio::SubstitutionMatrix::blosum62();
      const bio::GapPenalties gaps = m.default_gaps();
      if (dist == "score") {
        align::ScoreDistanceOptions sdo;
        sdo.threads = threads;
        d = align::score_distance_matrix(seqs, m, gaps, sdo);
      } else {
        align::PairDistanceOptions pdo;
        pdo.threads = threads;
        align::PairDistanceStats stats;
        pdo.stats = &stats;
        d = align::alignment_distance_matrix(seqs, m, gaps, pdo);
        if (p.get_flag("stats")) {
          util::Table t({"pairs", "striped int8", "striped int16", "float",
                         "promotions"});
          t.add_row({std::to_string(stats.pairs),
                     std::to_string(stats.ladder.int8_runs),
                     std::to_string(stats.ladder.int16_runs),
                     std::to_string(stats.ladder.float_runs),
                     std::to_string(stats.ladder.promotions)});
          out << t.to_string();
        }
      }
    }

    const msa::GuideTree tree = method == "upgma"
                                    ? msa::GuideTree::upgma(std::move(d))
                                    : msa::GuideTree::neighbor_joining(d);
    std::vector<std::string> names;
    names.reserve(seqs.size());
    for (const auto& s : seqs) names.push_back(s.id());
    const std::string newick = tree.newick(names);

    const std::string out_path = p.get("out");
    if (out_path.empty()) {
      out << newick << "\n";
    } else {
      util::retry_io("file.write", [&] {
        util::write_text_file_durable(out_path, newick + "\n");
      });
      out << "wrote " << out_path << "\n";
    }

    if (p.get_flag("weights")) {
      const std::vector<double> w = tree.leaf_weights();
      util::Table t({"id", "weight"});
      for (std::size_t i = 0; i < seqs.size(); ++i)
        t.add_row({seqs[i].id(), util::fmt("%.4f", w[i])});
      out << t.to_string();
    }
    return 0;
  } catch (const UsageError& e) {
    err << "salign tree: " << e.what() << "\n\n" << p.usage();
    return kExitUsage;
  } catch (...) {
    return classify_error("tree", err);
  }
}

}  // namespace salign::cli
