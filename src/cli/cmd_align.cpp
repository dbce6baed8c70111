#include <ostream>
#include <sstream>
#include <string>

#include "bio/fasta.hpp"
#include "bio/substitution_matrix.hpp"
#include "cli/arg_parser.hpp"
#include "cli/commands.hpp"
#include "core/sample_align_d.hpp"
#include "msa/alignment.hpp"
#include "msa/clustal_format.hpp"
#include "msa/scoring.hpp"
#include "util/io.hpp"
#include "util/thread_pool.hpp"

namespace salign::cli {

namespace {

ArgParser make_parser() {
  ArgParser p("align",
              "Aligns the sequences of a FASTA file. With --procs 1 the\n"
              "configured sequential aligner runs directly; with more, the\n"
              "Sample-Align-D pipeline distributes the input over simulated\n"
              "cluster ranks (k-mer rank sample sort, per-bucket alignment,\n"
              "global-ancestor tweak, glue).");
  p.option("in", "file", "", "input FASTA file (unaligned)");
  p.option("out", "file", "-", "output alignment ('-' = stdout)");
  p.option("format", "name", "fasta",
           "output format: fasta (aligned FASTA) or clustal");
  p.option("procs", "p", "4", "simulated processors");
  p.option("threads", "t", "0",
           "worker threads per rank for the sequential aligner's parallel\n"
           "passes (distance matrices, progressive merges); 0 = auto:\n"
           "hardware concurrency capped at 16. Never changes the output");
  p.option("aligner", "name", "muscle",
           aligner_help());
  p.option("rank-mode", "mode", "globalized",
           "'globalized' (paper) or 'local' (predecessor [34])");
  p.option("samples", "k", "0",
           "samples contributed per processor (0 = paper default p-1)");
  p.flag("polish", "re-align the most divergent rows after the glue (§5)");
  p.flag("no-ancestor",
         "skip the global-ancestor tweak (ablation; block-diagonal glue)");
  p.option("checkpoint-dir", "dir", "",
           "persist every completed pipeline stage to this directory\n"
           "(artifact files + manifest.tsv); inspect with 'salign stages'");
  p.flag("resume",
         "with --checkpoint-dir: load completed stages back instead of\n"
         "recomputing them. Bit-identical to a fresh run for any --threads");
  p.option("deadline", "dur", "0",
           "wall-clock budget, e.g. 30, 2.5s, 250ms, 1.5m (bare numbers are\n"
           "seconds; 0 = none). The pipeline stops\n"
           "cooperatively at the next stage/chunk boundary, leaves a valid\n"
           "checkpoint, and exits 4; --resume completes bit-identically");
  p.flag("stats",
         "print the per-stage pipeline report to stderr: one table, with\n"
         "each stage's aligner phases as indented rows");
  p.flag("sp", "print the alignment's SP score to stderr");
  return p;
}

}  // namespace

int run_align(std::span<const std::string> args, std::ostream& out,
              std::ostream& err) {
  ArgParser p = make_parser();
  try {
    p.parse(args);
    if (p.help_requested()) {
      out << p.usage();
      return 0;
    }
    if (p.get("in").empty()) throw UsageError("--in is required");
    const std::string format = p.get("format");
    if (format != "fasta" && format != "clustal")
      throw UsageError("--format must be fasta or clustal");

    core::SampleAlignDConfig cfg;
    cfg.num_procs = static_cast<int>(p.get_int("procs", 1, 1024));
    const auto threads =
        static_cast<unsigned>(p.get_int("threads", 0, 1024));
    cfg.threads = threads == 0 ? util::default_threads() : threads;
    cfg.samples_per_proc = static_cast<int>(p.get_int("samples", 0, 1 << 20));
    // "muscle" (the default) is left null so the pipeline constructs it;
    // the options are identical to make_aligner("muscle", threads). Phase
    // stats come from the thread-local msa::PhaseLog for any aligner.
    if (p.get("aligner") != "muscle")
      cfg.local_aligner = make_aligner(p.get("aligner"), cfg.threads);
    cfg.checkpoint.dir = p.get("checkpoint-dir");
    cfg.checkpoint.resume = p.get_flag("resume");
    if (cfg.checkpoint.resume && cfg.checkpoint.dir.empty())
      throw UsageError("--resume requires --checkpoint-dir");
    cfg.ancestor_refinement = !p.get_flag("no-ancestor");
    cfg.polish_divergent = p.get_flag("polish");
    const std::string& mode = p.get("rank-mode");
    if (mode == "globalized") {
      cfg.rank_mode = core::RankMode::Globalized;
    } else if (mode == "local") {
      cfg.rank_mode = core::RankMode::LocalOnly;
    } else {
      throw UsageError("--rank-mode must be 'globalized' or 'local'");
    }
    cfg.deadline_seconds =
        parse_duration_seconds(p.get("deadline"), "--deadline");

    const std::vector<bio::Sequence> seqs = bio::read_fasta_file(p.get("in"));
    core::PipelineStats stats;
    const msa::Alignment aln =
        core::SampleAlignD(cfg).align(seqs, &stats);

    const auto write_alignment_to = [&](std::ostream& os) {
      if (format == "clustal") {
        msa::write_clustal(os, aln);
      } else {
        msa::write_aligned_fasta(os, aln);
      }
    };
    if (p.get("out") == "-") {
      write_alignment_to(out);
    } else {
      std::ostringstream text;
      write_alignment_to(text);
      util::retry_io("file.write", [&] {
        util::write_text_file_durable(p.get("out"), text.str());
      });
    }
    if (p.get_flag("stats")) err << stats.summary();
    if (p.get_flag("sp")) {
      const auto& m = bio::SubstitutionMatrix::blosum62();
      err << "SP score: "
          << msa::sp_score(aln, m, m.default_gaps(),
                           aln.num_rows() > 256 ? 4096 : 0)
          << "\n";
    }
    return kExitOk;
  } catch (const UsageError& e) {
    err << "salign align: " << e.what() << "\n\n" << p.usage();
    return kExitUsage;
  } catch (...) {
    return classify_error("align", err);
  }
}

}  // namespace salign::cli
