#include "cli/commands.hpp"

#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>

#include "bio/fasta.hpp"
#include "cli/arg_parser.hpp"
#include "msa/clustalw_like.hpp"
#include "msa/mafft_like.hpp"
#include "msa/muscle_like.hpp"
#include "msa/tcoffee_like.hpp"
#include "serve/socket.hpp"
#include "util/budget.hpp"

namespace salign::cli {

int classify_error(const std::string& command, std::ostream& err) {
  const auto report = [&](const char* what) -> std::ostream& {
    return err << "salign " << command << ": " << what << "\n";
  };
  try {
    throw;  // reclassify the in-flight exception
  } catch (const util::DeadlineExceeded& e) {
    report(e.what())
        << "salign " << command
        << ": checkpoint (if any) is valid; rerun with --resume\n";
    return kExitDeadline;
  } catch (const util::CancelledError& e) {
    report(e.what());
    return kExitDeadline;
  } catch (const serve::ResourceError& e) {
    report(e.what());
    return kExitResource;
  } catch (const bio::InvalidInput& e) {
    report(e.what());
    return kExitInvalidInput;
  } catch (const std::invalid_argument& e) {
    report(e.what());
    return kExitInvalidInput;
  } catch (const std::exception& e) {
    report(e.what());
    return kExitRuntime;
  } catch (...) {
    report("unknown error");
    return kExitRuntime;
  }
}

std::shared_ptr<const msa::MsaAlgorithm> make_aligner(
    const std::string& name, unsigned threads) {
  if (name == "muscle" || name == "muscle-refine" || name == "muscle-fast") {
    msa::MuscleOptions o;
    o.threads = threads;
    if (name == "muscle-refine") o.refine_passes = 2;
    if (name == "muscle-fast")
      o.stage1_distance = msa::MuscleOptions::GuideTree::kScore;
    return std::make_shared<msa::MuscleAligner>(o);
  }
  if (name == "clustalw") {
    msa::ClustalWOptions o;
    o.threads = threads;
    return std::make_shared<msa::ClustalWAligner>(o);
  }
  if (name == "tcoffee") {
    msa::TCoffeeOptions o;
    o.threads = threads;
    return std::make_shared<msa::TCoffeeAligner>(o);
  }
  if (name == "nwnsi" || name == "fftnsi") {
    msa::MafftOptions o;
    o.use_fft = name == "fftnsi";
    o.threads = threads;
    return std::make_shared<msa::MafftAligner>(o);
  }
  throw UsageError("unknown aligner '" + name + "' (expected one of " +
                   aligner_names() + ")");
}

std::string aligner_names() {
  return "muscle, muscle-refine, muscle-fast, clustalw, tcoffee, nwnsi, "
         "fftnsi";
}

std::string aligner_help() {
  std::string help = "per-bucket sequential aligner: ";
  help += aligner_names();
  help += ".\ntcoffee takes at most ";
  help += std::to_string(msa::kMaxConsistencySequences);
  help += " sequences per bucket\n(a larger --procs makes buckets smaller)";
  return help;
}

int dispatch(std::span<const std::string> args, std::ostream& out,
             std::ostream& err) {
  const auto print_help = [&](std::ostream& os) {
    os << "salign — Sample-Align-D multiple sequence alignment toolkit\n"
          "(reproduction of Saeed & Khokhar, IPDPS 2008)\n\n"
          "usage: salign <command> [options]\n\n"
          "commands:\n"
          "  align     align FASTA sequences (Sample-Align-D pipeline or a\n"
          "            sequential aligner)\n"
          "  score     score an alignment against a trusted reference\n"
          "  rank      print k-mer ranks of sequences\n"
          "  tree      build a guide/phylogenetic tree (Newick)\n"
          "  generate  emit synthetic benchmark workloads\n"
          "  stages    inspect an 'align --checkpoint-dir' directory\n"
          "  serve     run the crash-tolerant alignment daemon\n"
          "  submit    submit an alignment job to a serving daemon\n"
          "  jobs      list (or cancel) a serving daemon's jobs\n"
          "  help      show this message\n\n"
          "run 'salign <command> --help' for per-command options.\n";
  };
  if (args.empty() || args[0] == "help" || args[0] == "--help" ||
      args[0] == "-h") {
    print_help(out);
    return 0;
  }
  const std::string& cmd = args[0];
  const std::span<const std::string> rest = args.subspan(1);
  if (cmd == "align") return run_align(rest, out, err);
  if (cmd == "score") return run_score(rest, out, err);
  if (cmd == "rank") return run_rank(rest, out, err);
  if (cmd == "tree") return run_tree(rest, out, err);
  if (cmd == "generate") return run_generate(rest, out, err);
  if (cmd == "stages") return run_stages(rest, out, err);
  if (cmd == "serve") return run_serve(rest, out, err);
  if (cmd == "submit") return run_submit(rest, out, err);
  if (cmd == "jobs") return run_jobs(rest, out, err);
  err << "salign: unknown command '" << cmd << "'\n\n";
  print_help(err);
  return kExitUsage;
}

}  // namespace salign::cli
