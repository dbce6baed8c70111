#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <string>

#include "msa/msa_algorithm.hpp"

namespace salign::cli {

/// Exit-code taxonomy shared by every command. Scripts and the fault-matrix
/// harness branch on these, so they are part of the CLI contract:
///
///   0  success
///   1  runtime/IO failure — missing file, exhausted retries, corrupt
///      checkpoint the pipeline could not recover from, internal error
///   2  usage error — bad flags or arguments (usage text printed)
///   3  invalid input — the file was read fine but its *content* is
///      malformed (FASTA syntax, duplicate ids, control bytes, bad values)
///   4  deadline exceeded or cancelled — the run stopped cooperatively at a
///      stage/chunk boundary; any --checkpoint-dir it was writing is valid
///      and `--resume` completes the alignment bit-identically
///   5  resource/bind failure — a resource the command needs is unavailable
///      or contested: the serve socket path is already being served, the
///      journal directory cannot be created/written, a submit was shed by
///      an overloaded daemon. The fix is operational, not a bug or bad
///      input, so init systems and scripts can back off and retry
enum ExitCode : int {
  kExitOk = 0,
  kExitRuntime = 1,
  kExitUsage = 2,
  kExitInvalidInput = 3,
  kExitDeadline = 4,
  kExitResource = 5,
};

/// Maps the in-flight exception to the taxonomy above, printing
/// "salign <command>: <what>" to `err`. Call from a catch-all handler
/// (it rethrows internally); UsageError must be caught before it, where
/// the command's usage text is available.
[[nodiscard]] int classify_error(const std::string& command,
                                 std::ostream& err);

/// The `salign` command-line tool, exposed as callable functions so the
/// test suite drives every command in-process (no fork/exec). Each command
/// takes its argument list (program and command names stripped), writes
/// results to `out` and diagnostics to `err`, and returns the process exit
/// status from the taxonomy below.
///
/// Commands:
///   align     align a FASTA file with Sample-Align-D or a sequential
///             aligner;
///   score     score a test alignment against a trusted reference
///             (Q / TC / SP, optional core-block masking);
///   rank      print k-mer ranks (centralized or sample-globalized) —
///             the Fig. 1/3 diagnostic for arbitrary input;
///   tree      build a UPGMA / neighbor-joining tree from k-mer or
///             Kimura distances, emit Newick (the paper's §2 rapid
///             phylogeny construction);
///   generate  emit synthetic workloads (rose / genome / prefab /
///             balibase / sabmark) as FASTA (+ reference alignments);
///   stages    inspect a checkpoint directory written by
///             `align --checkpoint-dir` (manifest table, digest
///             verification);
///   serve     run the crash-tolerant alignment daemon (admission control,
///             durable job journal, kill -9 recovery — see
///             docs/serve_protocol.md);
///   submit    submit an alignment job to a serving daemon;
///   jobs      list (or cancel) a serving daemon's jobs.
int run_align(std::span<const std::string> args, std::ostream& out,
              std::ostream& err);
int run_score(std::span<const std::string> args, std::ostream& out,
              std::ostream& err);
int run_rank(std::span<const std::string> args, std::ostream& out,
             std::ostream& err);
int run_tree(std::span<const std::string> args, std::ostream& out,
             std::ostream& err);
int run_generate(std::span<const std::string> args, std::ostream& out,
                 std::ostream& err);
int run_stages(std::span<const std::string> args, std::ostream& out,
               std::ostream& err);
int run_serve(std::span<const std::string> args, std::ostream& out,
              std::ostream& err);
int run_submit(std::span<const std::string> args, std::ostream& out,
               std::ostream& err);
int run_jobs(std::span<const std::string> args, std::ostream& out,
             std::ostream& err);

/// Top-level dispatch: args[0] is the command name. Prints the tool help
/// on empty input, `help`, or an unknown command (the latter returns 2).
int dispatch(std::span<const std::string> args, std::ostream& out,
             std::ostream& err);

/// Shared aligner registry: maps a CLI name to an aligner instance with
/// `threads` workers for its parallel passes (thread counts never change
/// outputs). Names: muscle, muscle-refine, muscle-fast (score-distance
/// guide tree), clustalw, tcoffee, nwnsi, fftnsi. Throws UsageError for
/// unknown names.
[[nodiscard]] std::shared_ptr<const msa::MsaAlgorithm> make_aligner(
    const std::string& name, unsigned threads = 1);

/// All valid aligner names, for help/error text.
[[nodiscard]] std::string aligner_names();

/// Help text of an --aligner option: the names and the per-bucket sequence
/// cap of the consistency aligner (msa::kMaxConsistencySequences).
[[nodiscard]] std::string aligner_help();

}  // namespace salign::cli
