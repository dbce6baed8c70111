#include <csignal>
#include <chrono>
#include <filesystem>
#include <ostream>
#include <string>
#include <thread>

#include "cli/arg_parser.hpp"
#include "cli/commands.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "util/io.hpp"
#include "util/table.hpp"

namespace salign::cli {

namespace {

namespace fs = std::filesystem;

/// Set by the SIGTERM/SIGINT handler, polled by the daemon's accept loop.
/// File-static because signal handlers can't carry context; `salign serve`
/// runs one daemon per process so a single flag is the honest model.
volatile std::sig_atomic_t g_serve_stop = 0;

extern "C" void serve_stop_handler(int) { g_serve_stop = 1; }

ArgParser make_serve_parser() {
  ArgParser p("serve",
              "Runs the alignment daemon: accepts jobs over a Unix-domain\n"
              "socket (newline-delimited JSON, docs/serve_protocol.md),\n"
              "admission-controls them into a bounded queue, journals every\n"
              "state transition durably, and executes them one at a time\n"
              "with per-job deadlines and per-job checkpoint directories.\n"
              "Survives kill -9: on restart the journal is replayed and\n"
              "interrupted jobs resume bit-identically.\n"
              "SIGTERM/SIGINT drain gracefully under --drain-deadline.");
  p.option("socket", "path", "", "Unix-domain socket path to serve on");
  p.option("journal-dir", "dir", "",
           "job journal + per-job checkpoint directory (created if absent)");
  p.option("queue-limit", "n", "64",
           "admission bound: submits beyond this many queued jobs are shed\n"
           "with an 'overloaded' response and a retry_after_ms hint");
  p.option("drain-deadline", "dur", "10s",
           "on shutdown, how long the running job may finish before its\n"
           "cancel token is pulled (it checkpoints and resumes next start)");
  p.option("deadline", "dur", "0",
           "default per-job wall-clock budget for jobs that set none\n"
           "(e.g. 30, 2.5s, 1.5m; 0 = none)");
  p.flag("no-cache",
         "disable the process-wide artifact cache (enabled by default in\n"
         "the daemon — repeated jobs share guide-tree/distance work)");
  p.flag("stop",
         "do not start a daemon: ask the one serving --socket to drain and\n"
         "exit, then return");
  return p;
}

ArgParser make_submit_parser() {
  ArgParser p("submit",
              "Submits an alignment job to a serving daemon and prints the\n"
              "job id. The daemon journals the job durably before the\n"
              "acknowledgment, so an accepted job survives kill -9. With\n"
              "--wait, polls until the job is terminal and mirrors its exit\n"
              "code.");
  p.option("socket", "path", "", "daemon socket path");
  p.option("in", "file", "", "input FASTA file (unaligned)");
  p.option("out", "file", "", "output alignment file (written durably)");
  p.option("format", "name", "fasta", "output format: fasta or clustal");
  p.option("aligner", "name", "muscle",
           aligner_help());
  p.option("procs", "p", "4", "simulated processors");
  p.option("threads", "t", "0",
           "worker threads within the job (0 = daemon auto)");
  p.option("deadline", "dur", "0",
           "per-job wall-clock budget (e.g. 2.5s; 0 = daemon default). A\n"
           "blown deadline evicts the job, leaving a resumable checkpoint");
  p.flag("wait", "poll until the job is terminal; exit with its exit code");
  return p;
}

ArgParser make_jobs_parser() {
  ArgParser p("jobs",
              "Lists a serving daemon's jobs (queued, running and terminal)\n"
              "as a table, or cancels one with --cancel.");
  p.option("socket", "path", "", "daemon socket path");
  p.option("cancel", "id", "", "cancel this job instead of listing");
  return p;
}

/// Absolutizes a client-side path: the daemon's cwd is not the client's,
/// so relative paths are resolved before they cross the socket.
std::string absolutize(const std::string& path) {
  return fs::absolute(fs::path(path)).lexically_normal().string();
}

/// Maps a daemon error response to the CLI taxonomy. "overloaded" is a
/// resource condition (exit 5: back off and retry), bad specs are usage
/// (2), unknown ids invalid input (3), everything else runtime (1).
int response_exit_code(const serve::Json& resp) {
  const std::string code = resp.get_string("code");
  if (code == "overloaded" || code == "shutting_down") return kExitResource;
  if (code == "bad_request") return kExitUsage;
  if (code == "not_found" || code == "already_terminal")
    return kExitInvalidInput;
  return kExitRuntime;
}

}  // namespace

int run_serve(std::span<const std::string> args, std::ostream& out,
              std::ostream& err) {
  ArgParser p = make_serve_parser();
  try {
    p.parse(args);
    if (p.help_requested()) {
      out << p.usage();
      return 0;
    }
    if (p.get("socket").empty()) throw UsageError("--socket is required");

    if (p.get_flag("stop")) {
      serve::Json::Object req;
      req.emplace("v", serve::kWireVersion);
      req.emplace("op", "shutdown");
      const serve::Json resp =
          serve::request(p.get("socket"), serve::Json(std::move(req)));
      if (!resp.get_bool("ok"))
        throw std::runtime_error("daemon refused shutdown: " +
                                 resp.get_string("error", resp.dump()));
      out << "daemon draining\n";
      return kExitOk;
    }

    if (p.get("journal-dir").empty())
      throw UsageError("--journal-dir is required");
    serve::DaemonOptions opts;
    opts.socket_path = p.get("socket");
    opts.journal_dir = absolutize(p.get("journal-dir"));
    opts.queue_limit = static_cast<int>(p.get_int("queue-limit", 1, 100000));
    opts.drain_deadline_seconds =
        parse_duration_seconds(p.get("drain-deadline"), "--drain-deadline");
    opts.default_deadline_seconds =
        parse_duration_seconds(p.get("deadline"), "--deadline");
    opts.use_artifact_cache = !p.get_flag("no-cache");
    opts.log = &err;
    opts.stop_flag = &g_serve_stop;

    g_serve_stop = 0;
    std::signal(SIGTERM, serve_stop_handler);
    std::signal(SIGINT, serve_stop_handler);
    serve::Daemon daemon(std::move(opts));
    daemon.run();
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    return kExitOk;
  } catch (const UsageError& e) {
    err << "salign serve: " << e.what() << "\n\n" << p.usage();
    return kExitUsage;
  } catch (...) {
    return classify_error("serve", err);
  }
}

int run_submit(std::span<const std::string> args, std::ostream& out,
               std::ostream& err) {
  ArgParser p = make_submit_parser();
  try {
    p.parse(args);
    if (p.help_requested()) {
      out << p.usage();
      return 0;
    }
    if (p.get("socket").empty()) throw UsageError("--socket is required");
    if (p.get("in").empty()) throw UsageError("--in is required");
    if (p.get("out").empty()) throw UsageError("--out is required");

    serve::Json::Object req;
    req.emplace("v", serve::kWireVersion);
    req.emplace("op", "submit");
    req.emplace("in", absolutize(p.get("in")));
    req.emplace("out", absolutize(p.get("out")));
    req.emplace("format", p.get("format"));
    req.emplace("aligner", p.get("aligner"));
    req.emplace("procs", p.get_int("procs", 1, 1024));
    req.emplace("threads", p.get_int("threads", 0, 1024));
    req.emplace("deadline",
                parse_duration_seconds(p.get("deadline"), "--deadline"));

    const std::string socket = p.get("socket");
    const serve::Json resp =
        serve::request(socket, serve::Json(std::move(req)));
    if (!resp.get_bool("ok")) {
      err << "salign submit: daemon rejected the job ["
          << resp.get_string("code", "error")
          << "]: " << resp.get_string("error", resp.dump()) << "\n";
      const double retry_ms = resp.get_number("retry_after_ms", 0.0);
      if (retry_ms > 0)
        err << "salign submit: retry after " << retry_ms << " ms\n";
      return response_exit_code(resp);
    }
    const std::string id = resp.get_string("id");
    out << id << "\n";
    if (!p.get_flag("wait")) return kExitOk;

    // Client-side completion poll: the protocol is deliberately
    // notification-free (one request, one response), so waiting is the
    // client's loop, and a daemon crash mid-wait surfaces here as a
    // connect failure rather than a hang.
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      serve::Json::Object q;
      q.emplace("v", serve::kWireVersion);
      q.emplace("op", "status");
      q.emplace("id", id);
      const serve::Json st = serve::request(socket, serve::Json(std::move(q)));
      if (!st.get_bool("ok"))
        throw std::runtime_error("status of " + id + " failed: " +
                                 st.get_string("error", st.dump()));
      const serve::Json* job = st.find("job");
      if (job == nullptr) throw std::runtime_error("malformed status reply");
      const std::string state = job->get_string("state");
      if (!serve::is_terminal(serve::job_state_from_string(state))) continue;
      const int exit_code =
          static_cast<int>(job->get_number("exit_code", 0.0));
      const std::string error = job->get_string("error");
      err << "salign submit: " << id << " " << state
          << (error.empty() ? "" : (": " + error)) << "\n";
      return exit_code;
    }
  } catch (const UsageError& e) {
    err << "salign submit: " << e.what() << "\n\n" << p.usage();
    return kExitUsage;
  } catch (...) {
    return classify_error("submit", err);
  }
}

int run_jobs(std::span<const std::string> args, std::ostream& out,
             std::ostream& err) {
  ArgParser p = make_jobs_parser();
  try {
    p.parse(args);
    if (p.help_requested()) {
      out << p.usage();
      return 0;
    }
    if (p.get("socket").empty()) throw UsageError("--socket is required");

    if (!p.get("cancel").empty()) {
      serve::Json::Object req;
      req.emplace("v", serve::kWireVersion);
      req.emplace("op", "cancel");
      req.emplace("id", p.get("cancel"));
      const serve::Json resp =
          serve::request(p.get("socket"), serve::Json(std::move(req)));
      if (!resp.get_bool("ok")) {
        err << "salign jobs: cancel failed ["
            << resp.get_string("code", "error")
            << "]: " << resp.get_string("error", resp.dump()) << "\n";
        return response_exit_code(resp);
      }
      out << p.get("cancel") << " " << resp.get_string("state") << "\n";
      return kExitOk;
    }

    serve::Json::Object req;
    req.emplace("v", serve::kWireVersion);
    req.emplace("op", "jobs");
    const serve::Json resp =
        serve::request(p.get("socket"), serve::Json(std::move(req)));
    if (!resp.get_bool("ok"))
      throw std::runtime_error("jobs query failed: " +
                               resp.get_string("error", resp.dump()));
    const serve::Json* jobs = resp.find("jobs");
    if (jobs == nullptr) throw std::runtime_error("malformed jobs reply");
    util::Table table({"id", "state", "attempts", "exit", "in", "error"});
    for (const serve::Json& job : jobs->as_array()) {
      const serve::Json* spec = job.find("spec");
      table.add_row(
          {job.get_string("id"), job.get_string("state"),
           std::to_string(static_cast<int>(job.get_number("attempts", 0.0))),
           std::to_string(static_cast<int>(job.get_number("exit_code", 0.0))),
           spec != nullptr ? spec->get_string("in") : "",
           job.get_string("error")});
    }
    out << table.to_string();
    return kExitOk;
  } catch (const UsageError& e) {
    err << "salign jobs: " << e.what() << "\n\n" << p.usage();
    return kExitUsage;
  } catch (...) {
    return classify_error("jobs", err);
  }
}

}  // namespace salign::cli
