#pragma once

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "serve/journal.hpp"
#include "serve/socket.hpp"
#include "util/budget.hpp"

namespace salign::serve {

/// Tuning of one daemon instance (`salign serve` flags map 1:1).
struct DaemonOptions {
  std::string socket_path;   ///< Unix-domain socket to serve on (required)
  std::string journal_dir;   ///< job journal + per-job checkpoints (required)
  /// Admission bound: at most this many jobs may be queued (not counting
  /// the running one). Submits beyond it are shed with "overloaded" and a
  /// retry_after_ms hint — explicit load shedding, never silent queueing.
  int queue_limit = 64;
  /// SIGTERM/shutdown drain: how long a running job may keep running
  /// before its cancel token is pulled. The cancelled job checkpoints and
  /// is re-journaled queued, so the next start resumes it bit-identically.
  double drain_deadline_seconds = 10.0;
  /// Applied to jobs that don't set their own deadline (0 = none).
  double default_deadline_seconds = 0.0;
  /// Route repeated muscle phase work through the process-wide
  /// util::ArtifactCache — the daemon is the multi-tenant case the cache
  /// exists for. Never changes output.
  bool use_artifact_cache = true;
  /// Diagnostics sink (nullptr = silent). Written from both the accept
  /// loop and the executor thread; the daemon serializes access.
  std::ostream* log = nullptr;
  /// Async-signal-safe stop request: the accept loop polls this flag (set
  /// it from a SIGTERM/SIGINT handler) and begins the drain when nonzero.
  const volatile std::sig_atomic_t* stop_flag = nullptr;
};

/// The `salign serve` daemon: accepts alignment jobs over a local socket
/// (newline-delimited JSON, docs/serve_protocol.md), admission-controls
/// them into a bounded queue, and executes them one at a time on an
/// executor thread — each job under its own util::Budget (deadline +
/// util::CancelToken), with a per-job checkpoint
/// directory so every interruption (deadline, cancel, drain, kill -9) is
/// resumable bit-identically.
///
/// One job at a time is a correctness choice, not a simplification: the
/// fault injector (util::FaultInjector) is process-wide, and per-job
/// `threads` already parallelizes within a job — cross-job concurrency
/// would let one job's injected faults hit another.
///
/// Crash tolerance: every state transition is journaled durably *before*
/// it is acknowledged or acted on (Journal). On startup the daemon
/// replays the journal: interrupted `running` jobs and still-`queued`
/// jobs re-enter the queue (their checkpoints make the rerun a resume),
/// terminal jobs stay visible to `salign jobs`.
class Daemon {
 public:
  /// Everything the daemon counts, exposed for tests and the ping op.
  struct Counters {
    std::uint64_t accepted = 0;        ///< submits journaled + acknowledged
    std::uint64_t shed = 0;            ///< submits rejected: queue full
    std::uint64_t bad_requests = 0;    ///< malformed/invalid requests
    std::uint64_t journal_errors = 0;  ///< submits rejected: journal write
    std::uint64_t dropped_connections = 0;  ///< socket IO failures survived
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t evicted = 0;    ///< deadline-blown, checkpoint kept
    std::uint64_t cancelled = 0;
    std::uint64_t requeued = 0;   ///< drain-interrupted, journaled queued
    std::uint64_t replayed = 0;   ///< jobs re-enqueued by startup replay
    std::uint64_t quarantined = 0;  ///< journal files set aside at replay
  };

  explicit Daemon(DaemonOptions options);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the socket, replays the journal, serves until a stop is
  /// requested (shutdown op, request_stop(), or options.stop_flag), then
  /// drains and returns. Throws ResourceError when the socket cannot be
  /// bound or the journal directory is unusable (CLI exit code 5).
  void run();

  /// Ask a running daemon to stop and drain; callable from any thread.
  void request_stop();

  /// Blocks until run() is accepting connections (or returns false after
  /// `timeout_seconds`). For embedding run() on a thread, as tests do.
  [[nodiscard]] bool wait_until_ready(double timeout_seconds);

  [[nodiscard]] Counters counters() const;

 private:
  struct Outcome {
    JobState state = JobState::kDone;
    int exit_code = 0;
    std::string error;
  };

  void handle_connection(SocketStream stream);
  [[nodiscard]] Json dispatch(const Json& request);
  [[nodiscard]] Json op_submit(const Json& request);
  [[nodiscard]] Json op_status(const Json& request);
  [[nodiscard]] Json op_jobs() const;
  [[nodiscard]] Json op_cancel(const Json& request);
  [[nodiscard]] Json op_ping() const;

  void replay_journal();
  void executor_loop();
  [[nodiscard]] Outcome run_job(const JobRecord& rec,
                                const std::shared_ptr<util::CancelToken>& tok);
  void drain();
  void log_line(const std::string& line);
  /// Journals `rec`; on journal failure logs and keeps the in-memory copy
  /// authoritative (the daemon soldiers on; the operator sees the log).
  void record_best_effort(const JobRecord& rec);
  [[nodiscard]] bool stop_requested() const;

  DaemonOptions options_;
  std::optional<Journal> journal_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<std::string> queue_;          ///< queued job ids, FIFO
  std::map<std::string, JobRecord> jobs_;  ///< every known job by id
  std::string running_id_;                 ///< empty when executor idle
  std::shared_ptr<util::CancelToken> running_cancel_;
  std::uint64_t next_seq_ = 1;
  Counters counters_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};  ///< drain watchdog pulled the token

  std::mutex ready_mu_;
  std::condition_variable ready_cv_;
  bool ready_ = false;

  std::mutex log_mu_;
};

}  // namespace salign::serve
