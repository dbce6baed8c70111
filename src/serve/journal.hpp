#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/wire.hpp"

namespace salign::serve {

/// Lifecycle of a submitted job. Transitions are journaled durably before
/// they take effect anywhere observable:
///
///   queued ──► running ──► done
///                 │    ├──► failed     (runtime/input error; exit_code 1/3)
///                 │    ├──► evicted    (deadline blown; checkpoint valid)
///                 │    └──► cancelled  (operator cancel; checkpoint valid)
///                 └──► queued          (daemon drained or crashed mid-run;
///                                       replay resumes from the checkpoint)
enum class JobState { kQueued, kRunning, kDone, kFailed, kEvicted, kCancelled };

[[nodiscard]] const char* to_string(JobState s);
/// Throws WireError on an unknown name (a journal file from the future).
[[nodiscard]] JobState job_state_from_string(const std::string& name);
[[nodiscard]] inline bool is_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kEvicted || s == JobState::kCancelled;
}

/// What to align and how — the accepted subset of `salign align`'s surface.
/// Paths are absolute (the client resolves them; the daemon's cwd is its
/// own business).
struct JobSpec {
  std::string input;           ///< FASTA to align (absolute path)
  std::string output;          ///< where the result is durably written
  std::string format = "fasta";  ///< "fasta" or "clustal"
  std::string aligner = "muscle";
  int procs = 4;
  int threads = 1;
  double deadline_seconds = 0.0;   ///< per-attempt run budget; 0 = none

  [[nodiscard]] Json to_json() const;
  [[nodiscard]] static JobSpec from_json(const Json& j);  // throws WireError
};

/// One journaled job: the spec plus everything the daemon learned about it.
/// The on-disk unit of the journal — serialized as a single JSON line and
/// rewritten atomically (util::write_file_durable) on every transition, so
/// a crash at any instant leaves each job's file at exactly one valid
/// state; torn journals cannot exist.
struct JobRecord {
  std::string id;        ///< "j000001"... (monotonic per journal directory)
  std::uint64_t seq = 0;  ///< numeric part of id; orders replay
  JobState state = JobState::kQueued;
  JobSpec spec;
  int attempts = 0;       ///< times a run of this job started
  int exit_code = 0;      ///< CLI taxonomy code once terminal
  std::string error;      ///< diagnostic once failed/evicted/cancelled
  std::uint64_t submitted_ms = 0;  ///< wall clock (unix ms), informational
  std::uint64_t updated_ms = 0;    ///< last journaled transition

  [[nodiscard]] Json to_json() const;
  [[nodiscard]] static JobRecord from_json(const Json& j);  // throws WireError
};

/// The journal directory: `<dir>/jobs/<id>.json` records plus
/// `<dir>/ckpt/<id>/` per-job checkpoint directories (written by the
/// pipeline's own stage machinery, not this class).
///
/// Durability contract: record() returns only after the job file is on disk
/// (tmp → fsync → rename → dir fsync) — the daemon acknowledges a submit
/// only after record() returned, so an acknowledged job survives kill -9.
/// Injection sites: "serve.journal.write" (record) and "serve.journal.read"
/// (replay), both behind the standard transient-retry policy.
class Journal {
 public:
  /// Creates the directory layout. Throws ResourceError when it cannot be
  /// created or is not writable (probed with a marker write at startup so
  /// a misconfigured daemon fails fast with exit 5, not mid-job).
  explicit Journal(std::string dir);

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Durably writes (or rewrites) the job's record file.
  void record(const JobRecord& rec);

  /// Reads every job record, in seq order. Unreadable or malformed files
  /// are quarantined (renamed `<file>.corrupt`) and reported in
  /// `quarantined` rather than failing the replay — a daemon must start on
  /// a damaged journal and keep what verifies.
  [[nodiscard]] std::vector<JobRecord> replay(
      std::vector<std::string>* quarantined = nullptr);

  /// Checkpoint directory of one job (created lazily by the pipeline).
  [[nodiscard]] std::string checkpoint_dir(const std::string& job_id) const;

 private:
  std::string dir_;
};

}  // namespace salign::serve
