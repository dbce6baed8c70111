#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/timer.hpp"

namespace salign::msa {

/// One timed phase of a sequential aligner run (distance matrix, guide tree,
/// progressive pass, refinement).
struct PhaseEntry {
  std::string name;
  double wall_seconds = 0.0;
  bool cache_hit = false;  ///< value served from the artifact cache
};

/// The calling thread's record of aligner phases. Constructing a log
/// installs it as the thread's current one; destroying it restores the log
/// that was current before, so logs nest. The Sample-Align-D pipeline
/// installs one around each rank's segment of a stage and files its entries
/// on that stage's row (core::StageStats::phases): phases land on the stage
/// and rank that ran them, and concurrent runs never share a recorder.
class PhaseLog {
 public:
  PhaseLog();
  ~PhaseLog();
  PhaseLog(const PhaseLog&) = delete;
  PhaseLog& operator=(const PhaseLog&) = delete;

  /// The log installed on the calling thread, or null.
  [[nodiscard]] static PhaseLog* current();

  void add(PhaseEntry entry) { entries_.push_back(std::move(entry)); }
  [[nodiscard]] const std::vector<PhaseEntry>& entries() const {
    return entries_;
  }

 private:
  PhaseLog* previous_;
  std::vector<PhaseEntry> entries_;
};

/// RAII phase timer: appends one entry to the calling thread's log on
/// destruction; call hit() when the phase's value came from the artifact
/// cache. Does nothing when the thread has no log installed. `name` must
/// outlive the timer (callers pass string literals).
class ScopedPhase {
 public:
  explicit ScopedPhase(std::string_view name)
      : log_(PhaseLog::current()), name_(name) {}
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase() {
    if (log_ != nullptr)
      log_->add({std::string(name_), watch_.seconds(), hit_});
  }

  void hit() { hit_ = true; }

 private:
  PhaseLog* log_;
  std::string_view name_;
  util::Stopwatch watch_;
  bool hit_ = false;
};

}  // namespace salign::msa
