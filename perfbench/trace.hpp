#pragma once

// Span recording and the arithmetic the per-layer metrics are built from.
// Spans are kept in memory and written out once, as Chrome trace-event
// JSON, when a traced run ends.

#include <cstddef>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process
/// (main() calls it first, so it reads as time since process start).
[[nodiscard]] double now_s();

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int id = 0;
  int parent = -1;   ///< id of the span that caused this one, -1 for none
  int request = -1;  ///< spans of one job or align call share this id
  std::size_t tid = 0;

  [[nodiscard]] double duration() const { return end - start; }
};

/// Thread-safe in-memory span store. A null Tracer* means tracing is off;
/// ScopedSpan and the helpers below accept it and do nothing.
class Tracer {
 public:
  /// Records a finished span and returns its id.
  int add(std::string name, double start, double end, int parent = -1,
          int request = -1);
  /// Reserves an id for a span that finishes later (so children can name
  /// it as their parent before it ends).
  int reserve();
  void finish(int id, std::string name, double start, double end,
              int parent = -1, int request = -1);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Writes every span as a Chrome trace-event JSON array.
  void write_chrome_trace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int next_id_ = 0;
};

/// Times its own lifetime into `tracer` (no-op when tracer is null).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int parent = -1,
             int request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tracer_;
  std::string name_;
  int parent_;
  int request_;
  int id_ = -1;
  double start_;
};

/// Total length covered by a set of [start, end) intervals: overlapping
/// intervals count once.
[[nodiscard]] double union_length(std::vector<std::pair<double, double>> iv);

/// A span's self time: its duration minus the part of its interval that its
/// children cover. Concurrent children are subtracted as the union of their
/// intervals, never as the sum of their durations.
[[nodiscard]] double self_time(const Span& parent,
                               const std::vector<Span>& children);

}  // namespace perfbench
