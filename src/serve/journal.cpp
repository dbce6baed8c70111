#include "serve/journal.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <span>

#include "serve/socket.hpp"
#include "util/fault_injection.hpp"
#include "util/io.hpp"

namespace salign::serve {

namespace fs = std::filesystem;

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kEvicted: return "evicted";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

JobState job_state_from_string(const std::string& name) {
  for (const JobState s :
       {JobState::kQueued, JobState::kRunning, JobState::kDone,
        JobState::kFailed, JobState::kEvicted, JobState::kCancelled})
    if (name == to_string(s)) return s;
  throw WireError("unknown job state '" + name + "'");
}

Json JobSpec::to_json() const {
  Json::Object o;
  o.emplace("in", input);
  o.emplace("out", output);
  o.emplace("format", format);
  o.emplace("aligner", aligner);
  o.emplace("procs", procs);
  o.emplace("threads", threads);
  o.emplace("deadline", deadline_seconds);
  return Json(std::move(o));
}

JobSpec JobSpec::from_json(const Json& j) {
  JobSpec s;
  s.input = j.get_string("in");
  s.output = j.get_string("out");
  s.format = j.get_string("format", "fasta");
  s.aligner = j.get_string("aligner", "muscle");
  s.procs = static_cast<int>(j.get_number("procs", 4));
  s.threads = static_cast<int>(j.get_number("threads", 1));
  s.deadline_seconds = j.get_number("deadline", 0.0);
  if (s.input.empty()) throw WireError("job spec: 'in' is required");
  if (s.procs < 1 || s.procs > 1024)
    throw WireError("job spec: 'procs' out of range [1,1024]");
  if (s.threads < 0 || s.threads > 1024)
    throw WireError("job spec: 'threads' out of range [0,1024]");
  if (s.deadline_seconds < 0.0)
    throw WireError("job spec: 'deadline' must be >= 0");
  if (s.format != "fasta" && s.format != "clustal")
    throw WireError("job spec: 'format' must be 'fasta' or 'clustal'");
  return s;
}

Json JobRecord::to_json() const {
  Json::Object o;
  o.emplace("v", kWireVersion);
  o.emplace("id", id);
  o.emplace("seq", seq);
  o.emplace("state", to_string(state));
  o.emplace("spec", spec.to_json());
  o.emplace("attempts", attempts);
  o.emplace("exit_code", exit_code);
  o.emplace("error", error);
  o.emplace("submitted_ms", submitted_ms);
  o.emplace("updated_ms", updated_ms);
  return Json(std::move(o));
}

JobRecord JobRecord::from_json(const Json& j) {
  JobRecord r;
  r.id = j.get_string("id");
  r.seq = static_cast<std::uint64_t>(j.get_number("seq", 0.0));
  r.state = job_state_from_string(j.get_string("state"));
  const Json* spec = j.find("spec");
  if (spec == nullptr) throw WireError("job record: 'spec' is required");
  r.spec = JobSpec::from_json(*spec);
  r.attempts = static_cast<int>(j.get_number("attempts", 0.0));
  r.exit_code = static_cast<int>(j.get_number("exit_code", 0.0));
  r.error = j.get_string("error");
  r.submitted_ms =
      static_cast<std::uint64_t>(j.get_number("submitted_ms", 0.0));
  r.updated_ms = static_cast<std::uint64_t>(j.get_number("updated_ms", 0.0));
  if (r.id.empty()) throw WireError("job record: 'id' is required");
  return r;
}

Journal::Journal(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(fs::path(dir_) / "jobs", ec);
  if (!ec) fs::create_directories(fs::path(dir_) / "ckpt", ec);
  if (ec)
    throw ResourceError("journal directory " + dir_ +
                        " cannot be created: " + ec.message());
  // Probe writability now: a daemon that could accept jobs but never
  // journal them would shed every submit — fail startup with exit 5
  // instead. Drillable as "serve.journal.probe"; deliberately un-retried
  // (boot either works or it doesn't — there is no retry loop to hide in).
  const fs::path probe = fs::path(dir_) / "jobs" / ".probe.tmp";
  try {
    static constexpr std::uint8_t kMark[] = {'o', 'k', '\n'};
    util::write_file_durable(probe, std::span<const std::uint8_t>(kMark),
                             "serve.journal.probe");
    fs::remove(probe, ec);
  } catch (const std::exception& e) {
    throw ResourceError("journal directory " + dir_ +
                        " is not writable: " + e.what());
  }
}

void Journal::record(const JobRecord& rec) {
  const std::string line = rec.to_json().dump() + "\n";
  const fs::path target = fs::path(dir_) / "jobs" / (rec.id + ".json");
  util::retry_io("serve.journal.write", [&] {
    util::write_file_durable(
        target,
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(line.data()), line.size()),
        "serve.journal.write");
  });
}

std::vector<JobRecord> Journal::replay(std::vector<std::string>* quarantined) {
  std::vector<JobRecord> out;
  const fs::path jobs_dir = fs::path(dir_) / "jobs";
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(jobs_dir)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& file : files) {
    try {
      const std::string text = util::retry_io("serve.journal.read", [&] {
        return util::read_file(file, "serve.journal.read");
      });
      out.push_back(JobRecord::from_json(Json::parse(text)));
    } catch (const std::exception& e) {
      // Keep serving on a damaged journal: set the record aside (visible to
      // the operator, never silently deleted) and continue the replay.
      std::error_code ec;
      // salign-lint: allow(durable-io) -- quarantine rename: best-effort
      // set-aside of an already-corrupt record; durability adds nothing.
      fs::rename(file, fs::path(file.string() + ".corrupt"), ec);  // salign-lint: allow(durable-io) -- see above
      if (quarantined != nullptr)
        quarantined->push_back(file.filename().string() + ": " + e.what());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const JobRecord& a, const JobRecord& b) { return a.seq < b.seq; });
  return out;
}

std::string Journal::checkpoint_dir(const std::string& job_id) const {
  return (fs::path(dir_) / "ckpt" / job_id).string();
}

}  // namespace salign::serve
