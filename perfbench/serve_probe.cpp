// The serve phase of rose2k-p4's traced run: an in-process serve::Daemon on
// a real Unix socket with a durable journal, fed the job plan by one client
// thread on a seeded open-loop schedule. Afterwards every distinct input is
// aligned directly; each result file must be byte-identical to that direct
// alignment.

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "bio/fasta.hpp"
#include "core/sample_align_d.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/journal.hpp"
#include "trace.hpp"
#include "util/artifact_cache.hpp"
#include "util/string_util.hpp"

namespace perfbench {

namespace sa = salign;
namespace fs = std::filesystem;
using sa::serve::Json;

namespace {

/// How often the client asks for the state of the oldest unfinished job.
constexpr double kPollInterval = 0.002;

/// A daemon serving on its own thread; the destructor stops and joins it.
class RunningDaemon {
 public:
  explicit RunningDaemon(sa::serve::DaemonOptions options)
      : daemon_(std::move(options)), thread_([this] {
          try {
            daemon_.run();
          } catch (const std::exception& e) {
            std::lock_guard lk(mu_);
            error_ = e.what();
          }
        }) {}
  ~RunningDaemon() {
    daemon_.request_stop();
    thread_.join();
  }
  RunningDaemon(const RunningDaemon&) = delete;
  RunningDaemon& operator=(const RunningDaemon&) = delete;

  [[nodiscard]] sa::serve::Daemon& daemon() { return daemon_; }
  [[nodiscard]] std::string error() const {
    std::lock_guard lk(mu_);
    return error_;
  }

 private:
  sa::serve::Daemon daemon_;
  mutable std::mutex mu_;
  std::string error_;
  std::thread thread_;
};

struct Job {
  Submission plan;
  std::string out;  ///< absolute result path
  std::string id;   ///< daemon job id once acknowledged
  std::string state;
  double sent = -1.0;
  double ack = -1.0;
  double running = -1.0;   ///< first poll that saw it running (or later)
  double terminal = -1.0;  ///< first poll that saw it terminal
};

bool is_terminal_state(const std::string& s) {
  return s == "done" || s == "failed" || s == "evicted" || s == "cancelled";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

double dir_bytes(const fs::path& dir) {
  double total = 0.0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec))
    if (e.is_regular_file()) total += static_cast<double>(e.file_size());
  return total;
}

}  // namespace

void measure_serve_layers(const RunArgs& a, Tracer& tracer, Report& rep) {
  const fs::path work(a.work);
  const std::string journal_dir = fs::absolute(work / "journal").string();
  // Relative: sun_path holds ~107 bytes and the checkout path may be long.
  const std::string socket = (work / "d.sock").string();

  const double b0 = now_s();
  auto server = [&] {
    ScopedSpan span(&tracer, "serve.boot");
    sa::serve::DaemonOptions o;
    o.socket_path = socket;
    o.journal_dir = journal_dir;
    auto s = std::make_unique<RunningDaemon>(o);
    if (!s->daemon().wait_until_ready(10.0))
      throw std::runtime_error("daemon did not start: " + s->error());
    return s;
  }();
  const double boot_s = now_s() - b0;

  // Submit on schedule, poll the oldest unfinished job between sends. Jobs
  // run one at a time in FIFO order, so a job behind an unfinished one
  // cannot have started yet. Submits use the protocol defaults, procs=4
  // and threads=1.
  const JobPlan plan = job_plan(a.seed);
  fs::create_directories(work / "out");
  std::vector<std::string> input_paths;
  for (std::size_t i = 0; i < plan.sizes.size(); ++i)
    input_paths.push_back(fs::absolute(a.inputs.job_fasta(i)).string());
  std::vector<Job> jobs;
  for (std::size_t k = 0; k < plan.sends.size(); ++k) {
    Job j;
    j.plan = plan.sends[k];
    j.out = fs::absolute(work / "out" / (sa::util::indexed_name("s", k) + ".afa"))
                .string();
    jobs.push_back(std::move(j));
  }

  const auto cache0 = sa::util::ArtifactCache::process_cache().stats();
  const double base = now_s() + 0.05;
  const double give_up = base + plan.span + 60.0;
  std::deque<std::size_t> outstanding;
  std::vector<double> rtts;
  double max_lag = 0.0;
  std::size_t next = 0;
  double next_poll = 0.0;

  const auto submit = [&](std::size_t k) {
    Job& j = jobs[k];
    rep.attempt();
    Json::Object req{{"v", 1}, {"op", "submit"},
                     {"in", input_paths[j.plan.input]}, {"out", j.out}};
    j.sent = now_s();
    max_lag = std::max(max_lag, j.sent - (base + j.plan.due));
    try {
      Json resp;
      {
        ScopedSpan span(&tracer, "serve.submit", -1, static_cast<int>(k));
        resp = sa::serve::request(socket, Json(std::move(req)));
      }
      j.ack = now_s();
      rtts.push_back(j.ack - j.sent);
      if (resp.get_bool("ok")) {
        j.id = resp.get_string("id");
        outstanding.push_back(k);
      } else {
        rep.fail("submission " + std::to_string(k) + " refused: " +
                 resp.get_string("code"));
      }
    } catch (const std::exception& e) {
      rep.fail("submission " + std::to_string(k) + ": " + e.what());
    }
  };
  const auto poll = [&] {
    while (!outstanding.empty()) {
      Job& j = jobs[outstanding.front()];
      Json resp;
      try {
        ScopedSpan span(&tracer, "serve.poll", -1,
                        static_cast<int>(outstanding.front()));
        resp = sa::serve::request(socket, Json(Json::Object{
                                              {"v", 1}, {"op", "status"}, {"id", j.id}}));
      } catch (const std::exception&) {
        return;  // dropped connection: state unknown, ask again next poll
      }
      const double t = now_s();
      const Json* rec = resp.find("job");
      if (rec == nullptr) return;
      j.state = rec->get_string("state");
      if (j.state == "queued") return;
      if (j.running < 0.0) j.running = t;
      if (!is_terminal_state(j.state)) return;
      j.terminal = t;
      outstanding.pop_front();
    }
  };

  while (true) {
    const double now = now_s();
    if (next < jobs.size() && now >= base + jobs[next].plan.due) {
      submit(next++);
      continue;
    }
    if (!outstanding.empty() && now >= next_poll) {
      poll();
      next_poll = now_s() + kPollInterval;
      continue;
    }
    if (next == jobs.size() && outstanding.empty()) break;
    if (now > give_up) {
      for (const std::size_t k : outstanding)
        rep.fail("job " + jobs[k].id + " unfinished at the time limit");
      break;
    }
    double wake = next < jobs.size() ? base + jobs[next].plan.due
                                     : std::numeric_limits<double>::infinity();
    if (!outstanding.empty()) wake = std::min(wake, next_poll);
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::clamp(wake - now, 0.0, 0.05)));
  }
  const auto cache1 = sa::util::ArtifactCache::process_cache().stats();
  const sa::serve::Daemon::Counters counters = server->daemon().counters();
  server.reset();

  std::vector<double> queue_waits;
  std::vector<double> execs;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const Job& j = jobs[k];
    if (j.terminal < 0.0) continue;
    tracer.add("serve.job", base + j.plan.due, j.terminal, -1, static_cast<int>(k));
    if (j.state != "done") {
      rep.fail("job " + j.id + " ended " + j.state);
      continue;
    }
    queue_waits.push_back(j.running - j.ack);
    execs.push_back(j.terminal - j.running);
  }

  // Each result must be byte-identical to a direct alignment of its input
  // with the job config.
  sa::core::SampleAlignDConfig job_cfg;  // procs=4, threads=1
  std::vector<std::string> expected(plan.sizes.size());
  for (std::size_t i = 0; i < plan.sizes.size(); ++i) {
    rep.attempt();
    try {
      const auto seqs = sa::bio::read_fasta_file(a.inputs.job_fasta(i));
      const sa::msa::Alignment aln = sa::core::SampleAlignD(job_cfg).align(seqs);
      if (const std::string d = check_alignment(aln, seqs); !d.empty())
        rep.fail("input " + std::to_string(i) + ": " + d);
      expected[i] = fasta_text(aln);
    } catch (const std::exception& e) {
      rep.fail("direct align " + std::to_string(i) + ": " + e.what());
    }
  }
  double ckpt = 0.0;
  std::size_t done = 0;
  const sa::serve::Journal journal(journal_dir);
  for (const Job& j : jobs) {
    if (j.state != "done") continue;
    if (read_file(j.out) != expected[j.plan.input])
      rep.fail("result of " + j.id + " differs from the direct alignment");
    ckpt += dir_bytes(journal.checkpoint_dir(j.id));
    ++done;
  }

  rep.set("core.checkpoint_bytes_per_job",
          ckpt / static_cast<double>(std::max<std::size_t>(done, 1)), done);
  const auto hits = static_cast<double>(cache1.hits - cache0.hits);
  const double lookups = hits + static_cast<double>(cache1.misses - cache0.misses);
  rep.set("cache.lookups", lookups, 1);
  rep.set("cache.hit_ratio", lookups > 0.0 ? hits / lookups : 0.0, 1);
  rep.set("cache.hit_bytes", static_cast<double>(cache1.hit_bytes - cache0.hit_bytes),
          1);
  rep.set("serve.boot_s", boot_s, 1);
  rep.set("serve.submit_rtt_p50_s", guarded_percentile(rtts, 0.5), rtts.size());
  rep.set("serve.queue_wait_p50_s", guarded_percentile(queue_waits, 0.5),
          queue_waits.size());
  rep.set("serve.queue_wait_p90_s", guarded_percentile(queue_waits, 0.9),
          queue_waits.size());
  rep.set("serve.exec_p50_s", guarded_percentile(execs, 0.5), execs.size());
  rep.set("serve.shed", static_cast<double>(counters.shed), jobs.size());
  rep.set("serve.failed", static_cast<double>(counters.failed), jobs.size());
  rep.set("serve.generator_lag_max_s", max_lag, jobs.size());
}

}  // namespace perfbench
