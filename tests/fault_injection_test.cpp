#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bio/fasta.hpp"
#include "cli/commands.hpp"
#include "core/pipeline_stats.hpp"
#include "core/sample_align_d.hpp"
#include "msa/alignment.hpp"
#include "util/artifact_cache.hpp"
#include "util/budget.hpp"
#include "util/fault_injection.hpp"
#include "util/io.hpp"
#include "util/thread_pool.hpp"

namespace salign {
namespace {

namespace fs = std::filesystem;
using util::Budget;
using util::CancelToken;
using util::FaultInjector;
using util::InjectedFault;
using util::IoError;

/// Every test leaves the process-global injector disarmed: it is shared
/// state, and a leaked plan would fail unrelated suites.
class FaultInjectorTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::instance().disarm(); }
  void TearDown() override { FaultInjector::instance().disarm(); }
};

TEST_F(FaultInjectorTest, DisarmedIsANoOp) {
  auto& fi = FaultInjector::instance();
  EXPECT_FALSE(fi.enabled());
  for (int i = 0; i < 100; ++i) fi.maybe_fail("some.site");
  // Disarmed hits are not even counted (the fast path never takes the lock).
  EXPECT_EQ(fi.stats("some.site").hits, 0u);
}

TEST_F(FaultInjectorTest, SingleHitWindowFailsExactlyOnce) {
  auto& fi = FaultInjector::instance();
  fi.arm("x:2");
  int failures = 0;
  for (int i = 0; i < 6; ++i) {
    try {
      fi.maybe_fail("x");
    } catch (const InjectedFault& e) {
      ++failures;
      EXPECT_EQ(e.site(), "x");
      EXPECT_TRUE(e.transient());
    }
  }
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(fi.stats("x").hits, 6u);
  EXPECT_EQ(fi.stats("x").failures, 1u);
}

TEST_F(FaultInjectorTest, WindowAndOpenEndedSpecs) {
  auto& fi = FaultInjector::instance();
  fi.arm("w:1:3,open:2:*");
  int w_failures = 0;
  for (int i = 0; i < 10; ++i) {
    try {
      fi.maybe_fail("w");
    } catch (const InjectedFault&) {
      ++w_failures;
    }
  }
  EXPECT_EQ(w_failures, 3);  // hits 1,2,3
  int open_failures = 0;
  for (int i = 0; i < 10; ++i) {
    try {
      fi.maybe_fail("open");
    } catch (const InjectedFault&) {
      ++open_failures;
    }
  }
  EXPECT_EQ(open_failures, 8);  // hits 2..9
}

TEST_F(FaultInjectorTest, BangSuffixMakesFaultNonTransient) {
  auto& fi = FaultInjector::instance();
  fi.arm("hard:0!");
  try {
    fi.maybe_fail("hard");
    FAIL() << "expected InjectedFault";
  } catch (const InjectedFault& e) {
    EXPECT_FALSE(e.transient());
  }
}

TEST_F(FaultInjectorTest, ProbabilisticModeIsDeterministicPerSeed) {
  auto& fi = FaultInjector::instance();
  const auto sample = [&](std::uint64_t seed) {
    fi.disarm();
    fi.seed(seed);
    fi.arm("p:~0.5");
    std::vector<bool> outcomes;
    for (int i = 0; i < 64; ++i) {
      bool failed = false;
      try {
        fi.maybe_fail("p");
      } catch (const InjectedFault&) {
        failed = true;
      }
      outcomes.push_back(failed);
    }
    return outcomes;
  };
  const auto a = sample(7);
  const auto b = sample(7);
  const auto c = sample(8);
  EXPECT_EQ(a, b);  // same seed, same hit order => same outcomes
  EXPECT_NE(a, c);  // different seed => (overwhelmingly) different subset
  int fails = 0;
  for (const bool f : a) fails += f ? 1 : 0;
  EXPECT_GT(fails, 10);  // p=0.5 over 64 hits: both extremes astronomically
  EXPECT_LT(fails, 54);  // unlikely, and would mean a broken hash
}

TEST_F(FaultInjectorTest, MalformedSpecsThrowAndArmNothing) {
  auto& fi = FaultInjector::instance();
  for (const char* bad : {"x", "x:", "x:abc", "x:1:0", "x:~0", "x:~1.5",
                          "x:1:2:3", ":3"}) {
    EXPECT_THROW(fi.arm(bad), std::invalid_argument) << "spec '" << bad << "'";
    EXPECT_FALSE(fi.enabled()) << "spec '" << bad << "' armed something";
  }
  // An empty spec (e.g. SALIGN_FAULTS set but empty) arms nothing.
  EXPECT_NO_THROW(fi.arm(""));
  EXPECT_FALSE(fi.enabled());
}

TEST_F(FaultInjectorTest, DefaultDurableFileSitesAreDrillable) {
  // "file.write" / "file.read" are the default sites of
  // util::write_file_durable / util::read_file — the contract CLI --out
  // paths rely on. A transient write blip is absorbed by retry_io, a hard
  // fault propagates, and a hard read fault fires before any bytes move.
  auto& fi = FaultInjector::instance();
  const fs::path p =
      fs::temp_directory_path() /
      ("salign_file_site_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fi.arm("file.write:0");  // one transient failure, then clean
  util::retry_io("file.write",
                 [&] { util::write_text_file_durable(p, "payload\n"); });
  EXPECT_EQ(fi.stats("file.write").failures, 1u);
  fi.disarm();

  fi.arm("file.read:0:*!");
  EXPECT_THROW((void)util::read_file(p), InjectedFault);
  fi.disarm();
  EXPECT_EQ(util::read_file(p), "payload\n");

  fi.arm("file.write:0:*!");
  EXPECT_THROW(util::write_text_file_durable(p, "clobber"), InjectedFault);
  fi.disarm();
  // The hard fault fired before the tmp file was opened: old bytes survive.
  EXPECT_EQ(util::read_file(p), "payload\n");
  std::error_code ec;
  fs::remove(p, ec);
}

TEST_F(FaultInjectorTest, FastaWriteFaultsFollowTheRetryContract) {
  auto& fi = FaultInjector::instance();
  const fs::path p =
      fs::temp_directory_path() /
      ("salign_fasta_site_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
       ".fa");
  const std::vector<bio::Sequence> seqs{bio::Sequence("s0", "ACDEF")};
  fi.arm("fasta.write:0");  // transient: the write_fasta_file retry absorbs it
  bio::write_fasta_file(p.string(), seqs);
  EXPECT_EQ(fi.stats("fasta.write").failures, 1u);
  fi.disarm();
  const auto back = bio::read_fasta_file(p.string());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].text(), "ACDEF");

  fi.arm("fasta.write:0:*!");  // hard: retries exhausted, IoError escapes
  EXPECT_THROW(bio::write_fasta_file(p.string(), seqs), IoError);
  fi.disarm();
  std::error_code ec;
  fs::remove(p, ec);
}

TEST_F(FaultInjectorTest, UnarmedSitesAreCountedWhileEnabled) {
  auto& fi = FaultInjector::instance();
  fi.arm("armed:0");
  fi.maybe_fail("bystander");
  EXPECT_EQ(fi.stats("bystander").hits, 1u);
  EXPECT_EQ(fi.stats("bystander").failures, 0u);
  const auto all = fi.all_stats();
  ASSERT_EQ(all.size(), 2u);  // name order: armed, bystander
  EXPECT_EQ(all[0].first, "armed");
  EXPECT_EQ(all[1].first, "bystander");
}

TEST_F(FaultInjectorTest, ArmFromEnvReadsSpecAndSeed) {
  auto& fi = FaultInjector::instance();
  ::setenv("SALIGN_FAULTS", "env.site:0", 1);
  ::setenv("SALIGN_FAULT_SEED", "123", 1);
  fi.arm_from_env();
  ::unsetenv("SALIGN_FAULTS");
  ::unsetenv("SALIGN_FAULT_SEED");
  EXPECT_TRUE(fi.enabled());
  EXPECT_THROW(fi.maybe_fail("env.site"), InjectedFault);
}

// ---- retry interplay --------------------------------------------------------

TEST_F(FaultInjectorTest, RetryAbsorbsTransientFaults) {
  auto& fi = FaultInjector::instance();
  fi.arm("flaky:0:2");  // two transient failures, then clean
  int attempts = 0;
  const int result = util::retry_io("flaky", [&] {
    ++attempts;
    fi.maybe_fail("flaky");
    return 42;
  });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(attempts, 3);
}

TEST_F(FaultInjectorTest, RetryGivesUpOnNonTransientFault) {
  auto& fi = FaultInjector::instance();
  fi.arm("dead:0!");
  int attempts = 0;
  EXPECT_THROW(util::retry_io("dead",
                              [&] {
                                ++attempts;
                                fi.maybe_fail("dead");
                              }),
               IoError);
  EXPECT_EQ(attempts, 1);  // non-transient => no retry
}

TEST_F(FaultInjectorTest, RetryExhaustsOnPersistentTransientFault) {
  auto& fi = FaultInjector::instance();
  fi.arm("down:0:*");
  int attempts = 0;
  try {
    util::retry_io("down", [&] {
      ++attempts;
      fi.maybe_fail("down");
    });
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_TRUE(e.transient());
    EXPECT_NE(std::string(e.what()).find("retries exhausted"),
              std::string::npos);
  }
  EXPECT_EQ(attempts, 4);  // RetryOptions default
}

// ---- budget -----------------------------------------------------------------

TEST(BudgetTest, NoLimitsNeverStops) {
  const Budget b;
  EXPECT_FALSE(b.should_stop());
  EXPECT_NO_THROW(b.check("anywhere"));
}

TEST(BudgetTest, PassedDeadlineThrowsWithLocation) {
  const Budget b(1e-9);
  while (!b.should_stop()) {
  }
  try {
    b.check("merge 7");
    FAIL() << "expected DeadlineExceeded";
  } catch (const util::DeadlineExceeded& e) {
    EXPECT_NE(std::string(e.what()).find("merge 7"), std::string::npos);
  }
}

TEST(BudgetTest, CancelTokenStopsAndNames) {
  auto token = std::make_shared<CancelToken>();
  const Budget b(0.0, token);
  EXPECT_FALSE(b.should_stop());
  token->request();
  EXPECT_TRUE(b.should_stop());
  EXPECT_THROW(b.check("chunk"), util::CancelledError);
}

TEST(BudgetTest, ScopedBudgetInstallsAndRestores) {
  EXPECT_EQ(util::current_budget(), nullptr);
  EXPECT_NO_THROW(util::poll_budget("idle"));
  {
    const Budget b(1e-9);
    const util::ScopedBudget scoped(&b);
    EXPECT_EQ(util::current_budget(), &b);
    while (!b.should_stop()) {
    }
    EXPECT_THROW(util::poll_budget("stage"), util::DeadlineExceeded);
  }
  EXPECT_EQ(util::current_budget(), nullptr);
}

// The scope is per thread: pool threads working for the installer see its
// budget while they run its work; any other thread sees none.
TEST(BudgetTest, ScopedBudgetReachesPoolWorkersOnly) {
  const Budget b;
  const util::ScopedBudget scoped(&b);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<const Budget*> seen;
  util::ThreadPool pool(3);
  pool.run(3, [&] {
    std::unique_lock lock(mu);
    seen.push_back(util::current_budget());
    cv.notify_all();
    // Hold the caller's copy until a pool thread has joined in.
    cv.wait_for(lock, std::chrono::seconds(10),
                [&] { return seen.size() >= 2; });
  });
  ASSERT_GE(seen.size(), 2u);
  for (const Budget* s : seen) EXPECT_EQ(s, &b);

  const Budget* other = &b;
  std::thread t([&] { other = util::current_budget(); });
  t.join();
  EXPECT_EQ(other, nullptr);
}

// ---- fault matrix through the CLI -------------------------------------------

/// Runs `salign <args...>` in-process; the whole pipeline (checkpointing,
/// cache, budget) is exercised exactly as the binary would.
struct CliResult {
  int status = 0;
  std::string out;
  std::string err;
};
CliResult run_cli(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int status = cli::dispatch(args, out, err);
  return {status, out.str(), err.str()};
}

class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().disarm();
    dir_ = fs::temp_directory_path() /
           ("salign_fault_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
    input_ = (dir_ / "in.fasta").string();
    const CliResult gen = run_cli({"generate", "--kind", "rose", "--n", "10",
                                   "--length", "40", "--out", input_});
    ASSERT_EQ(gen.status, 0) << gen.err;
  }
  void TearDown() override {
    FaultInjector::instance().disarm();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// A clean pipeline run (no checkpointing) — the byte-identity reference.
  [[nodiscard]] std::string clean_output(const std::string& threads) const {
    const CliResult r = run_cli({"align", "--in", input_, "--procs", "4",
                                 "--threads", threads});
    EXPECT_EQ(r.status, 0) << r.err;
    return r.out;
  }

  /// The same run through the library with the process-wide artifact cache
  /// on, written as aligned FASTA. With `ckpt` set it checkpoints there and,
  /// with `resume`, loads completed stages back — as `salign serve` runs
  /// every job.
  [[nodiscard]] std::string cached_output(
      unsigned threads, const std::string& ckpt = {}, bool resume = false,
      core::PipelineStats* stats = nullptr) const {
    core::SampleAlignDConfig cfg;
    cfg.num_procs = 4;
    cfg.threads = threads;
    cfg.use_artifact_cache = true;
    cfg.checkpoint.dir = ckpt;
    cfg.checkpoint.resume = resume;
    std::ostringstream out;
    msa::write_aligned_fasta(
        out,
        core::SampleAlignD(cfg).align(bio::read_fasta_file(input_), stats));
    return out.str();
  }

  /// A clean resume from the checkpoint a faulted run left in `ckpt`: every
  /// stage must load back and the output must be `want` byte for byte.
  void expect_clean_resume(unsigned threads, const std::string& ckpt,
                           const std::string& want) const {
    core::PipelineStats stats;
    EXPECT_EQ(cached_output(threads, ckpt, /*resume=*/true, &stats), want)
        << "resume from " << ckpt << " diverged";
    ASSERT_FALSE(stats.stages.empty());
    for (const auto& stage : stats.stages)
      EXPECT_TRUE(stage.resumed) << stage.name << " was recomputed";
  }

  fs::path dir_;
  std::string input_;
};

TEST_F(FaultMatrixTest, EverySiteRecoversToByteIdenticalOutput) {
  // Open-ended hard faults at every hardened checkpoint site. Write-side
  // faults kill the run (exit 1); read-side faults are recovered in-flight
  // (quarantine + recompute). Either way the checkpoint left behind must be
  // valid and a clean resume must reproduce the alignment byte for byte —
  // at one worker thread and several.
  const struct {
    const char* site;
    bool fault_on_resume;  // read-side sites only fire when resuming
    bool run_survives;     // does the faulted run itself still succeed?
  } kMatrix[] = {
      {"checkpoint.write", false, false}, {"manifest.store", false, false},
      {"checkpoint.read", true, true},    {"manifest.load", true, true},
  };
  for (const char* threads : {"1", "3"}) {
    const std::string want = clean_output(threads);
    for (const auto& entry : kMatrix) {
      SCOPED_TRACE(std::string(entry.site) + " threads=" + threads);
      const std::string ckpt = path(std::string("ckpt_") + entry.site +
                                    "_t" + threads);
      const std::vector<std::string> base_args{
          "align",     "--in",  input_, "--procs",          "4",
          "--threads", threads, "--checkpoint-dir", ckpt};
      auto& fi = FaultInjector::instance();
      fi.disarm();
      if (entry.fault_on_resume) {
        const CliResult seeded = run_cli(base_args);
        ASSERT_EQ(seeded.status, 0) << seeded.err;
      }
      fi.arm(std::string(entry.site) + ":0:*!");
      std::vector<std::string> faulted_args = base_args;
      if (entry.fault_on_resume) faulted_args.push_back("--resume");
      const CliResult faulted = run_cli(faulted_args);
      const auto site_stats = fi.stats(entry.site);  // before disarm clears
      fi.disarm();
      EXPECT_GT(site_stats.failures, 0u)
          << "site never hit — matrix is stale";
      if (entry.run_survives) {
        ASSERT_EQ(faulted.status, 0) << faulted.err;
        EXPECT_EQ(faulted.out, want);
      } else {
        ASSERT_EQ(faulted.status, cli::kExitRuntime) << faulted.err;
      }
      std::vector<std::string> resume_args = base_args;
      resume_args.push_back("--resume");
      const CliResult resumed = run_cli(resume_args);
      ASSERT_EQ(resumed.status, 0) << resumed.err;
      EXPECT_EQ(resumed.out, want) << "resume after " << entry.site
                                   << " fault diverged";
    }
  }
}

TEST_F(FaultMatrixTest, CacheFaultsAreMissesAndKeepOutputByteIdentical) {
  // Open-ended hard faults at both artifact-cache sites, on a cold cache and
  // then a warm one, in checkpointed runs. A failed lookup is a miss and a
  // failed insert leaves the value unshared, so every run must still produce
  // the uncached alignment byte for byte, and the checkpoint it leaves must
  // resume to the same bytes — at one worker thread and several.
  auto& cache = util::ArtifactCache::process_cache();
  auto& fi = FaultInjector::instance();
  for (const unsigned threads : {1U, 3U}) {
    const std::string want = clean_output(std::to_string(threads));
    for (const std::string site : {"cache.insert", "cache.lookup"}) {
      SCOPED_TRACE(site + " threads=" + std::to_string(threads));
      const std::string spec = site + ":0:*!";
      const std::string ckpt =
          path("ckpt_" + site + "_t" + std::to_string(threads));

      // Cold: hits from earlier runs in this binary would starve
      // cache.insert of misses.
      cache.clear();
      fi.arm(spec);
      const std::string cold = cached_output(threads, ckpt + "_cold");
      const auto cold_stats = fi.stats(site);  // before disarm clears
      fi.disarm();
      EXPECT_GT(cold_stats.failures, 0u) << "site never hit — drill is stale";
      EXPECT_EQ(cold, want);
      expect_clean_resume(threads, ckpt + "_cold", want);

      // Warm: an unfaulted run fills the cache, then the faulted run
      // finds every phase there.
      EXPECT_EQ(cached_output(threads), want);
      const std::uint64_t hits_before = cache.stats().hits;
      fi.arm(spec);
      const std::string warm = cached_output(threads, ckpt + "_warm");
      const auto warm_stats = fi.stats(site);
      fi.disarm();
      EXPECT_EQ(warm, want);
      if (site == "cache.lookup") {
        EXPECT_GT(warm_stats.failures, 0u);
      } else {
        EXPECT_GT(cache.stats().hits, hits_before);
      }
      expect_clean_resume(threads, ckpt + "_warm", want);
    }
  }
  cache.clear();
}

TEST_F(FaultMatrixTest, CliOutputWriteFaultsExitRuntimeOrAreRetried) {
  // `align --out` lands on the durable file.write site. Hard faults must
  // fail the command with the runtime exit code and leave no torn output;
  // a single transient fault must be invisible to the caller.
  auto& fi = FaultInjector::instance();
  fi.arm("file.write:0:*!");
  const CliResult hard = run_cli({"align", "--in", input_, "--procs", "2",
                                  "--out", path("out.afa")});
  fi.disarm();
  ASSERT_EQ(hard.status, cli::kExitRuntime) << hard.err;
  EXPECT_FALSE(fs::exists(path("out.afa")));

  fi.arm("file.write:0");
  const CliResult soft = run_cli({"align", "--in", input_, "--procs", "2",
                                  "--out", path("out.afa")});
  fi.disarm();
  ASSERT_EQ(soft.status, 0) << soft.err;
  EXPECT_TRUE(fs::exists(path("out.afa")));
}

TEST_F(FaultMatrixTest, MidRunWriteFaultLeavesResumablePrefix) {
  // Let two stages checkpoint, then kill every later write. The prefix must
  // verify clean and seed a bit-identical resume.
  const std::string want = clean_output("2");
  const std::string ckpt = path("ckpt_partial");
  auto& fi = FaultInjector::instance();
  fi.arm("checkpoint.write:2:*!");
  const CliResult faulted = run_cli({"align", "--in", input_, "--procs", "4",
                                     "--threads", "2", "--checkpoint-dir",
                                     ckpt});
  fi.disarm();
  ASSERT_EQ(faulted.status, cli::kExitRuntime) << faulted.err;
  const CliResult verify = run_cli({"stages", "--dir", ckpt, "--verify"});
  EXPECT_EQ(verify.status, 0) << verify.out;
  const CliResult resumed = run_cli({"align", "--in", input_, "--procs", "4",
                                     "--threads", "2", "--checkpoint-dir",
                                     ckpt, "--resume"});
  ASSERT_EQ(resumed.status, 0) << resumed.err;
  EXPECT_EQ(resumed.out, want);
}

TEST_F(FaultMatrixTest, TransientFaultsEverywhereAreAbsorbedSilently) {
  // One transient failure at the first hit of every site: the retry layer
  // (or, for the cache sites, a miss) must ride them all out and the run
  // must succeed with clean output.
  const std::string want = clean_output("2");
  auto& fi = FaultInjector::instance();
  fi.arm(
      "checkpoint.write:0,checkpoint.read:0,manifest.store:0,"
      "manifest.load:0,fasta.read:0");
  const CliResult r =
      run_cli({"align", "--in", input_, "--procs", "4", "--threads", "2",
               "--checkpoint-dir", path("ckpt_transient")});
  fi.disarm();
  ASSERT_EQ(r.status, 0) << r.err;
  EXPECT_EQ(r.out, want);

  // The cache sites fire alongside the checkpoint sites in one checkpointed
  // library run: cold, then warm.
  auto& cache = util::ArtifactCache::process_cache();
  cache.clear();
  for (int run = 0; run < 2; ++run) {
    const std::string ckpt =
        path("ckpt_transient_cache_" + std::to_string(run));
    fi.arm(
        "checkpoint.write:0,manifest.store:0,cache.insert:0,"
        "cache.lookup:0");
    const std::string cached = cached_output(2, ckpt);
    const auto insert_stats = fi.stats("cache.insert");
    const auto lookup_stats = fi.stats("cache.lookup");
    fi.disarm();
    EXPECT_EQ(cached, want) << "run " << run;
    EXPECT_EQ(lookup_stats.failures, 1u) << "run " << run;
    if (run == 0) {
      EXPECT_EQ(insert_stats.failures, 1u);
    }
    expect_clean_resume(2, ckpt, want);
  }
  cache.clear();
}

// ---- deadline / cancellation through the pipeline ---------------------------

TEST_F(FaultMatrixTest, DeadlineExitsDistinctlyAndResumesBitIdentically) {
  const std::string want = clean_output("2");
  const std::string ckpt = path("ckpt_deadline");
  const CliResult killed =
      run_cli({"align", "--in", input_, "--procs", "4", "--threads", "2",
               "--checkpoint-dir", ckpt, "--deadline", "0.000001"});
  ASSERT_EQ(killed.status, cli::kExitDeadline) << killed.err;
  EXPECT_NE(killed.err.find("deadline"), std::string::npos);
  EXPECT_NE(killed.err.find("--resume"), std::string::npos);
  // The interrupted checkpoint must verify clean...
  const CliResult verify = run_cli({"stages", "--dir", ckpt, "--verify"});
  EXPECT_EQ(verify.status, 0) << verify.out;
  // ...and complete bit-identically, at a different thread count too.
  const CliResult resumed = run_cli({"align", "--in", input_, "--procs", "4",
                                     "--threads", "1", "--checkpoint-dir",
                                     ckpt, "--resume"});
  ASSERT_EQ(resumed.status, 0) << resumed.err;
  EXPECT_EQ(resumed.out, want);
}

// ---- quarantine & repair ----------------------------------------------------

TEST_F(FaultMatrixTest, CorruptArtifactIsQuarantinedAndRepaired) {
  const std::string want = clean_output("1");
  const std::string ckpt = path("ckpt_repair");
  const CliResult first = run_cli({"align", "--in", input_, "--procs", "4",
                                   "--threads", "1", "--checkpoint-dir",
                                   ckpt});
  ASSERT_EQ(first.status, 0) << first.err;

  // Bit-flip the first artifact file.
  std::string victim;
  for (const auto& e : fs::directory_iterator(ckpt)) {
    const std::string name = e.path().filename().string();
    if (name != "manifest.tsv" && name.find(".tmp") == std::string::npos) {
      victim = e.path().string();
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    char c = 0;
    f.read(&c, 1);
    f.seekp(0);
    c = static_cast<char>(c ^ 0x40);
    f.write(&c, 1);
  }

  const CliResult verify = run_cli({"stages", "--dir", ckpt, "--verify"});
  EXPECT_EQ(verify.status, cli::kExitRuntime);
  EXPECT_NE(verify.out.find("CORRUPT"), std::string::npos);

  const CliResult repair = run_cli({"stages", "--dir", ckpt, "--repair"});
  ASSERT_EQ(repair.status, 0) << repair.err;
  EXPECT_NE(repair.out.find("quarantined 1"), std::string::npos) << repair.out;
  EXPECT_TRUE(fs::exists(victim + ".corrupt"));

  const CliResult reverify = run_cli({"stages", "--dir", ckpt, "--verify"});
  EXPECT_EQ(reverify.status, 0) << reverify.out;

  const CliResult resumed = run_cli({"align", "--in", input_, "--procs", "4",
                                     "--threads", "1", "--checkpoint-dir",
                                     ckpt, "--resume"});
  ASSERT_EQ(resumed.status, 0) << resumed.err;
  EXPECT_EQ(resumed.out, want);
}

TEST_F(FaultMatrixTest, CorruptManifestIsQuarantinedOnResume) {
  const std::string ckpt = path("ckpt_manifest");
  const CliResult first = run_cli({"align", "--in", input_, "--procs", "4",
                                   "--checkpoint-dir", ckpt});
  ASSERT_EQ(first.status, 0) << first.err;
  {
    std::ofstream f(ckpt + "/manifest.tsv", std::ios::trunc);
    f << "not a manifest\n";
  }
  // Resume despite the garbage manifest: quarantine, recompute, succeed.
  const CliResult resumed = run_cli({"align", "--in", input_, "--procs", "4",
                                     "--checkpoint-dir", ckpt, "--resume",
                                     "--stats"});
  ASSERT_EQ(resumed.status, 0) << resumed.err;
  EXPECT_NE(resumed.err.find("quarantined"), std::string::npos) << resumed.err;
  EXPECT_TRUE(fs::exists(ckpt + "/manifest.tsv.corrupt"));
}

}  // namespace
}  // namespace salign
