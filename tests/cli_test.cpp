#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bio/fasta.hpp"
#include "cli/arg_parser.hpp"
#include "cli/commands.hpp"
#include "msa/alignment.hpp"
#include "msa/clustal_format.hpp"
#include "util/string_util.hpp"

namespace salign::cli {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> argv(std::initializer_list<std::string> list) {
  return {list};
}

/// Temp directory fixture: every test gets a fresh scratch dir.
class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("salign_cli_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Runs a command capturing stdout/stderr.
  struct Result {
    int status = 0;
    std::string out;
    std::string err;
  };
  static Result run(const std::vector<std::string>& args) {
    std::ostringstream out;
    std::ostringstream err;
    const int status = dispatch(args, out, err);
    return {status, out.str(), err.str()};
  }

  void write_demo_fasta(const std::string& p, std::size_t n = 12) {
    Result r = run(argv({"generate", "--kind", "rose", "--n",
                         std::to_string(n), "--length", "50", "--out", p}));
    ASSERT_EQ(r.status, 0) << r.err;
  }

  fs::path dir_;
};

// ---- ArgParser --------------------------------------------------------------

TEST(ArgParserTest, FlagsAndOptionsParse) {
  ArgParser p("x", "test");
  p.flag("verbose", "v").option("n", "count", "4", "n").positional("file",
                                                                   "f");
  const std::vector<std::string> args{"--verbose", "--n", "9", "input.txt"};
  p.parse(args);
  EXPECT_TRUE(p.get_flag("verbose"));
  EXPECT_EQ(p.get("n"), "9");
  ASSERT_EQ(p.positionals().size(), 1u);
  EXPECT_EQ(p.positionals()[0], "input.txt");
}

TEST(ArgParserTest, EqualsSyntax) {
  ArgParser p("x", "test");
  p.option("n", "count", "4", "n");
  const std::vector<std::string> args{"--n=17"};
  p.parse(args);
  EXPECT_EQ(p.get_int("n", 0, 100), 17);
}

TEST(ArgParserTest, DefaultsSurviveWhenUnset) {
  ArgParser p("x", "test");
  p.option("n", "count", "4", "n").flag("verbose", "v");
  p.parse({});
  EXPECT_EQ(p.get_int("n", 0, 100), 4);
  EXPECT_FALSE(p.get_flag("verbose"));
}

TEST(ArgParserTest, UnknownOptionThrows) {
  ArgParser p("x", "test");
  const std::vector<std::string> args{"--nope"};
  EXPECT_THROW(p.parse(args), UsageError);
}

TEST(ArgParserTest, MissingValueThrows) {
  ArgParser p("x", "test");
  p.option("n", "count", "4", "n");
  const std::vector<std::string> args{"--n"};
  EXPECT_THROW(p.parse(args), UsageError);
}

TEST(ArgParserTest, FlagWithValueThrows) {
  ArgParser p("x", "test");
  p.flag("verbose", "v");
  const std::vector<std::string> args{"--verbose=yes"};
  EXPECT_THROW(p.parse(args), UsageError);
}

TEST(ArgParserTest, ExtraPositionalThrows) {
  ArgParser p("x", "test");
  const std::vector<std::string> args{"stray"};
  EXPECT_THROW(p.parse(args), UsageError);
}

TEST(ArgParserTest, MissingRequiredPositionalThrows) {
  ArgParser p("x", "test");
  p.positional("file", "f", true);
  EXPECT_THROW(p.parse({}), UsageError);
}

TEST(ArgParserTest, IntValidation) {
  ArgParser p("x", "test");
  p.option("n", "count", "4", "n");
  const std::vector<std::string> bad{"--n", "abc"};
  p.parse(bad);
  EXPECT_THROW((void)p.get_int("n", 0, 100), UsageError);

  ArgParser q("x", "test");
  q.option("n", "count", "4", "n");
  const std::vector<std::string> range{"--n", "200"};
  q.parse(range);
  EXPECT_THROW((void)q.get_int("n", 0, 100), UsageError);
}

TEST(ArgParserTest, DoubleValidation) {
  ArgParser p("x", "test");
  p.option("r", "x", "1.5", "r");
  const std::vector<std::string> args{"--r", "2.5e-1"};
  p.parse(args);
  EXPECT_DOUBLE_EQ(p.get_double("r", 0.0, 1.0), 0.25);
  ArgParser q("x", "test");
  q.option("r", "x", "1.5", "r");
  const std::vector<std::string> bad{"--r", "1.5x"};
  q.parse(bad);
  EXPECT_THROW((void)q.get_double("r", 0.0, 10.0), UsageError);
}

TEST(ArgParserTest, HelpStopsParsing) {
  ArgParser p("x", "test");
  const std::vector<std::string> args{"--help", "--unknown-is-fine"};
  p.parse(args);
  EXPECT_TRUE(p.help_requested());
}

TEST(ArgParserTest, UsageMentionsEverything) {
  ArgParser p("mycmd", "Does things.");
  p.option("n", "count", "4", "how many").flag("fast", "go faster");
  p.positional("file", "the input");
  const std::string u = p.usage();
  EXPECT_NE(u.find("mycmd"), std::string::npos);
  EXPECT_NE(u.find("--n"), std::string::npos);
  EXPECT_NE(u.find("--fast"), std::string::npos);
  EXPECT_NE(u.find("<file>"), std::string::npos);
  EXPECT_NE(u.find("default: 4"), std::string::npos);
}

TEST(ArgParserTest, UsageShowsDeclaredDefaultsAfterParse) {
  // usage() is printed after a failed command too, when parse() has
  // already stored the user's values; it must still show the defaults.
  ArgParser p("mycmd", "Does things.");
  p.option("n", "count", "4", "how many").option("out", "path", "", "dest");
  p.parse(argv({"--n", "0", "--out=t0.fa"}));
  EXPECT_EQ(p.get("n"), "0");
  const std::string u = p.usage();
  EXPECT_NE(u.find("how many (default: 4)"), std::string::npos) << u;
  EXPECT_NE(u.find("dest (default: none)"), std::string::npos) << u;
  EXPECT_EQ(u.find("t0.fa"), std::string::npos) << u;
}

// ---- dispatch ---------------------------------------------------------------

TEST_F(CliTest, HelpOnEmptyArgs) {
  const Result r = run({});
  EXPECT_EQ(r.status, 0);
  EXPECT_NE(r.out.find("salign"), std::string::npos);
  EXPECT_NE(r.out.find("align"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFailsWithUsage) {
  const Result r = run(argv({"frobnicate"}));
  EXPECT_EQ(r.status, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, PerCommandHelp) {
  for (const char* cmd : {"align", "score", "rank", "tree", "generate"}) {
    const Result r = run(argv({cmd, "--help"}));
    EXPECT_EQ(r.status, 0) << cmd;
    EXPECT_NE(r.out.find("usage: salign"), std::string::npos) << cmd;
  }
}

// ---- generate ---------------------------------------------------------------

TEST_F(CliTest, GenerateRoseWritesReadableFasta) {
  const std::string p = path("fam.fasta");
  write_demo_fasta(p, 10);
  const auto seqs = bio::read_fasta_file(p);
  EXPECT_EQ(seqs.size(), 10u);
}

TEST_F(CliTest, GenerateSuitesWriteCasePairs) {
  const Result r = run(argv({"generate", "--kind", "prefab", "--n", "2",
                             "--out", path("pf")}));
  ASSERT_EQ(r.status, 0) << r.err;
  for (int i = 0; i < 2; ++i) {
    const auto seqs =
        bio::read_fasta_file(path("pf" + std::to_string(i) + ".fasta"));
    EXPECT_GE(seqs.size(), 20u);
    std::ifstream ref(path("pf" + std::to_string(i) + ".ref.afa"));
    ASSERT_TRUE(ref.good());
    const msa::Alignment a = msa::read_aligned_fasta(ref);
    EXPECT_EQ(a.num_rows(), seqs.size());
  }
}

TEST_F(CliTest, GenerateRequiresOut) {
  const Result r = run(argv({"generate", "--kind", "rose"}));
  EXPECT_EQ(r.status, 2);
  EXPECT_NE(r.err.find("--out"), std::string::npos);
}

TEST_F(CliTest, UsageAfterBadValueShowsDefaultsNotTheValue) {
  const Result r = run(argv({"generate", "--n", "0", "--out", "t0.fa"}));
  EXPECT_EQ(r.status, 2);
  EXPECT_NE(r.err.find("(default: 100)"), std::string::npos) << r.err;
  EXPECT_EQ(r.err.find("(default: 0)"), std::string::npos) << r.err;
  EXPECT_EQ(r.err.find("(default: t0.fa)"), std::string::npos) << r.err;
}

TEST_F(CliTest, GenerateUnknownKindFails) {
  const Result r = run(argv({"generate", "--kind", "nope", "--out",
                             path("x")}));
  EXPECT_EQ(r.status, 2);
}

// ---- align ------------------------------------------------------------------

TEST_F(CliTest, AlignRoundTripsThroughFiles) {
  const std::string in = path("in.fasta");
  const std::string out_file = path("out.afa");
  write_demo_fasta(in, 12);
  const Result r = run(argv({"align", "--in", in, "--out", out_file,
                             "--procs", "3"}));
  ASSERT_EQ(r.status, 0) << r.err;

  const auto seqs = bio::read_fasta_file(in);
  std::ifstream f(out_file);
  const msa::Alignment a = msa::read_aligned_fasta(f);
  ASSERT_EQ(a.num_rows(), seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i)
    EXPECT_EQ(a.degapped(i), seqs[i]);
}

TEST_F(CliTest, AlignToStdout) {
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 6);
  const Result r = run(argv({"align", "--in", in, "--procs", "1"}));
  ASSERT_EQ(r.status, 0) << r.err;
  EXPECT_NE(r.out.find('>'), std::string::npos);
}

TEST_F(CliTest, AlignThreadsNeverChangeOutput) {
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 10);
  // --threads 0 (auto), 1 and an explicit count must print identical
  // alignments, for both the sequential path and the pipeline.
  for (const char* procs : {"1", "2"}) {
    const Result serial = run(
        argv({"align", "--in", in, "--procs", procs, "--threads", "1"}));
    ASSERT_EQ(serial.status, 0) << serial.err;
    for (const char* threads : {"0", "4"}) {
      const Result threaded = run(argv(
          {"align", "--in", in, "--procs", procs, "--threads", threads}));
      ASSERT_EQ(threaded.status, 0) << threaded.err;
      EXPECT_EQ(serial.out, threaded.out) << "procs " << procs
                                          << " threads " << threads;
    }
  }
}

TEST_F(CliTest, AlignMuscleFastAlignerRoundTrips) {
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 8);
  const Result r = run(argv({"align", "--in", in, "--procs", "1",
                             "--aligner", "muscle-fast", "--threads", "2"}));
  ASSERT_EQ(r.status, 0) << r.err;
  const auto seqs = bio::read_fasta_file(in);
  std::istringstream is(r.out);
  const msa::Alignment a = msa::read_aligned_fasta(is);
  ASSERT_EQ(a.num_rows(), seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i)
    EXPECT_EQ(a.degapped(i), seqs[i]);
}

TEST_F(CliTest, AlignStatsGoToStderr) {
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 12);
  const Result r = run(argv({"align", "--in", in, "--procs", "2",
                             "--stats", "--sp"}));
  ASSERT_EQ(r.status, 0);
  EXPECT_NE(r.err.find("bucket-align"), std::string::npos);
  EXPECT_NE(r.err.find("SP score"), std::string::npos);
}

TEST_F(CliTest, AlignEveryAlignerName) {
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 6);
  for (const std::string& field : util::split(aligner_names(), ',')) {
    const std::string name(util::trim(field));
    const Result r = run(argv({"align", "--in", in, "--procs", "1",
                               "--aligner", name}));
    EXPECT_EQ(r.status, 0) << name << ": " << r.err;
  }
}

TEST_F(CliTest, AlignRankModeAndPolishFlags) {
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 16);
  const Result local = run(argv({"align", "--in", in, "--procs", "4",
                                 "--rank-mode", "local", "--polish"}));
  EXPECT_EQ(local.status, 0) << local.err;
  const Result bad = run(argv({"align", "--in", in, "--rank-mode", "nope"}));
  EXPECT_EQ(bad.status, 2);
}

TEST_F(CliTest, AlignMissingInputIsUsageError) {
  const Result r = run(argv({"align"}));
  EXPECT_EQ(r.status, 2);
}

TEST_F(CliTest, AlignNonexistentFileIsRuntimeError) {
  const Result r = run(argv({"align", "--in", path("missing.fasta")}));
  EXPECT_EQ(r.status, 1);
}

TEST_F(CliTest, AlignUnknownAlignerIsUsageError) {
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 6);
  const Result r = run(argv({"align", "--in", in, "--aligner", "nope"}));
  EXPECT_EQ(r.status, 2);
  EXPECT_NE(r.err.find("unknown aligner"), std::string::npos);
}

// ---- score ------------------------------------------------------------------

TEST_F(CliTest, ScoreReferenceAgainstItselfIsPerfect) {
  const Result gen = run(argv({"generate", "--kind", "prefab", "--n", "1",
                               "--out", path("pf")}));
  ASSERT_EQ(gen.status, 0);
  const Result r = run(argv({"score", "--test", path("pf0.ref.afa"),
                             "--ref", path("pf0.ref.afa"),
                             "--core-min-run", "5"}));
  ASSERT_EQ(r.status, 0) << r.err;
  EXPECT_NE(r.out.find("Q:          1"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("Q(core):    1"), std::string::npos) << r.out;
}

TEST_F(CliTest, ScoreAlignedOutputAgainstReference) {
  const Result gen = run(argv({"generate", "--kind", "prefab", "--n", "1",
                               "--out", path("pf")}));
  ASSERT_EQ(gen.status, 0);
  const Result aln = run(argv({"align", "--in", path("pf0.fasta"), "--out",
                               path("pf0.afa"), "--procs", "2"}));
  ASSERT_EQ(aln.status, 0) << aln.err;
  const Result r = run(argv({"score", "--test", path("pf0.afa"), "--ref",
                             path("pf0.ref.afa")}));
  ASSERT_EQ(r.status, 0) << r.err;
  EXPECT_NE(r.out.find("Q:"), std::string::npos);
  EXPECT_NE(r.out.find("TC:"), std::string::npos);
}

TEST_F(CliTest, ScoreMissingArgsIsUsageError) {
  const Result r = run(argv({"score", "--test", path("x.afa")}));
  EXPECT_EQ(r.status, 2);
}

// ---- rank -------------------------------------------------------------------

TEST_F(CliTest, RankPrintsPerSequenceRows) {
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 8);
  const Result r = run(argv({"rank", "--in", in}));
  ASSERT_EQ(r.status, 0) << r.err;
  EXPECT_NE(r.out.find("rose_0"), std::string::npos);
  EXPECT_NE(r.out.find("mean="), std::string::npos);
}

TEST_F(CliTest, RankHistogramMode) {
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 16);
  const Result r = run(argv({"rank", "--in", in, "--hist"}));
  ASSERT_EQ(r.status, 0);
  EXPECT_NE(r.out.find('#'), std::string::npos);
}

TEST_F(CliTest, RankGlobalizedSampleMode) {
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 16);
  const Result centralized = run(argv({"rank", "--in", in}));
  const Result sampled = run(argv({"rank", "--in", in, "--sample", "4"}));
  ASSERT_EQ(centralized.status, 0);
  ASSERT_EQ(sampled.status, 0);
  // Different reference sets -> (generally) different mean rank lines.
  EXPECT_NE(centralized.out, sampled.out);
}

TEST_F(CliTest, RankEmptyFastaIsRuntimeError) {
  const std::string in = path("empty.fasta");
  std::ofstream(in).close();
  const Result r = run(argv({"rank", "--in", in}));
  EXPECT_EQ(r.status, 1);
}

TEST_F(CliTest, KmerLengthPastTheDenseTableExits3) {
  // Protein k-mers count over the 4-bit compressed alphabet into a table of
  // 2^18 ids, so --k stops at 4 for rank and for tree --dist kmer.
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 6);
  for (const auto& cmd : {argv({"rank", "--in", in}),
                          argv({"tree", "--in", in, "--dist", "kmer"})}) {
    SCOPED_TRACE(cmd[0]);
    auto with_k = [&](const char* k) {
      std::vector<std::string> args = cmd;
      args.insert(args.end(), {"--k", k});
      return run(args);
    };
    const Result past = with_k("5");
    EXPECT_EQ(past.status, kExitInvalidInput) << past.err;
    EXPECT_NE(past.err.find("the largest k is 4"), std::string::npos)
        << past.err;
    const Result at = with_k("4");
    EXPECT_EQ(at.status, 0) << at.err;
    const Result help = run(argv({cmd[0], "--help"}));
    EXPECT_NE(help.out.find("at most 4, as k-mers count over the compressed"),
              std::string::npos)
        << help.out;
  }
}

TEST_F(CliTest, AlignClustalFormatRoundTrips) {
  const std::string in = path("in.fasta");
  const std::string aln = path("out.aln");
  write_demo_fasta(in, 6);
  const Result r = run(
      argv({"align", "--in", in, "--out", aln, "--format", "clustal"}));
  ASSERT_EQ(r.status, 0) << r.err;
  std::ifstream f(aln);
  msa::Alignment back = msa::read_clustal(f);
  EXPECT_EQ(back.num_rows(), 6u);
  back.validate();
}

TEST_F(CliTest, AlignUnknownFormatIsUsageError) {
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 4);
  const Result r = run(argv({"align", "--in", in, "--format", "msf"}));
  EXPECT_EQ(r.status, 2);
  // --format is checked with the other flags, before the input is read or
  // aligned: a missing input file would otherwise exit 1.
  const Result early = run(
      argv({"align", "--in", path("missing.fasta"), "--format", "bogus"}));
  EXPECT_EQ(early.status, kExitUsage) << early.err;
  EXPECT_NE(early.err.find("--format"), std::string::npos);
}

// ---- tree -------------------------------------------------------------------

namespace {

/// Minimal Newick well-formedness check: balanced parens, ends with ';',
/// contains every leaf name exactly once.
void expect_newick_with_leaves(const std::string& s,
                               std::span<const std::string> leaves) {
  int depth = 0;
  for (const char c : s) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(s.find(';'), std::string::npos);
  for (const auto& leaf : leaves) {
    const auto first = s.find(leaf);
    ASSERT_NE(first, std::string::npos) << leaf;
    EXPECT_EQ(s.find(leaf, first + leaf.size() + 1), std::string::npos)
        << leaf << " appears twice";
  }
}

}  // namespace

TEST_F(CliTest, TreePrintsNewickWithEveryLeaf) {
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 8);
  const Result r = run(argv({"tree", "--in", in}));
  ASSERT_EQ(r.status, 0) << r.err;
  std::vector<std::string> leaves;
  for (int i = 0; i < 8; ++i) leaves.push_back("rose_" + std::to_string(i));
  expect_newick_with_leaves(r.out, leaves);
}

TEST_F(CliTest, TreeMethodsAndDistancesAllWork) {
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 6);
  for (const char* method : {"upgma", "nj"}) {
    for (const char* dist : {"kmer", "kimura"}) {
      const Result r =
          run(argv({"tree", "--in", in, "--method", method, "--dist", dist}));
      ASSERT_EQ(r.status, 0) << method << "/" << dist << ": " << r.err;
      EXPECT_NE(r.out.find(';'), std::string::npos);
    }
  }
}

TEST_F(CliTest, TreeWeightsTableListsEverySequence) {
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 6);
  const Result r = run(argv({"tree", "--in", in, "--weights"}));
  ASSERT_EQ(r.status, 0) << r.err;
  EXPECT_NE(r.out.find("weight"), std::string::npos);
  for (int i = 0; i < 6; ++i)
    EXPECT_NE(r.out.find("rose_" + std::to_string(i)), std::string::npos);
}

TEST_F(CliTest, TreeWritesNewickFile) {
  const std::string in = path("in.fasta");
  const std::string nwk = path("out.nwk");
  write_demo_fasta(in, 6);
  const Result r = run(argv({"tree", "--in", in, "--out", nwk}));
  ASSERT_EQ(r.status, 0) << r.err;
  std::ifstream f(nwk);
  std::string contents((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find(';'), std::string::npos);
}

TEST_F(CliTest, TreeRejectsBadMethodAndDistance) {
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 4);
  EXPECT_EQ(run(argv({"tree", "--in", in, "--method", "ml"})).status, 2);
  EXPECT_EQ(run(argv({"tree", "--in", in, "--dist", "hamming"})).status, 2);
  EXPECT_EQ(run(argv({"tree"})).status, 2);  // missing --in
}

TEST_F(CliTest, TreeKimuraStatsAndAutoThreads) {
  // --threads 0 means "auto" (never a zero-thread pool) and --stats prints
  // the distance pass's alignment-kernel tier breakdown.
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 6);
  const Result r = run(argv({"tree", "--in", in, "--dist", "kimura",
                             "--threads", "0", "--stats"}));
  ASSERT_EQ(r.status, 0) << r.err;
  EXPECT_NE(r.out.find(';'), std::string::npos);
  EXPECT_NE(r.out.find("striped int8"), std::string::npos);
  EXPECT_NE(r.out.find("pairs"), std::string::npos);
}

TEST_F(CliTest, TreeNeedsAtLeastTwoSequences) {
  const std::string in = path("one.fasta");
  std::ofstream f(in);
  f << ">only\nMKVLAT\n";
  f.close();
  const Result r = run(argv({"tree", "--in", in}));
  // The file is readable but its content can't make a tree: invalid input.
  EXPECT_EQ(r.status, kExitInvalidInput);
}

// ---- exit-code taxonomy -----------------------------------------------------
// Scripts and the fault-matrix CI smoke branch on these values; the
// assertions below pin the contract documented in commands.hpp.

TEST_F(CliTest, ExitCodeUsageErrorIs2) {
  EXPECT_EQ(run(argv({"align", "--bogus-flag"})).status, kExitUsage);
  EXPECT_EQ(run(argv({"align"})).status, kExitUsage);  // missing --in
  EXPECT_EQ(run(argv({"frobnicate"})).status, kExitUsage);
}

TEST_F(CliTest, ExitCodeRuntimeFailureIs1) {
  const Result r = run(argv({"align", "--in", path("missing.fasta")}));
  EXPECT_EQ(r.status, kExitRuntime);
  EXPECT_NE(r.err.find("missing.fasta"), std::string::npos);
}

TEST_F(CliTest, ExitCodeInvalidInputIs3) {
  const std::string dup = path("dup.fasta");
  {
    std::ofstream f(dup);
    f << ">a\nMKVLAT\n>a\nMKVLAT\n";
  }
  const Result r = run(argv({"align", "--in", dup}));
  EXPECT_EQ(r.status, kExitInvalidInput);
  EXPECT_NE(r.err.find("duplicate record id"), std::string::npos);
  EXPECT_NE(r.err.find("line 3"), std::string::npos);
}

TEST_F(CliTest, ExitCodeDeadlineIs4AndStatesResume) {
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 8);
  const Result r = run(argv({"align", "--in", in, "--procs", "2",
                             "--deadline", "0.000001"}));
  EXPECT_EQ(r.status, kExitDeadline);
  EXPECT_NE(r.err.find("deadline"), std::string::npos);
}

TEST_F(CliTest, ConsistencyAlignerOverTheCapExits3AndNamesTheRemedies) {
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 65);
  const Result r = run(argv({"align", "--in", in, "--procs", "1",
                             "--aligner", "tcoffee"}));
  EXPECT_EQ(r.status, kExitInvalidInput) << r.err;
  EXPECT_NE(r.err.find("65 sequences exceed the 64-sequence cap"),
            std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("a larger --procs"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("another --aligner"), std::string::npos) << r.err;
  const Result help = run(argv({"align", "--help"}));
  EXPECT_NE(help.out.find("tcoffee takes at most 64 sequences"),
            std::string::npos)
      << help.out;
}

TEST_F(CliTest, AlignRemovedOptionsAreUnknown) {
  // A one-shot run never hits the artifact cache, so `align` takes no
  // --cache; `salign serve` owns the cache. The retired ProbCons aligner is
  // an unknown aligner like any other.
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 4);
  for (const auto& args : {argv({"align", "--in", in, "--max-memory", "1g"}),
                           argv({"align", "--in", in, "--cache"}),
                           argv({"align", "--in", in, "--aligner",
                                 "probcons"})}) {
    const Result r = run(args);
    EXPECT_EQ(r.status, kExitUsage) << args[3] << ": " << r.err;
  }
  const Result gone = run(argv({"align", "--in", in, "--aligner", "probcons"}));
  EXPECT_NE(gone.err.find("unknown aligner 'probcons' (expected one of " +
                          aligner_names() + ")"),
            std::string::npos)
      << gone.err;
}

// ---- duration parsing -------------------------------------------------------

TEST(ParseDurationTest, BareNumbersAreSeconds) {
  EXPECT_DOUBLE_EQ(parse_duration_seconds("0", "--d"), 0.0);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("90", "--d"), 90.0);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("2.5", "--d"), 2.5);
}

TEST(ParseDurationTest, SuffixesScale) {
  EXPECT_DOUBLE_EQ(parse_duration_seconds("250ms", "--d"), 0.25);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("2.5s", "--d"), 2.5);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("1.5m", "--d"), 90.0);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("2h", "--d"), 7200.0);
}

TEST(ParseDurationTest, RejectsGarbage) {
  for (const char* bad : {"", "-1", "1.5x", "ms", "5 s", "1d", "nan"}) {
    EXPECT_THROW((void)parse_duration_seconds(bad, "--d"), UsageError) << bad;
  }
}

TEST_F(CliTest, AlignAcceptsFractionalDeadline) {
  const std::string in = path("in.fasta");
  write_demo_fasta(in, 6);
  // "30.5s" is generous enough that the tiny job completes.
  const Result r = run(argv({"align", "--in", in, "--procs", "1",
                             "--deadline", "30.5s"}));
  EXPECT_EQ(r.status, kExitOk) << r.err;
  // "250ms" must parse as a quarter second — small enough to blow on a
  // larger run, proving the unit actually scaled (a bare-number parse of
  // "250" would pass trivially).
  write_demo_fasta(in, 24);
  const Result blown = run(argv({"align", "--in", in, "--procs", "2",
                                 "--deadline", "0.001ms"}));
  EXPECT_EQ(blown.status, kExitDeadline) << blown.err;
}

// ---- exit code 5: resource/bind failures ------------------------------------

TEST_F(CliTest, ExitCodeResourceIs5WhenJournalDirUnwritable) {
  // A file where the journal directory should be: create_directories fails.
  const std::string blocked = path("blocked");
  {
    std::ofstream f(blocked);
    f << "in the way\n";
  }
  const Result r = run(argv({"serve", "--socket", path("s.sock"),
                             "--journal-dir", blocked + "/journal"}));
  EXPECT_EQ(r.status, kExitResource) << r.err;
  EXPECT_NE(r.err.find("journal"), std::string::npos);
}

TEST_F(CliTest, ExitCodeResourceIs5WhenSocketPathUnusable) {
  // sun_path caps Unix socket paths at ~107 bytes; an over-long path is a
  // bind failure, not a usage mistake.
  const std::string longpath = path(std::string(200, 'x') + ".sock");
  const Result r = run(argv({"serve", "--socket", longpath, "--journal-dir",
                             path("journal")}));
  EXPECT_EQ(r.status, kExitResource) << r.err;
}

// ---- stages --verify exit pin -----------------------------------------------

TEST_F(CliTest, StagesVerifyExitsNonzeroOnCorruptArtifact) {
  const std::string in = path("in.fasta");
  const std::string ckpt = path("ckpt");
  write_demo_fasta(in, 8);
  const Result aln = run(argv({"align", "--in", in, "--procs", "2",
                               "--checkpoint-dir", ckpt}));
  ASSERT_EQ(aln.status, kExitOk) << aln.err;
  ASSERT_EQ(run(argv({"stages", "--dir", ckpt, "--verify"})).status,
            kExitOk);
  // Flip bytes in one artifact: --verify must fail loudly with exit 1.
  bool corrupted = false;
  for (const auto& entry : fs::directory_iterator(ckpt)) {
    if (entry.path().extension() != ".bin") continue;
    std::fstream f(entry.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("XXXX", 4);
    corrupted = true;
    break;
  }
  ASSERT_TRUE(corrupted);
  const Result bad = run(argv({"stages", "--dir", ckpt, "--verify"}));
  EXPECT_EQ(bad.status, kExitRuntime);
  EXPECT_NE(bad.out.find("FAIL"), std::string::npos) << bad.out;
}

}  // namespace
}  // namespace salign::cli
