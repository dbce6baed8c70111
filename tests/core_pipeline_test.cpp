#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sample_align_d.hpp"
#include "core/stage/stage.hpp"
#include "msa/muscle_like.hpp"
#include "msa/polish.hpp"
#include "msa/scoring.hpp"
#include "msa/tcoffee_like.hpp"
#include "util/string_util.hpp"
#include "workload/evolver.hpp"
#include "workload/genome.hpp"
#include "workload/rose.hpp"

namespace salign::core {
namespace {

using bio::Sequence;
using bio::SubstitutionMatrix;
using msa::Alignment;

const SubstitutionMatrix& B62() { return SubstitutionMatrix::blosum62(); }

std::vector<Sequence> family(std::size_t n, std::size_t len, double rel,
                             std::uint64_t seed) {
  return workload::rose_sequences(
      {.num_sequences = n, .average_length = len, .relatedness = rel,
       .seed = seed});
}

SampleAlignD pipeline(int p) {
  SampleAlignDConfig cfg;
  cfg.num_procs = p;
  return SampleAlignD(cfg);
}

std::vector<std::string> stage_names(const PipelineStats& stats) {
  std::vector<std::string> names;
  for (const auto& stage : stats.stages) names.push_back(stage.name);
  return names;
}

bool has_stage(const PipelineStats& stats, const std::string& name) {
  for (const auto& stage : stats.stages)
    if (stage.name == name) return true;
  return false;
}

const StageStats* find_stage(const PipelineStats& stats,
                             const std::string& name) {
  for (const auto& stage : stats.stages)
    if (stage.name == name) return &stage;
  return nullptr;
}

/// "<stage>/<phase> x<runs>" for every phase row of a run, in report order.
std::vector<std::string> phase_rows(const PipelineStats& stats) {
  std::vector<std::string> rows;
  for (const auto& stage : stats.stages)
    for (const auto& ph : stage.phases)
      rows.push_back(stage.name + '/' + ph.name + " x" +
                     std::to_string(ph.runs));
  return rows;
}

std::string temp_dir(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("salign_" + tag + "_" + std::to_string(::getpid())))
      .string();
}

// ---- input validation ------------------------------------------------------------

TEST(SampleAlignD, RejectsEmptyInput) {
  EXPECT_THROW((void)pipeline(2).align({}), std::invalid_argument);
}

TEST(SampleAlignD, RejectsDuplicateIds) {
  std::vector<Sequence> seqs{Sequence("x", "ACDEF"), Sequence("x", "ACDFW")};
  EXPECT_THROW((void)pipeline(2).align(seqs), std::invalid_argument);
}

TEST(SampleAlignD, RejectsEmptySequence) {
  std::vector<Sequence> seqs{Sequence("x", "ACDEF"), Sequence("y", "")};
  EXPECT_THROW((void)pipeline(2).align(seqs), std::invalid_argument);
}

TEST(SampleAlignD, RejectsNonPositiveP) {
  SampleAlignDConfig cfg;
  cfg.num_procs = 0;
  EXPECT_THROW(SampleAlignD{cfg}, std::invalid_argument);
}

// ---- core contract, parameterized over p -------------------------------------------

class PipelineContractTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelineContractTest, OutputIsValidMsaOfInputs) {
  const int p = GetParam();
  const auto seqs = family(40, 60, 600, 100 + static_cast<std::uint64_t>(p));
  const Alignment a = pipeline(p).align(seqs);
  EXPECT_NO_THROW(a.validate());
  ASSERT_EQ(a.num_rows(), seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i)
    EXPECT_EQ(a.degapped(i), seqs[i]) << "p=" << p << " row " << i;
}

TEST_P(PipelineContractTest, DeterministicAcrossRuns) {
  const int p = GetParam();
  const auto seqs = family(30, 40, 700, 200);
  const Alignment a = pipeline(p).align(seqs);
  const Alignment b = pipeline(p).align(seqs);
  ASSERT_EQ(a.num_cols(), b.num_cols());
  for (std::size_t r = 0; r < a.num_rows(); ++r)
    EXPECT_EQ(a.row_text(r), b.row_text(r));
}

TEST_P(PipelineContractTest, StatsAreCoherent) {
  const int p = GetParam();
  const auto seqs = family(36, 40, 600, 300);
  // Checkpointing persists the runner's records as the manifest, so the
  // stage rows can be checked against them one for one.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("salign_stats_coherent_" + std::to_string(::getpid()) + "_p" +
        std::to_string(p)))
          .string();
  std::filesystem::remove_all(dir);
  SampleAlignDConfig cfg;
  cfg.num_procs = p;
  cfg.checkpoint.dir = dir;
  PipelineStats stats;
  (void)SampleAlignD(cfg).align(seqs, &stats);
  const stage::Manifest manifest = stage::read_manifest(dir);
  std::filesystem::remove_all(dir);

  EXPECT_EQ(stats.num_procs, p);
  EXPECT_EQ(stats.num_sequences, seqs.size());
  ASSERT_EQ(stats.bucket_sizes.size(), static_cast<std::size_t>(p));
  std::size_t total = 0;
  for (std::size_t b : stats.bucket_sizes) total += b;
  EXPECT_EQ(total, seqs.size());
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.modeled_seconds(), 0.0);

  ASSERT_EQ(stats.stages.size(), manifest.records.size());
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < stats.stages.size(); ++i) {
    const StageStats& row = stats.stages[i];
    const stage::ArtifactRecord& rec = manifest.records[i];
    EXPECT_EQ(row.name, rec.name) << "row " << i;
    EXPECT_EQ(row.paper_step, rec.paper_step) << row.name;
    EXPECT_EQ(row.artifact_bytes, rec.bytes) << row.name;
    EXPECT_FALSE(row.resumed) << row.name;
    EXPECT_EQ(row.rank_seconds.size(), static_cast<std::size_t>(p));
    EXPECT_EQ(row.rank_wall_seconds.size(), static_cast<std::size_t>(p));
    bytes += row.total_bytes();
  }
  EXPECT_EQ(bytes, stats.total_bytes());
  if (p == 1) {
    EXPECT_EQ(stage_names(stats), std::vector<std::string>{"bucket-align"});
    EXPECT_EQ(stats.total_bytes(), 0u);
  } else {
    EXPECT_GT(stats.total_bytes(), 0u);
  }
  EXPECT_FALSE(stats.summary().empty());
}

TEST_P(PipelineContractTest, LoadBalanceWithinPsrsBound) {
  const int p = GetParam();
  const auto seqs = family(64, 40, 800, 400);
  PipelineStats stats;
  (void)pipeline(p).align(seqs, &stats);
  // Regular sampling guarantee: <= 2N/p for distinct keys; duplicate ranks
  // can push past it slightly, so assert with small slack.
  EXPECT_LE(stats.load_factor(), 2.0 + 0.5) << "p=" << p;
}

// Phase timers start after their rank segment's clock and stop before it,
// so no epsilon is needed.
TEST_P(PipelineContractTest, PhasesLieInsideTheirRanksWallTime) {
  const int p = GetParam();
  const auto up = static_cast<std::size_t>(p);
  const auto seqs = family(48, 40, 600, 1500);
  PipelineStats stats;
  (void)pipeline(p).align(seqs, &stats);
  ASSERT_FALSE(phase_rows(stats).empty());
  for (const StageStats& row : stats.stages) {
    std::vector<double> phase_seconds(up, 0.0);
    for (const AlignerPhase& ph : row.phases) {
      ASSERT_EQ(ph.rank_wall_seconds.size(), up) << row.name << ' ' << ph.name;
      for (std::size_t r = 0; r < up; ++r)
        phase_seconds[r] += ph.rank_wall_seconds[r];
    }
    for (std::size_t r = 0; r < up; ++r)
      EXPECT_LE(phase_seconds[r], row.rank_wall_seconds[r])
          << row.name << " rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Ps, PipelineContractTest, ::testing::Values(1, 2, 3, 4, 8));

// ---- aligner phases on their stage rows ---------------------------------------

TEST(AlignerPhases, RootAncestorAlignmentIsChargedToAncestorStage) {
  const auto seqs = family(32, 40, 600, 1600);
  PipelineStats stats;
  (void)pipeline(4).align(seqs, &stats);
  const StageStats* bucket = find_stage(stats, "bucket-align");
  const StageStats* ancestor = find_stage(stats, "ancestor");
  ASSERT_NE(bucket, nullptr);
  ASSERT_NE(ancestor, nullptr);

  // Buckets of one sequence skip the aligner; the root aligns the ancestors
  // of the non-empty buckets once.
  std::uint64_t aligned = 0;
  std::uint64_t present = 0;
  for (std::size_t b : stats.bucket_sizes) {
    aligned += b >= 2 ? 1 : 0;
    present += b >= 1 ? 1 : 0;
  }
  ASSERT_GE(present, 2u);
  ASSERT_FALSE(bucket->phases.empty());
  ASSERT_EQ(ancestor->phases.size(), bucket->phases.size());
  for (std::size_t i = 0; i < bucket->phases.size(); ++i) {
    const AlignerPhase& ph = ancestor->phases[i];
    EXPECT_EQ(ph.name, bucket->phases[i].name);
    EXPECT_EQ(bucket->phases[i].runs, aligned) << ph.name;
    EXPECT_EQ(ph.runs, 1u) << ph.name;
    for (std::size_t r = 1; r < ph.rank_wall_seconds.size(); ++r)
      EXPECT_EQ(ph.rank_wall_seconds[r], 0.0) << ph.name << " rank " << r;
  }
  for (const StageStats& row : stats.stages) {
    if (row.name != "bucket-align" && row.name != "ancestor") {
      EXPECT_TRUE(row.phases.empty()) << row.name;
    }
  }
}

TEST(AlignerPhases, ResumedStagesHaveNoPhases) {
  const auto seqs = family(30, 40, 600, 1650);
  const std::string dir = temp_dir("phases_resume");
  std::filesystem::remove_all(dir);
  SampleAlignDConfig cfg;
  cfg.num_procs = 3;
  cfg.checkpoint.dir = dir;
  PipelineStats fresh;
  (void)SampleAlignD(cfg).align(seqs, &fresh);
  cfg.checkpoint.resume = true;
  PipelineStats resumed;
  (void)SampleAlignD(cfg).align(seqs, &resumed);
  std::filesystem::remove_all(dir);

  EXPECT_FALSE(phase_rows(fresh).empty());
  ASSERT_EQ(resumed.resumed_stages(), resumed.stages.size());
  for (const StageStats& row : resumed.stages)
    EXPECT_TRUE(row.phases.empty()) << row.name;
}

TEST(AlignerPhases, CallerProvidedAlignerReportsTheDefaultPhases) {
  const auto seqs = family(30, 40, 600, 1700);
  PipelineStats by_default;
  (void)pipeline(3).align(seqs, &by_default);
  SampleAlignDConfig cfg;
  cfg.num_procs = 3;
  cfg.local_aligner = std::make_shared<msa::MuscleAligner>();
  PipelineStats provided;
  (void)SampleAlignD(cfg).align(seqs, &provided);
  EXPECT_FALSE(phase_rows(by_default).empty());
  EXPECT_EQ(phase_rows(provided), phase_rows(by_default));
}

// Each run records into the logs of its own rank segments, so concurrent
// align() calls on one instance share no recorder.
TEST(AlignerPhases, ConcurrentRunsOnOneInstanceKeepTheirOwnPhases) {
  const auto seqs = family(40, 40, 600, 1800);
  const SampleAlignD aligner = pipeline(4);
  PipelineStats solo;
  const Alignment expected = aligner.align(seqs, &solo);
  ASSERT_FALSE(phase_rows(solo).empty());

  std::array<PipelineStats, 2> stats;
  std::array<Alignment, 2> out;
  std::array<std::thread, 2> runs;
  for (std::size_t k = 0; k < runs.size(); ++k)
    runs[k] = std::thread([&, k] { out[k] = aligner.align(seqs, &stats[k]); });
  for (std::thread& t : runs) t.join();
  for (std::size_t k = 0; k < runs.size(); ++k) {
    EXPECT_EQ(phase_rows(stats[k]), phase_rows(solo)) << "run " << k;
    ASSERT_EQ(out[k].num_rows(), expected.num_rows());
    for (std::size_t r = 0; r < expected.num_rows(); ++r)
      EXPECT_EQ(out[k].row_text(r), expected.row_text(r)) << "run " << k;
  }
}

// ---- equivalences and ablations ---------------------------------------------------

TEST(SampleAlignD, SingleProcEqualsSequentialAligner) {
  const auto seqs = family(15, 40, 500, 500);
  const Alignment from_pipeline = pipeline(1).align(seqs);
  const Alignment direct = msa::MuscleAligner().align(seqs);
  ASSERT_EQ(from_pipeline.num_cols(), direct.num_cols());
  for (std::size_t r = 0; r < direct.num_rows(); ++r)
    EXPECT_EQ(from_pipeline.row_text(r), direct.row_text(r));
}

TEST(SampleAlignD, MoreProcsThanSequencesStillWorks) {
  const auto seqs = family(5, 30, 400, 600);
  const Alignment a = pipeline(8).align(seqs);
  ASSERT_EQ(a.num_rows(), 5u);
  for (std::size_t i = 0; i < seqs.size(); ++i)
    EXPECT_EQ(a.degapped(i), seqs[i]);
}

TEST(SampleAlignD, TwoSequences) {
  const auto seqs = family(2, 30, 300, 700);
  const Alignment a = pipeline(2).align(seqs);
  EXPECT_EQ(a.num_rows(), 2u);
}

TEST(SampleAlignD, AncestorAblationStillValidButWorse) {
  const auto seqs = family(32, 50, 500, 800);

  SampleAlignDConfig with_cfg;
  with_cfg.num_procs = 4;
  PipelineStats s1;
  const Alignment with_anc = SampleAlignD(with_cfg).align(seqs, &s1);

  SampleAlignDConfig without_cfg;
  without_cfg.num_procs = 4;
  without_cfg.ancestor_refinement = false;
  PipelineStats s2;
  const Alignment without_anc = SampleAlignD(without_cfg).align(seqs, &s2);

  // Both are valid MSAs of the inputs.
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(with_anc.degapped(i), seqs[i]);
    EXPECT_EQ(without_anc.degapped(i), seqs[i]);
  }
  // The ancestor-constrained glue shares columns across buckets, so it must
  // be strictly narrower than the block-diagonal concatenation.
  EXPECT_LT(with_anc.num_cols(), without_anc.num_cols());
  // And its SP score must be better (cross-bucket residues actually align).
  const auto gaps = B62().default_gaps();
  EXPECT_GT(msa::sp_score(with_anc, B62(), gaps),
            msa::sp_score(without_anc, B62(), gaps));
}

TEST(SampleAlignD, CustomSamplesPerProc) {
  SampleAlignDConfig cfg;
  cfg.num_procs = 4;
  cfg.samples_per_proc = 6;
  const auto seqs = family(40, 40, 600, 900);
  const Alignment a = SampleAlignD(cfg).align(seqs);
  for (std::size_t i = 0; i < seqs.size(); ++i)
    EXPECT_EQ(a.degapped(i), seqs[i]);
}

TEST(SampleAlignD, CustomLocalAligner) {
  SampleAlignDConfig cfg;
  cfg.num_procs = 3;
  msa::MuscleOptions mo;
  mo.reestimate_tree = false;
  cfg.local_aligner = std::make_shared<msa::MuscleAligner>(mo);
  const auto seqs = family(24, 35, 500, 1000);
  const Alignment a = SampleAlignD(cfg).align(seqs);
  for (std::size_t i = 0; i < seqs.size(); ++i)
    EXPECT_EQ(a.degapped(i), seqs[i]);
}

TEST(SampleAlignD, TCoffeeAsLocalAligner) {
  // The pipeline is parameterized over "any sequential multiple alignment
  // system" (paper step 11); the consistency-based aligner must slot in,
  // including for the root's ancestor alignment.
  SampleAlignDConfig cfg;
  cfg.num_procs = 3;
  cfg.local_aligner = std::make_shared<msa::TCoffeeAligner>();
  const auto seqs = family(18, 30, 500, 1050);
  const Alignment a = SampleAlignD(cfg).align(seqs);
  a.validate();
  for (std::size_t i = 0; i < seqs.size(); ++i)
    EXPECT_EQ(a.degapped(i), seqs[i]);
}

TEST(SampleAlignD, BucketsGroupSimilarSequences) {
  // Two well-separated families: after redistribution, most of each family
  // should land in the same bucket (that is the point of k-mer ranking).
  auto fam_a = family(16, 40, 150, 1100);   // tight family
  const auto fam_b = family(16, 40, 2000, 1200);  // diffuse family
  std::vector<Sequence> seqs;
  for (std::size_t i = 0; i < fam_a.size(); ++i) {
    seqs.emplace_back(util::indexed_name("A", i),
                      std::vector<std::uint8_t>(fam_a[i].codes().begin(),
                                                fam_a[i].codes().end()),
                      bio::AlphabetKind::AminoAcid);
    seqs.emplace_back(util::indexed_name("B", i),
                      std::vector<std::uint8_t>(fam_b[i].codes().begin(),
                                                fam_b[i].codes().end()),
                      bio::AlphabetKind::AminoAcid);
  }
  // With p=2 the paper's default k = p-1 = 1 gives a 2-sequence global
  // sample — too small to resolve the families (distance saturation ties
  // every rank). Use a realistic sample size, as "k << N/p" intends.
  SampleAlignDConfig cfg;
  cfg.num_procs = 2;
  cfg.samples_per_proc = 8;
  PipelineStats stats;
  const Alignment a = SampleAlignD(cfg).align(seqs, &stats);
  EXPECT_EQ(a.num_rows(), seqs.size());
  // Not asserting perfect separation (rank overlaps are possible), but the
  // pipeline must produce two non-degenerate buckets.
  EXPECT_GT(stats.bucket_sizes[0], 0u);
  EXPECT_GT(stats.bucket_sizes[1], 0u);
}

TEST(SampleAlignD, ModeledTimeDropsWithMoreProcs) {
  // The heart of the paper: per-rank compute shrinks superlinearly, so the
  // modeled cluster makespan must drop from p=1 to p=4 on a sizable input.
  // The makespan is built from measured per-rank CPU times. Tick-based CPU
  // accounting (10ms jiffies on some kernels) needs per-stage work well
  // above one tick — a run that measures zero CPU ticks degenerates to the
  // communication model, which *grows* with p and inverts the comparison.
  // Hence a workload sized in the hundreds of milliseconds, plus retrials
  // against scheduler noise when the host is oversubscribed (ctest -j).
  const auto seqs = family(192, 120, 700, 1300);
  double s1_last = 0.0;
  double s4_last = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    PipelineStats s1;
    (void)pipeline(1).align(seqs, &s1);
    PipelineStats s4;
    (void)pipeline(4).align(seqs, &s4);
    s1_last = s1.modeled_seconds();
    s4_last = s4.modeled_seconds();
    if (s4_last < s1_last) return;
  }
  EXPECT_LT(s4_last, s1_last);
}

TEST(SampleAlignD, GenomeSampleRoundTrip) {
  workload::GenomeParams gp;
  gp.num_families = 12;
  gp.mean_family_size = 6.0;
  gp.num_orphans = 20;
  gp.mean_length = 80;
  const workload::GenomeSimulator sim(gp);
  const auto seqs = sim.sample(40, 7);
  const Alignment a = pipeline(4).align(seqs);
  for (std::size_t i = 0; i < seqs.size(); ++i)
    EXPECT_EQ(a.degapped(i), seqs[i]);
}

// ---- rank-mode ablation: Sample-Align [34] vs Sample-Align-D ---------------------

TEST(RankMode, LocalOnlyStillProducesValidMsa) {
  SampleAlignDConfig cfg;
  cfg.num_procs = 4;
  cfg.rank_mode = RankMode::LocalOnly;
  const auto seqs = family(40, 40, 700, 1500);
  const Alignment a = SampleAlignD(cfg).align(seqs);
  a.validate();
  for (std::size_t i = 0; i < seqs.size(); ++i)
    EXPECT_EQ(a.degapped(i), seqs[i]);
}

TEST(RankMode, LocalOnlySkipsSampleExchange) {
  SampleAlignDConfig cfg;
  cfg.num_procs = 4;
  const auto seqs = family(40, 40, 700, 1600);
  PipelineStats globalized;
  (void)SampleAlignD(cfg).align(seqs, &globalized);
  cfg.rank_mode = RankMode::LocalOnly;
  PipelineStats local;
  (void)SampleAlignD(cfg).align(seqs, &local);
  for (const char* name :
       {"sample-select", "sample-exchange", "global-rank", "global-sort"}) {
    EXPECT_TRUE(has_stage(globalized, name)) << name;
    EXPECT_FALSE(has_stage(local, name)) << name;
  }
}

TEST(RankMode, GlobalizedBalancesDivergentInputBetter) {
  // The predecessor's flaw (paper §2.3.1): with phylogenetically diverse
  // input, per-block local ranks live on inconsistent scales, so pivots
  // mis-bucket sequences. Interleave two far-apart families so every block
  // holds both kinds, and compare worst-bucket load.
  auto tight = family(24, 40, 150, 1700);
  const auto diffuse = family(24, 40, 2400, 1800);
  std::vector<Sequence> seqs;
  for (std::size_t i = 0; i < tight.size(); ++i) {
    seqs.emplace_back(util::indexed_name("A", i),
                      std::vector<std::uint8_t>(tight[i].codes().begin(),
                                                tight[i].codes().end()),
                      bio::AlphabetKind::AminoAcid);
    seqs.emplace_back(util::indexed_name("B", i),
                      std::vector<std::uint8_t>(diffuse[i].codes().begin(),
                                                diffuse[i].codes().end()),
                      bio::AlphabetKind::AminoAcid);
  }

  SampleAlignDConfig glob;
  glob.num_procs = 4;
  PipelineStats sg;
  (void)SampleAlignD(glob).align(seqs, &sg);

  SampleAlignDConfig local;
  local.num_procs = 4;
  local.rank_mode = RankMode::LocalOnly;
  PipelineStats sl;
  (void)SampleAlignD(local).align(seqs, &sl);

  // Globalized ranking must respect the PSRS bound; local-only has no such
  // guarantee on diverse input (it may or may not blow up, but it must not
  // beat the globalized bound here while globalized violates it).
  EXPECT_LE(sg.load_factor(), 2.5);
}

TEST(RankMode, ModesAgreeOnSingleProc) {
  SampleAlignDConfig a;
  a.num_procs = 1;
  SampleAlignDConfig b;
  b.num_procs = 1;
  b.rank_mode = RankMode::LocalOnly;
  const auto seqs = family(12, 35, 500, 1900);
  const Alignment x = SampleAlignD(a).align(seqs);
  const Alignment y = SampleAlignD(b).align(seqs);
  ASSERT_EQ(x.num_cols(), y.num_cols());
  for (std::size_t r = 0; r < x.num_rows(); ++r)
    EXPECT_EQ(x.row_text(r), y.row_text(r));
}

// ---- divergent polish (future-work refinement) ------------------------------------

TEST(PolishPipeline, PolishedRunStillDegapsToInputs) {
  SampleAlignDConfig cfg;
  cfg.num_procs = 4;
  cfg.polish_divergent = true;
  const auto seqs = family(36, 40, 800, 2000);
  const Alignment a = SampleAlignD(cfg).align(seqs);
  a.validate();
  for (std::size_t i = 0; i < seqs.size(); ++i)
    EXPECT_EQ(a.degapped(i), seqs[i]);
}

TEST(PolishPipeline, PolishNeverLowersSpScore) {
  const auto seqs = family(32, 40, 900, 2100);
  SampleAlignDConfig plain;
  plain.num_procs = 4;
  SampleAlignDConfig polished = plain;
  polished.polish_divergent = true;
  const Alignment a = SampleAlignD(plain).align(seqs);
  const Alignment b = SampleAlignD(polished).align(seqs);
  const auto gaps = B62().default_gaps();
  EXPECT_GE(msa::sp_score(b, B62(), gaps),
            msa::sp_score(a, B62(), gaps) - 1e-6);
}

TEST(PolishPipeline, PolishStageAppearsInStats) {
  SampleAlignDConfig cfg;
  cfg.num_procs = 2;
  cfg.polish_divergent = true;
  const auto seqs = family(24, 35, 700, 2200);
  PipelineStats stats;
  (void)SampleAlignD(cfg).align(seqs, &stats);
  EXPECT_TRUE(has_stage(stats, "polish"));
}

TEST(PolishPipeline, SingleProcPolishMatchesLibraryPolish) {
  const auto seqs = family(14, 35, 700, 2300);
  SampleAlignDConfig cfg;
  cfg.num_procs = 1;
  cfg.polish_divergent = true;
  PipelineStats stats;
  const Alignment from_pipeline = SampleAlignD(cfg).align(seqs, &stats);
  EXPECT_EQ(stage_names(stats),
            (std::vector<std::string>{"bucket-align", "polish"}));

  Alignment manual = msa::MuscleAligner().align(seqs);
  (void)msa::polish_divergent_rows(manual, B62(), cfg.polish);
  ASSERT_EQ(from_pipeline.num_cols(), manual.num_cols());
  for (std::size_t r = 0; r < manual.num_rows(); ++r)
    EXPECT_EQ(from_pipeline.row_text(r), manual.row_text(r));
}

TEST(PipelineStatsTest, StageTableContainsPaperStages) {
  const auto seqs = family(24, 30, 500, 1400);
  PipelineStats stats;
  (void)pipeline(3).align(seqs, &stats);
  const std::string summary = stats.summary();
  for (const char* stage :
       {"local-rank", "sample-exchange", "global-rank", "redistribute",
        "bucket-align", "ancestor", "tweak", "glue"}) {
    EXPECT_NE(summary.find(stage), std::string::npos) << stage;
  }
  // Aligner phases are indented rows of the one table.
  EXPECT_NE(summary.find("|   stage1 progressive"), std::string::npos);
  EXPECT_NE(summary.find(" cached"), std::string::npos);
  EXPECT_EQ(summary.find("aligner phase"), std::string::npos);
}

}  // namespace
}  // namespace salign::core
