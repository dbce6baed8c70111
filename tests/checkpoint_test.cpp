#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/sample_align_d.hpp"
#include "core/stage/stage.hpp"
#include "msa/muscle_like.hpp"
#include "util/artifact_cache.hpp"
#include "workload/rose.hpp"

namespace salign::core {
namespace {

using bio::Sequence;
using msa::Alignment;

std::vector<Sequence> family(std::size_t n, std::size_t len,
                             std::uint64_t seed) {
  return workload::rose_sequences(
      {.num_sequences = n, .average_length = len, .relatedness = 0.8,
       .seed = seed});
}

void expect_identical(const Alignment& a, const Alignment& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_cols(), b.num_cols());
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.row(r).id, b.row(r).id) << "row " << r;
    EXPECT_EQ(a.row(r).cells, b.row(r).cells) << "row " << r;
  }
}

/// RAII scratch checkpoint directory.
class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("salign_checkpoint_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

/// The core differential: kill the pipeline after EVERY stage boundary in
/// turn (fail_after=k makes store() throw StageAbort right after the k-th
/// artifact is durably on disk), resume from the checkpoint, and require the
/// resumed run's MSA to be bit-identical to an uninterrupted one.
void kill_resume_roundtrip(SampleAlignDConfig cfg,
                           const std::vector<Sequence>& seqs,
                           const std::string& dir) {
  const Alignment golden = SampleAlignD(cfg).align(seqs);

  for (int k = 0;; ++k) {
    std::filesystem::remove_all(dir);
    SampleAlignDConfig interrupted = cfg;
    interrupted.checkpoint.dir = dir;
    interrupted.checkpoint.fail_after = k;
    bool aborted = false;
    try {
      const Alignment full = SampleAlignD(interrupted).align(seqs);
      expect_identical(full, golden);  // k past the last stage: clean finish
    } catch (const stage::StageAbort&) {
      aborted = true;
    }
    if (!aborted) break;

    SampleAlignDConfig resumed = cfg;
    resumed.checkpoint.dir = dir;
    resumed.checkpoint.resume = true;
    PipelineStats stats;
    const Alignment result = SampleAlignD(resumed).align(seqs, &stats);
    expect_identical(result, golden);
    EXPECT_EQ(stats.resumed_stages(), static_cast<std::uint64_t>(k) + 1)
        << "killed after artifact " << k;
    ASSERT_LT(k, 64) << "fail_after never exhausted the stage list";
  }
}

TEST_F(CheckpointTest, KillAfterEveryStageThenResumeBitIdentical_P4) {
  SampleAlignDConfig cfg;
  cfg.num_procs = 4;
  kill_resume_roundtrip(cfg, family(24, 40, 11), dir_);
}

TEST_F(CheckpointTest, KillAfterEveryStageThenResumeBitIdentical_P3Polish) {
  SampleAlignDConfig cfg;
  cfg.num_procs = 3;
  cfg.polish_divergent = true;
  kill_resume_roundtrip(cfg, family(21, 36, 5), dir_);
}

TEST_F(CheckpointTest, KillAfterEveryStageThenResumeBitIdentical_P1) {
  SampleAlignDConfig cfg;
  cfg.num_procs = 1;
  kill_resume_roundtrip(cfg, family(10, 30, 3), dir_);
}

TEST_F(CheckpointTest, KillResumeLocalOnlyAndNoAncestor) {
  SampleAlignDConfig cfg;
  cfg.num_procs = 3;
  cfg.rank_mode = RankMode::LocalOnly;
  cfg.ancestor_refinement = false;
  kill_resume_roundtrip(cfg, family(18, 32, 7), dir_);
}

TEST_F(CheckpointTest, FullCheckpointResumesEveryStage) {
  const std::vector<Sequence> seqs = family(20, 36, 13);
  SampleAlignDConfig cfg;
  cfg.num_procs = 4;
  cfg.checkpoint.dir = dir_;
  const Alignment fresh = SampleAlignD(cfg).align(seqs);

  cfg.checkpoint.resume = true;
  PipelineStats stats;
  const Alignment resumed = SampleAlignD(cfg).align(seqs, &stats);
  expect_identical(resumed, fresh);
  EXPECT_GT(stats.resumed_stages(), 0u);
  EXPECT_EQ(stats.resumed_stages(), stats.stages.size());
  for (const auto& s : stats.stages) EXPECT_TRUE(s.resumed) << s.name;
}

TEST_F(CheckpointTest, ResumeUnderDifferentThreadCountIsBitIdentical) {
  const std::vector<Sequence> seqs = family(20, 36, 17);
  SampleAlignDConfig cfg;
  cfg.num_procs = 4;
  cfg.threads = 2;
  cfg.checkpoint.dir = dir_;
  cfg.checkpoint.fail_after = 5;
  EXPECT_THROW((void)SampleAlignD(cfg).align(seqs), stage::StageAbort);

  SampleAlignDConfig resumed = cfg;
  resumed.threads = 1;  // thread count is not part of the pipeline identity
  resumed.checkpoint.resume = true;
  resumed.checkpoint.fail_after = -1;
  PipelineStats stats;
  const Alignment a = SampleAlignD(resumed).align(seqs, &stats);
  EXPECT_EQ(stats.resumed_stages(), 6u);

  SampleAlignDConfig plain;
  plain.num_procs = 4;
  expect_identical(a, SampleAlignD(plain).align(seqs));
}

TEST_F(CheckpointTest, ChangedConfigInvalidatesCheckpoint) {
  const std::vector<Sequence> seqs = family(18, 32, 19);
  SampleAlignDConfig cfg;
  cfg.num_procs = 3;
  cfg.checkpoint.dir = dir_;
  (void)SampleAlignD(cfg).align(seqs);

  // Same directory, different config: the pipeline hash differs, so nothing
  // may be resumed (resume is an optimization, never a correctness input).
  SampleAlignDConfig changed = cfg;
  changed.samples_per_proc = 2;
  changed.checkpoint.resume = true;
  PipelineStats stats;
  (void)SampleAlignD(changed).align(seqs, &stats);
  EXPECT_EQ(stats.resumed_stages(), 0u);
}

TEST_F(CheckpointTest, PipelineHashIgnoresThreadsButNotConfig) {
  const std::vector<Sequence> seqs = family(8, 30, 23);
  SampleAlignDConfig cfg;
  cfg.num_procs = 3;
  const util::Digest128 base = SampleAlignD(cfg).pipeline_hash(seqs);

  SampleAlignDConfig threaded = cfg;
  threaded.threads = 8;
  EXPECT_EQ(SampleAlignD(threaded).pipeline_hash(seqs), base);

  SampleAlignDConfig other = cfg;
  other.polish_divergent = true;
  EXPECT_NE(SampleAlignD(other).pipeline_hash(seqs), base);

  const std::vector<Sequence> other_seqs = family(8, 30, 24);
  EXPECT_NE(SampleAlignD(cfg).pipeline_hash(other_seqs), base);
}

// Warm-cache differential: the second in-process run of the same input must
// serve the sequential aligner's distance-matrix and guide-tree phases from
// the process-wide artifact cache (visible as cache_hits in the per-phase
// stats) and still produce a bit-identical alignment.
TEST(ArtifactCacheRuns, WarmRunSkipsDistanceAndTreePhases) {
  util::ArtifactCache::process_cache().clear();
  util::ArtifactCache::process_cache().reset_stats();

  const std::vector<Sequence> seqs = family(24, 40, 29);
  SampleAlignDConfig cfg;
  cfg.num_procs = 4;
  cfg.use_artifact_cache = true;

  PipelineStats cold_stats;
  const Alignment cold = SampleAlignD(cfg).align(seqs, &cold_stats);
  PipelineStats warm_stats;
  const Alignment warm = SampleAlignD(cfg).align(seqs, &warm_stats);
  expect_identical(warm, cold);

  bool saw_cached_phase = false;
  for (const auto& stage : warm_stats.stages) {
    for (const auto& ph : stage.phases) {
      if (ph.name == "stage1 distance matrix" ||
          ph.name == "stage1 guide tree" ||
          ph.name == "stage2 distance matrix" ||
          ph.name == "stage2 guide tree") {
        EXPECT_EQ(ph.cache_hits, ph.runs) << stage.name << ' ' << ph.name;
        saw_cached_phase = true;
      } else {
        EXPECT_EQ(ph.cache_hits, 0u) << stage.name << ' ' << ph.name;
      }
    }
  }
  EXPECT_TRUE(saw_cached_phase);
  for (const auto& stage : cold_stats.stages)
    for (const auto& ph : stage.phases)  // cold run computed everything
      EXPECT_EQ(ph.cache_hits, 0u) << stage.name << ' ' << ph.name;

  EXPECT_FALSE(warm_stats.cache_note.empty());
  EXPECT_GT(util::ArtifactCache::process_cache().stats().hits, 0u);
  util::ArtifactCache::process_cache().clear();
}

// Default-off: without the opt-in, nothing touches the process cache.
TEST(ArtifactCacheRuns, CacheIsOptIn) {
  util::ArtifactCache::process_cache().clear();
  util::ArtifactCache::process_cache().reset_stats();
  const std::vector<Sequence> seqs = family(12, 30, 31);
  SampleAlignDConfig cfg;
  cfg.num_procs = 2;
  PipelineStats stats;
  (void)SampleAlignD(cfg).align(seqs, &stats);
  const auto s = util::ArtifactCache::process_cache().stats();
  EXPECT_EQ(s.hits + s.misses + s.insertions, 0u);
  EXPECT_TRUE(stats.cache_note.empty());
}

}  // namespace
}  // namespace salign
