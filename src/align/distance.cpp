#include "align/distance.hpp"
#include "align/engine/engine.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "align/engine/batch.hpp"
#include "util/thread_pool.hpp"

namespace salign::align {

double fractional_identity(std::span<const std::uint8_t> a,
                           std::span<const std::uint8_t> b,
                           std::span<const EditOp> ops) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t matches = 0;
  std::size_t cols = 0;
  for (EditOp op : ops) {
    switch (op) {
      case EditOp::Match:
        ++cols;
        if (a[i] == b[j]) ++matches;
        ++i;
        ++j;
        break;
      case EditOp::GapInA: ++j; break;
      case EditOp::GapInB: ++i; break;
    }
  }
  return cols == 0 ? 0.0
                   : static_cast<double>(matches) / static_cast<double>(cols);
}

double kimura_distance(double fractional_identity) {
  const double d = std::clamp(1.0 - fractional_identity, 0.0, 1.0);
  const double arg = 1.0 - d - d * d / 5.0;
  // Saturation guard: identities below ~15% drive the log argument to 0
  // (its root is at D ~ 0.854); the cap keeps every guide-tree distance
  // source on one bounded scale.
  if (arg <= std::exp(-kMaxGuideTreeDistance)) return kMaxGuideTreeDistance;
  return -std::log(arg);
}

double alignment_distance(std::span<const std::uint8_t> a,
                          std::span<const std::uint8_t> b,
                          const bio::SubstitutionMatrix& matrix,
                          bio::GapPenalties gaps) {
  const PairwiseAlignment aln = engine::global_align(a, b, matrix, gaps);
  return kimura_distance(fractional_identity(a, b, aln.ops));
}

// ---------------------------------------------------------------------------
// Batched drivers
// ---------------------------------------------------------------------------

PairDistanceStats& PairDistanceStats::operator+=(const PairDistanceStats& o) {
  pairs += o.pairs;
  ladder += o.ladder;
  return *this;
}

namespace {

double pair_kimura(std::span<const bio::Sequence> seqs, std::size_t i,
                   std::size_t j, const PairAlignments& pair) {
  return kimura_distance(fractional_identity(
      seqs[i].codes(), seqs[j].codes(), pair.global.ops));
}

/// One parallel unit of the blocked alignment pass: a run of same-query
/// pairs sharing one AlignBatch row profile. Each task writes only its own
/// block slots, so the pass is bit-identical for every thread count.
struct PairTask {
  std::size_t row = 0;             ///< query index
  std::vector<std::size_t> slots;  ///< block-local pair indices
};

/// Longest same-query run one row task may hold. A row of the pair
/// triangle can span a whole 256-pair block (any i >= 256), and one task
/// per row would serialize exactly the big-N workloads the pass targets;
/// capping the run keeps >= kBlock/kMaxRowRun parallel tasks per block
/// while still amortizing one AlignBatch profile across 16 alignments.
constexpr std::size_t kMaxRowRun = 16;

/// Splits one block of pairs into same-row runs of at most kMaxRowRun
/// pairs. Pure function of the block's pair set — independent of thread
/// count.
std::vector<PairTask> plan_block(std::size_t base, std::size_t count) {
  std::vector<PairTask> tasks;
  for (std::size_t p = 0; p < count; ++p) {
    const std::size_t i = util::pair_from_index(base + p).first;
    if (tasks.empty() || tasks.back().row != i ||
        tasks.back().slots.size() >= kMaxRowRun) {
      tasks.push_back({.row = i, .slots = {}});
    }
    tasks.back().slots.push_back(p);
  }
  return tasks;
}

/// Runs one planned task — one ladder profile for the shared query, full
/// alignments against each counterpart — filling its block slots (and
/// per-task stats).
void run_pair_task(const PairTask& task, std::span<const bio::Sequence> seqs,
                   const bio::SubstitutionMatrix& matrix,
                   bio::GapPenalties gaps, const PairDistanceOptions& options,
                   std::size_t base, std::vector<PairAlignments>& block,
                   PairDistanceStats& stats) {
  stats.pairs += task.slots.size();
  const std::size_t i = task.row;
  engine::AlignBatch batch(seqs[i].codes(), matrix, gaps, options.first_tier);
  for (const std::size_t p : task.slots) {
    const std::size_t j = util::pair_from_index(base + p).second;
    block[p].global = batch.align(seqs[j].codes());
    if (options.with_local)
      block[p].local =
          engine::local_align(seqs[i].codes(), seqs[j].codes(), matrix, gaps);
  }
  stats.ladder += batch.stats();
}

}  // namespace

util::SymmetricMatrix<double> alignment_distance_matrix(
    std::span<const bio::Sequence> seqs, const bio::SubstitutionMatrix& matrix,
    bio::GapPenalties gaps, const PairDistanceOptions& options,
    const PairVisitor& visit) {
  const std::size_t n = seqs.size();

  // The whole pass — visitor or not — runs in bounded blocks: pair
  // alignments compute in parallel over per-row tier-ladder runs, then the
  // serial walk derives the Kimura distances and feeds the visitor in exact
  // pair order. Identical output for every thread count.
  constexpr std::size_t kBlock = 256;

  util::SymmetricMatrix<double> d(n, 0.0);
  PairDistanceStats total;
  const std::size_t pairs = n == 0 ? 0 : n * (n - 1) / 2;
  std::vector<PairAlignments> block(std::min<std::size_t>(kBlock, pairs));
  for (std::size_t base = 0; base < pairs; base += kBlock) {
    const std::size_t count = std::min(kBlock, pairs - base);
    const std::vector<PairTask> tasks = plan_block(base, count);
    std::vector<PairDistanceStats> task_stats(tasks.size());
    util::parallel_for(
        tasks.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t t = begin; t < end; ++t)
            run_pair_task(tasks[t], seqs, matrix, gaps, options, base, block,
                          task_stats[t]);
        },
        options.threads);
    for (const auto& ts : task_stats) total += ts;
    for (std::size_t p = 0; p < count; ++p) {
      const auto [i, j] = util::pair_from_index(base + p);
      d(i, j) = pair_kimura(seqs, i, j, block[p]);
      if (visit) visit(i, j, block[p]);
    }
  }
  if (options.stats != nullptr) *options.stats = total;
  return d;
}

util::SymmetricMatrix<double> score_distance_matrix(
    std::span<const bio::Sequence> seqs, const bio::SubstitutionMatrix& matrix,
    bio::GapPenalties gaps, const ScoreDistanceOptions& options) {
  const std::size_t n = seqs.size();
  util::SymmetricMatrix<double> d(n, 0.0);
  if (n == 0) return d;

  // Phase 1: self-scores (the normalization scale), one batch per row.
  std::vector<float> self(n, 0.0F);
  util::parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          engine::ScoreBatch batch(seqs[i].codes(), matrix, gaps,
                                   options.first_tier);
          self[i] = batch.score(seqs[i].codes());
        }
      },
      options.threads);

  // Phase 2: one striped profile per row i, scored against every j < i.
  // Row i costs O(i) pairs, so contiguous row chunks would hand the last
  // worker ~half the triangle; interleaving cheap and expensive rows
  // (r -> r/2 from the bottom, n-1-r/2 from the top) balances every chunk
  // while each (i, j) cell still has exactly one writer.
  util::parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          const std::size_t i = (r % 2 == 0) ? r / 2 : n - 1 - r / 2;
          if (i == 0) continue;
          engine::ScoreBatch batch(seqs[i].codes(), matrix, gaps,
                                   options.first_tier);
          for (std::size_t j = 0; j < i; ++j) {
            const double denom = std::min(self[i], self[j]);
            if (denom <= 0.0) {
              d(i, j) = kMaxScoreDistance;
              continue;
            }
            const double ratio =
                static_cast<double>(batch.score(seqs[j].codes())) / denom;
            d(i, j) = std::clamp(1.0 - ratio, 0.0, kMaxScoreDistance);
          }
        }
      },
      options.threads);
  return d;
}

}  // namespace salign::align
