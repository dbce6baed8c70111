// Micro-benchmarks (google-benchmark) for the kernels behind the paper's
// §3 cost table: k-mer rank computation, pairwise DP, profile alignment,
// guide-tree construction, and the PSRS bucket partition. These back the
// per-stage constants of the cluster cost model.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "align/distance.hpp"
#include "align/engine/batch.hpp"
#include "align/engine/engine.hpp"
#include "align/engine/pair_batch.hpp"
#include "core/partition.hpp"
#include "kmer/kmer_rank.hpp"
#include "msa/guide_tree.hpp"
#include "msa/induced_identity.hpp"
#include "msa/muscle_like.hpp"
#include "msa/profile.hpp"
#include "msa/profile_align.hpp"
#include "msa/progressive.hpp"
#include "oracles/profile_dp.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"
#include "workload/rose.hpp"

namespace {

using namespace salign;

std::vector<bio::Sequence> seqs_cache(std::size_t n, std::size_t len) {
  static std::map<std::pair<std::size_t, std::size_t>,
                  std::vector<bio::Sequence>>
      cache;
  auto& slot = cache[{n, len}];
  if (slot.empty())
    slot = workload::rose_sequences(
        {.num_sequences = n, .average_length = len, .relatedness = 700,
         .seed = 1});
  return slot;
}

void BM_KmerProfileBuild(benchmark::State& state) {
  const auto seqs = seqs_cache(64, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (const auto& s : seqs)
      benchmark::DoNotOptimize(
          kmer::KmerProfile::from_sequence(s, kmer::KmerParams{}));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_KmerProfileBuild)->Arg(100)->Arg(300)->Arg(1000);

// 500 is the block each rank of the rose2k-p4 end-to-end workload ranks
// in its local-rank stage (2000 sequences over 4 ranks).
void BM_KmerRankCentralized(benchmark::State& state) {
  const auto seqs = seqs_cache(static_cast<std::size_t>(state.range(0)), 300);
  for (auto _ : state)
    benchmark::DoNotOptimize(kmer::centralized_ranks(seqs, {}));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_KmerRankCentralized)->Arg(32)->Arg(64)->Arg(128)->Arg(500)
    ->Complexity();

// The stage-1 k-mer distance matrix of 1000x300 and 2000x300 rose families
// (the latter the rose2k end-to-end shape) at 1 and 4 workers.
// pairs_per_second is computed against wall time measured here (rate
// counters divide by the bench thread's CPU time, which is blind to pool
// workers), so the /1-vs-/4 ratio is the chunking speedup.
void BM_KmerDistanceMatrix(benchmark::State& state) {
  const auto seqs = seqs_cache(static_cast<std::size_t>(state.range(0)), 300);
  const auto threads = static_cast<unsigned>(state.range(1));
  const double pairs =
      static_cast<double>(seqs.size() * (seqs.size() - 1) / 2);
  double wall = 0.0;
  for (auto _ : state) {
    const util::Stopwatch watch;
    benchmark::DoNotOptimize(kmer::distance_matrix(seqs, {}, threads));
    wall += watch.seconds();
  }
  state.counters["pairs_per_second"] =
      wall > 0.0 ? static_cast<double>(state.iterations()) * pairs / wall
                 : 0.0;
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_KmerDistanceMatrix)
    ->ArgsProduct({{1000, 2000}, {1, 4}})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// MiniMuscle's stage-2 induced-Kimura matrix over the stage-1 alignment of
// the same 1000x300 family (built once, outside the timed loop), at 1 and 4
// workers; pairs_per_second against wall time as above.
void BM_InducedKimura(benchmark::State& state) {
  static const msa::Alignment stage1 = [] {
    msa::MuscleOptions o;
    o.reestimate_tree = false;
    o.threads = 4;
    return msa::MuscleAligner(o).align(seqs_cache(1000, 300));
  }();
  const auto threads = static_cast<unsigned>(state.range(0));
  const double pairs =
      static_cast<double>(stage1.num_rows() * (stage1.num_rows() - 1) / 2);
  double wall = 0.0;
  for (auto _ : state) {
    const util::Stopwatch watch;
    benchmark::DoNotOptimize(msa::induced_kimura_distances(stage1, threads));
    wall += watch.seconds();
  }
  state.counters["pairs_per_second"] =
      wall > 0.0 ? static_cast<double>(state.iterations()) * pairs / wall
                 : 0.0;
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_InducedKimura)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Reports DP throughput for a pairwise kernel: google-benchmark divides the
/// accumulated cell count by elapsed time, so BENCH JSON entries carry a
/// directly comparable "cells_per_second" figure.
void set_cells_per_second(benchmark::State& state, std::size_t cells_per_iter) {
  state.counters["cells_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations() * cells_per_iter),
      benchmark::Counter::kIsRate);
}

void BM_GlobalAlign(benchmark::State& state) {
  const auto seqs = seqs_cache(2, static_cast<std::size_t>(state.range(0)));
  const auto& m = bio::SubstitutionMatrix::blosum62();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        align::engine::global_align(seqs[0].codes(), seqs[1].codes(), m, {}));
  set_cells_per_second(state, seqs[0].codes().size() * seqs[1].codes().size());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GlobalAlign)->Arg(100)->Arg(200)->Arg(400)->Complexity();

// The engine's anti-diagonal float kernel, score-only pass (the build's one
// kernel: VecF lanes, or 1 lane in release-scalar builds). Pinned to the
// FLOAT tier so these rows stay comparable with the pre-integer baselines;
// the striped integer tiers have their own benches below.
void BM_EngineGlobalScoreVector(benchmark::State& state) {
  const auto seqs = seqs_cache(2, static_cast<std::size_t>(state.range(0)));
  const auto& m = bio::SubstitutionMatrix::blosum62();
  for (auto _ : state)
    benchmark::DoNotOptimize(align::engine::global_score(
        seqs[0].codes(), seqs[1].codes(), m, {}, nullptr,
        align::engine::ScoreTier::kFloat));
  set_cells_per_second(state, seqs[0].codes().size() * seqs[1].codes().size());
}
BENCHMARK(BM_EngineGlobalScoreVector)->Arg(400)->Arg(1000);

// ---- striped integer score tiers ----------------------------------------------
//
// ScoreBatch reuses one striped query profile across counterparts, exactly
// as the distance-matrix drivers do. The int8 bench runs in the tier's
// honest regime: pairs short enough for the int8 rails (the boundary gap
// run bounds the viable length to ~100 residues) and divergent enough not
// to saturate the ceiling — i.e. distance-matrix pairs. A "promotions"
// counter reports if the regime drifts into saturation.

/// ~20% identity mutants of a random protein query: scores stay inside the
/// int8 rails while the pair remains alignment-worthy.
std::vector<std::vector<std::uint8_t>> mutant_pairs(std::size_t len,
                                                    std::size_t count,
                                                    std::uint64_t seed,
                                                    std::vector<std::uint8_t>&
                                                        query) {
  util::Rng rng(seed);
  query.resize(len);
  for (auto& c : query) c = static_cast<std::uint8_t>(rng.below(20));
  std::vector<std::vector<std::uint8_t>> others(count, query);
  for (auto& o : others)
    for (auto& c : o)
      if (rng.chance(0.8)) c = static_cast<std::uint8_t>(rng.below(20));
  return others;
}

void engine_striped_bench(benchmark::State& state, std::size_t len,
                          align::engine::ScoreTier tier) {
  std::vector<std::uint8_t> query;
  const auto others = mutant_pairs(len, 16, 99, query);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const bio::GapPenalties gaps{10.0F, 1.0F};
  align::engine::ScoreBatch batch(query, m, gaps, tier);
  for (auto _ : state)
    for (const auto& o : others) benchmark::DoNotOptimize(batch.score(o));
  set_cells_per_second(state, others.size() * len * len);
  state.counters["promotions"] =
      static_cast<double>(batch.stats().promotions);
}
void BM_EngineScoreStripedInt8(benchmark::State& state) {
  engine_striped_bench(state, static_cast<std::size_t>(state.range(0)),
                       align::engine::ScoreTier::kInt8);
}
BENCHMARK(BM_EngineScoreStripedInt8)->Arg(94);
void BM_EngineScoreStripedInt16(benchmark::State& state) {
  engine_striped_bench(state, static_cast<std::size_t>(state.range(0)),
                       align::engine::ScoreTier::kInt16);
}
BENCHMARK(BM_EngineScoreStripedInt16)->Arg(400)->Arg(1000);
void BM_EngineScoreBatchAuto(benchmark::State& state) {
  engine_striped_bench(state, static_cast<std::size_t>(state.range(0)),
                       align::engine::ScoreTier::kAuto);
}
BENCHMARK(BM_EngineScoreBatchAuto)->Arg(400);

// ---- distance-matrix drivers ---------------------------------------------------

std::size_t pair_cells(std::span<const bio::Sequence> seqs) {
  std::size_t cells = 0;
  for (std::size_t i = 0; i < seqs.size(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      cells += seqs[i].size() * seqs[j].size();
  return cells;
}

void distance_matrix_score_bench(benchmark::State& state,
                                 align::engine::ScoreTier tier) {
  const auto seqs = seqs_cache(static_cast<std::size_t>(state.range(0)), 300);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  align::ScoreDistanceOptions opt;
  opt.first_tier = tier;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        align::score_distance_matrix(seqs, m, m.default_gaps(), opt));
  set_cells_per_second(state, pair_cells(seqs));
}
void BM_DistanceMatrixScore(benchmark::State& state) {
  distance_matrix_score_bench(state, align::engine::ScoreTier::kAuto);
}
BENCHMARK(BM_DistanceMatrixScore)->Arg(24);
void BM_DistanceMatrixScoreFloat(benchmark::State& state) {
  distance_matrix_score_bench(state, align::engine::ScoreTier::kFloat);
}
BENCHMARK(BM_DistanceMatrixScoreFloat)->Arg(24);

void BM_DistanceMatrixKimura(benchmark::State& state) {
  const auto seqs = seqs_cache(static_cast<std::size_t>(state.range(0)), 200);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        align::alignment_distance_matrix(seqs, m, m.default_gaps()));
  set_cells_per_second(state, pair_cells(seqs));
}
BENCHMARK(BM_DistanceMatrixKimura)->Arg(12);

// ---- ALIGNED (identity/Kimura) distance matrix: tier comparison ---------------
//
// The end-to-end acceptance pair of the integer-traceback PR: the same
// full-alignment distance pass once through the tier ladder (striped
// int8/int16 traceback + batched int8 pair lanes) and once pinned to
// kFloat — the pre-integer-traceback behavior. The short-sequence variant
// sits in the inter-pair batch kernel's regime.

/// Divergent family (~20-25% pairwise identity) of short sequences: the
/// honest regime of the int8 tiers — distance-matrix pairs dissimilar
/// enough not to blow the ceiling, the workload the guide-tree distance
/// stage actually sees on remote homologs and short reads.
std::vector<bio::Sequence> divergent_family(std::size_t n, std::size_t len,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> root(len);
  for (auto& c : root) c = static_cast<std::uint8_t>(rng.below(20));
  std::vector<bio::Sequence> seqs;
  for (std::size_t s = 0; s < n; ++s) {
    auto codes = root;
    codes.resize(len - 5 + rng.below(11), 0);
    for (auto& c : codes)
      if (rng.chance(0.8)) c = static_cast<std::uint8_t>(rng.below(20));
    seqs.emplace_back(util::indexed_name("d", s), std::move(codes),
                      bio::AlphabetKind::AminoAcid);
  }
  return seqs;
}

void distance_matrix_aligned_bench(benchmark::State& state,
                                   std::span<const bio::Sequence> seqs,
                                   align::engine::ScoreTier tier) {
  const auto& m = bio::SubstitutionMatrix::blosum62();
  align::PairDistanceOptions opt;
  opt.first_tier = tier;
  align::PairDistanceStats stats;
  opt.stats = &stats;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        align::alignment_distance_matrix(seqs, m, m.default_gaps(), opt));
  set_cells_per_second(state, pair_cells(seqs));
  state.counters["batched_int8"] = static_cast<double>(stats.batched_int8);
  state.counters["int8_runs"] = static_cast<double>(stats.ladder.int8_runs);
  state.counters["int16_runs"] = static_cast<double>(stats.ladder.int16_runs);
  state.counters["float_runs"] = static_cast<double>(stats.ladder.float_runs);
}
void BM_DistanceMatrixAligned(benchmark::State& state) {
  const auto seqs = seqs_cache(static_cast<std::size_t>(state.range(0)), 200);
  distance_matrix_aligned_bench(state, seqs, align::engine::ScoreTier::kAuto);
}
BENCHMARK(BM_DistanceMatrixAligned)->Arg(16);
void BM_DistanceMatrixAlignedFloat(benchmark::State& state) {
  const auto seqs = seqs_cache(static_cast<std::size_t>(state.range(0)), 200);
  distance_matrix_aligned_bench(state, seqs,
                                align::engine::ScoreTier::kFloat);
}
BENCHMARK(BM_DistanceMatrixAlignedFloat)->Arg(16);
void BM_DistanceMatrixAlignedShort(benchmark::State& state) {
  const auto seqs =
      divergent_family(static_cast<std::size_t>(state.range(0)), 80, 11);
  distance_matrix_aligned_bench(state, seqs, align::engine::ScoreTier::kAuto);
}
BENCHMARK(BM_DistanceMatrixAlignedShort)->Arg(32);
void BM_DistanceMatrixAlignedShortFloat(benchmark::State& state) {
  const auto seqs =
      divergent_family(static_cast<std::size_t>(state.range(0)), 80, 11);
  distance_matrix_aligned_bench(state, seqs,
                                align::engine::ScoreTier::kFloat);
}
BENCHMARK(BM_DistanceMatrixAlignedShortFloat)->Arg(32);

// Pinned to the float tier so these rows keep measuring the float
// checkpointed kernel (comparable with the pre-integer baselines); the
// striped traceback tiers have their own benches below.
void BM_EngineGlobalAlignVector(benchmark::State& state) {
  const auto seqs = seqs_cache(2, static_cast<std::size_t>(state.range(0)));
  const auto& m = bio::SubstitutionMatrix::blosum62();
  for (auto _ : state)
    benchmark::DoNotOptimize(align::engine::global_align(
        seqs[0].codes(), seqs[1].codes(), m, {},
        align::engine::ScoreTier::kFloat));
  set_cells_per_second(state, seqs[0].codes().size() * seqs[1].codes().size());
}
BENCHMARK(BM_EngineGlobalAlignVector)->Arg(400)->Arg(1000);

// ---- striped integer FULL-alignment tiers --------------------------------------
//
// AlignBatch reuses one striped profile + workspace across counterparts,
// exactly as the identity/Kimura distance drivers do. Same honest-regime
// workload as the score benches (divergent mutants inside the rails); the
// "promotions" counter reports regime drift.

void engine_align_striped_bench(benchmark::State& state, std::size_t len,
                                align::engine::ScoreTier tier) {
  std::vector<std::uint8_t> query;
  const auto others = mutant_pairs(len, 16, 99, query);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const bio::GapPenalties gaps{10.0F, 1.0F};
  align::engine::AlignBatch batch(query, m, gaps, tier);
  for (auto _ : state)
    for (const auto& o : others) benchmark::DoNotOptimize(batch.align(o));
  set_cells_per_second(state, others.size() * len * len);
  state.counters["promotions"] =
      static_cast<double>(batch.stats().promotions);
}
void BM_EngineAlignStripedInt8(benchmark::State& state) {
  engine_align_striped_bench(state, static_cast<std::size_t>(state.range(0)),
                             align::engine::ScoreTier::kInt8);
}
BENCHMARK(BM_EngineAlignStripedInt8)->Arg(94);
void BM_EngineAlignStripedInt16(benchmark::State& state) {
  engine_align_striped_bench(state, static_cast<std::size_t>(state.range(0)),
                             align::engine::ScoreTier::kInt16);
}
BENCHMARK(BM_EngineAlignStripedInt16)->Arg(400)->Arg(1000);

// One lane per pair: 16 short pairwise alignments per kernel pass, the
// short-read regime of the distance stage.
void BM_EnginePairBatchAlign8(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const bio::GapPenalties gaps{10.0F, 1.0F};
  align::engine::PairBatch pb(m, gaps);
  std::vector<std::uint8_t> query;
  const auto others = mutant_pairs(len, 2 * pb.lanes(), 7, query);
  std::vector<align::engine::PairBatch::Pair> pairs;
  for (std::size_t l = 0; l < pb.lanes(); ++l)
    pairs.push_back({others[2 * l], others[2 * l + 1]});
  std::vector<align::PairwiseAlignment> outs(pairs.size());
  std::size_t retried = 0;
  for (auto _ : state) {
    const std::unique_ptr<bool[]> okp(new bool[pairs.size()]());
    pb.align(pairs, outs.data(), okp.get());
    for (std::size_t l = 0; l < pairs.size(); ++l)
      if (!okp[l]) ++retried;
    benchmark::DoNotOptimize(outs.data());
  }
  set_cells_per_second(state, pairs.size() * len * len);
  // Saturated lanes PER PASS (the workload is fixed, so every iteration
  // flags the same lanes — divide the accumulation back out).
  state.counters["saturated_lanes"] =
      state.iterations() > 0
          ? static_cast<double>(retried) /
                static_cast<double>(state.iterations())
          : 0.0;
}
BENCHMARK(BM_EnginePairBatchAlign8)->Arg(64)->Arg(90);

void BM_LocalAlign(benchmark::State& state) {
  const auto seqs = seqs_cache(2, static_cast<std::size_t>(state.range(0)));
  const auto& m = bio::SubstitutionMatrix::blosum62();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        align::engine::local_align(seqs[0].codes(), seqs[1].codes(), m, {}));
  set_cells_per_second(state, seqs[0].codes().size() * seqs[1].codes().size());
}
BENCHMARK(BM_LocalAlign)->Arg(100)->Arg(300);

// ---- PSP profile-DP kernel (vectorized wavefront vs scalar reference) ----------
//
// Two ~L-column profiles from rose halves, full DP. BM_ProfileDp runs the
// blocked anti-diagonal wavefront kernel (the library's one profile-DP
// kernel, behind align_profiles and T-Coffee's merges), BM_ProfileDpScalar
// the header-only row-major test oracle (tests/oracles/profile_dp.hpp) on
// the same scorer — the pair makes the kernel speedup part of every
// baseline. Both DPs fit the default trace budget,
// so they keep full traceback tables; BM_ProfileDpCheckpointed runs the
// wavefront kernel at max_trace_cells = 1, the checkpoint-and-rerun
// traceback that DPs above the budget take.

void profile_dp_bench(benchmark::State& state, bool row_major,
                      std::size_t max_trace_cells = 0) {
  const auto seqs = seqs_cache(16, static_cast<std::size_t>(state.range(0)));
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const std::size_t half = seqs.size() / 2;
  const msa::MuscleAligner aligner;
  const msa::Alignment left =
      aligner.align(std::span<const bio::Sequence>(seqs.data(), half));
  const msa::Alignment right = aligner.align(
      std::span<const bio::Sequence>(seqs.data() + half, seqs.size() - half));
  const msa::Profile pl(left, m);
  const msa::Profile pr(right, m);
  msa::ProfileAlignOptions po;
  po.gaps = m.default_gaps();
  po.max_trace_cells = max_trace_cells;
  for (auto _ : state) {
    if (row_major) {
      // Scorer build included, as align_profiles includes it.
      const msa::detail::PspProblem p(pl, pr);
      benchmark::DoNotOptimize(msa::reference::profile_dp(p, po));
    } else {
      benchmark::DoNotOptimize(msa::align_profiles(pl, pr, po));
    }
  }
  set_cells_per_second(state, pl.num_cols() * pr.num_cols());
}
void BM_ProfileDp(benchmark::State& state) { profile_dp_bench(state, false); }
BENCHMARK(BM_ProfileDp)->Arg(400)->Arg(1000);
void BM_ProfileDpCheckpointed(benchmark::State& state) {
  profile_dp_bench(state, false, 1);
}
BENCHMARK(BM_ProfileDpCheckpointed)->Arg(400)->Arg(1000);
void BM_ProfileDpScalar(benchmark::State& state) {
  profile_dp_bench(state, true);
}
BENCHMARK(BM_ProfileDpScalar)->Arg(400)->Arg(1000);

// ---- task-parallel progressive alignment ---------------------------------------
//
// One guide-tree progressive pass over a 256-sequence rose family, at 1 and
// 4 workers. cells_per_second is computed against wall time measured here
// (google-benchmark rate counters divide by the bench thread's CPU time,
// which is blind to pool workers), so the /1-vs-/4 ratio in the committed
// baselines IS the task-scheduler speedup. The merge cell count comes from
// a one-off instrumented pass through the band-provider hook.

void BM_ProgressiveAlign(benchmark::State& state) {
  const auto seqs = seqs_cache(256, 200);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const msa::GuideTree tree =
      msa::GuideTree::upgma(kmer::distance_matrix(seqs, {}));
  msa::ProgressiveOptions po;
  po.gaps = m.default_gaps();
  po.weights = tree.leaf_weights();

  static std::size_t cells = 0;  // same tree every arg: count once
  if (cells == 0) {
    msa::ProgressiveOptions counting = po;
    counting.band_provider = [](const msa::Alignment& a,
                                const msa::Alignment& b) {
      cells += a.num_cols() * b.num_cols();
      return std::size_t{0};
    };
    (void)msa::progressive_align(seqs, tree, m, counting);
  }

  po.threads = static_cast<unsigned>(state.range(0));
  double wall = 0.0;
  for (auto _ : state) {
    const util::Stopwatch watch;
    benchmark::DoNotOptimize(msa::progressive_align(seqs, tree, m, po));
    wall += watch.seconds();
  }
  state.counters["cells_per_second"] =
      wall > 0.0 ? static_cast<double>(state.iterations() * cells) / wall
                 : 0.0;
  state.counters["threads"] = static_cast<double>(po.threads);
}
BENCHMARK(BM_ProgressiveAlign)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ProfileAlign(benchmark::State& state) {
  const auto seqs = seqs_cache(static_cast<std::size_t>(state.range(0)), 200);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const std::size_t half = seqs.size() / 2;
  const msa::MuscleAligner aligner;
  const msa::Alignment left = aligner.align(
      std::span<const bio::Sequence>(seqs.data(), half));
  const msa::Alignment right = aligner.align(
      std::span<const bio::Sequence>(seqs.data() + half, seqs.size() - half));
  const msa::Profile pl(left, m);
  const msa::Profile pr(right, m);
  for (auto _ : state)
    benchmark::DoNotOptimize(msa::align_profiles(pl, pr));
  set_cells_per_second(state, pl.num_cols() * pr.num_cols());
}
BENCHMARK(BM_ProfileAlign)->Arg(8)->Arg(16)->Arg(32);

void BM_UpgmaBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  util::SymmetricMatrix<double> d(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) d(i, j) = rng.uniform(0.01, 2.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(msa::GuideTree::upgma(d));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_UpgmaBuild)->Arg(64)->Arg(256)->Arg(1024)->Arg(2048)
    ->Complexity();

void BM_MiniMuscleEndToEnd(benchmark::State& state) {
  const auto seqs = seqs_cache(static_cast<std::size_t>(state.range(0)), 150);
  const msa::MuscleAligner aligner;
  for (auto _ : state) benchmark::DoNotOptimize(aligner.align(seqs));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MiniMuscleEndToEnd)->Arg(16)->Arg(32)->Arg(64)->Complexity();

void BM_PsrsPartition(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  std::vector<double> keys(n);
  for (auto& k : keys) k = rng.uniform(0, 1);
  std::vector<double> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  for (auto _ : state) {
    const auto samples = core::regular_samples(sorted, 15);
    auto pivots = core::choose_pivots(
        std::vector<double>(samples.begin(), samples.end()), 16);
    benchmark::DoNotOptimize(core::bucket_histogram(keys, pivots));
  }
}
BENCHMARK(BM_PsrsPartition)->Arg(10000)->Arg(100000);

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("salign_engine_kernel",
                              salign::align::engine::kernel_name());
  benchmark::AddCustomContext(
      "salign_engine_lanes",
      std::to_string(salign::align::engine::kernel_lanes()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
