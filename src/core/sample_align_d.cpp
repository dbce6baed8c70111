#include "core/sample_align_d.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "bio/content_hash.hpp"
#include "core/partition.hpp"
#include "core/stage/artifacts.hpp"
#include "kmer/kmer_rank.hpp"
#include "msa/consensus.hpp"
#include "msa/muscle_like.hpp"
#include "msa/phase_log.hpp"
#include "msa/profile.hpp"
#include "msa/profile_align.hpp"
#include "par/serialize.hpp"
#include "util/artifact_cache.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace salign::core {

namespace {

using align::EditOp;
using bio::Sequence;
using msa::Alignment;
using stage::RankedPartition;
using stage::RankedRef;

/// Per-(stage, rank) accounting of the staged executor: CPU seconds of the
/// worker that ran the rank's segment (immune to host oversubscription, but
/// blind to shared-pool workers a threaded local aligner borrows), wall
/// seconds, the aligner phases the segment ran, and the collectives a real
/// cluster would run. The StageRunner knows nothing of ranks or bytes; a
/// segment belongs to the stage being computed, which is record number
/// runner.records().size() (the runner appends a stage's record once its
/// compute returns), so row i pairs with record i. Resumed stages never
/// execute their compute, so their rows stay zero — reflecting that no work
/// was done.
class RunStats {
 public:
  RunStats(const stage::StageRunner& runner, int p)
      : runner_(&runner), p_(static_cast<std::size_t>(p)) {}

  /// Runs fn(rank) for every rank concurrently — one deterministic chunk
  /// per rank, the staged executor's stand-in for p cluster nodes — timing
  /// each as that rank's segment. fn must write only to per-rank slots;
  /// chunk geometry never depends on scheduling, so neither do outputs.
  void for_each_rank(const std::function<void(int)>& fn) {
    StageStats& row = current();
    std::vector<std::vector<msa::PhaseEntry>> phases(p_);
    util::parallel_for(
        p_,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t r = begin; r < end; ++r)
            phases[r] = timed(row, r, [&] { fn(static_cast<int>(r)); });
        },
        static_cast<unsigned>(p_));
    for (std::size_t r = 0; r < p_; ++r) add_phases(row, r, phases[r]);
  }

  /// Root-only segment (pivot selection, global-ancestor alignment, glue,
  /// polish), charged to rank 0.
  template <typename Fn>
  void at_root(Fn&& fn) {
    StageStats& row = current();
    add_phases(row, 0, timed(row, 0, fn));
  }

  /// Records one collective of the current stage from the bytes each rank
  /// sends in it.
  void add_leg(CommPattern pattern, std::span<const std::uint64_t> sent) {
    CommLeg leg{pattern, 0, 0};
    for (std::uint64_t b : sent) {
      leg.total_bytes += b;
      leg.max_bytes_per_rank = std::max(leg.max_bytes_per_rank, b);
    }
    current().legs.push_back(leg);
  }

  /// One row per runner record, in execution order: the record's
  /// provenance plus this accounting.
  [[nodiscard]] std::vector<StageStats> take_stages() {
    const std::vector<stage::ArtifactRecord>& records = runner_->records();
    std::vector<StageStats> out = std::move(rows_);
    out.resize(records.size(), empty_row());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].name = records[i].name;
      out[i].paper_step = records[i].paper_step;
      out[i].artifact_bytes = records[i].bytes;
      out[i].resumed = records[i].resumed;
      out[i].seconds = records[i].seconds;
    }
    return out;
  }

 private:
  [[nodiscard]] StageStats empty_row() const {
    StageStats row;
    row.rank_seconds.assign(p_, 0.0);
    row.rank_wall_seconds.assign(p_, 0.0);
    return row;
  }

  /// The row of the stage being computed. Called before any segment starts,
  /// never from inside one, so rows_ only grows single-threaded.
  StageStats& current() {
    const std::size_t i = runner_->records().size();
    if (rows_.size() <= i) rows_.resize(i + 1, empty_row());
    return rows_[i];
  }

  /// Runs one segment of `rank` and returns the aligner phases it logged.
  /// The log is installed before the segment's clocks start, so every
  /// phase's time lies inside the segment's.
  template <typename Fn>
  std::vector<msa::PhaseEntry> timed(StageStats& row, std::size_t rank,
                                     Fn&& fn) {
    msa::PhaseLog log;
    util::ThreadCpuTimer cpu;
    util::Stopwatch watch;
    fn();
    const double wall = watch.seconds();
    // A single rank runs undisturbed on the host, so its wall time *is* the
    // dedicated-node time (and avoids the coarse granularity some
    // containers give CLOCK_THREAD_CPUTIME_ID).
    row.rank_seconds[rank] += p_ == 1 ? wall : cpu.seconds();
    row.rank_wall_seconds[rank] += wall;
    return log.entries();
  }

  /// Folds one rank's phase entries into the row by name, in first-seen
  /// order. Runs after the stage's parallel region, so rows stay
  /// single-writer.
  void add_phases(StageStats& row, std::size_t rank,
                  const std::vector<msa::PhaseEntry>& entries) const {
    for (const msa::PhaseEntry& e : entries) {
      auto it = std::find_if(row.phases.begin(), row.phases.end(),
                             [&](const AlignerPhase& ph) {
                               return ph.name == e.name;
                             });
      if (it == row.phases.end())
        it = row.phases.insert(
            it, AlignerPhase{e.name, std::vector<double>(p_, 0.0), 0, 0});
      it->rank_wall_seconds[rank] += e.wall_seconds;
      ++it->runs;
      if (e.cache_hit) ++it->cache_hits;
    }
  }

  const stage::StageRunner* runner_;
  std::size_t p_;
  std::vector<StageStats> rows_;
};

void sort_refs(std::vector<RankedRef>& refs) {
  std::sort(refs.begin(), refs.end(), [](const RankedRef& a,
                                         const RankedRef& b) {
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.index < b.index;  // deterministic tie-break
  });
}

// ---- Wire sizes of the pipeline's own message framings -------------------
//
// Messages are modeled, not encoded: each is charged the bytes its encoding
// would occupy. The par:: codecs size domain values (par::wire_size); these
// constants cover the fields the pipeline frames itself.

constexpr std::uint64_t kCountBytes = 4;  ///< u32 element count
constexpr std::uint64_t kKeyBytes = 8;    ///< f64 rank key or pivot
constexpr std::uint64_t kIndexBytes = 8;  ///< u64 input position

/// A u32 count followed by that many f64 keys (pivot candidates, pivots).
std::uint64_t keys_wire_size(std::size_t keys) {
  return kCountBytes + kKeyBytes * keys;
}

/// A glue path: a blob (u32 length prefix) holding a u32 op count and one
/// u8 per edit op.
std::uint64_t ops_wire_size(std::span<const EditOp> ops) {
  return kCountBytes + kCountBytes + ops.size();  // length, count, ops
}

// ---- Glue on the global-ancestor coordinate system ------------------------

/// Places every bucket's (tweaked) alignment into a shared column space:
/// global-ancestor columns are common anchors; insertions relative to the
/// ancestor get per-position insertion blocks sized by the widest bucket.
Alignment glue_on_ancestor(std::span<const Alignment> locals,
                           std::span<const std::vector<EditOp>> paths,
                           std::size_t ga_len, bio::AlphabetKind kind) {
  const std::size_t p = locals.size();

  // ins[b][g]: columns bucket b inserts immediately before ancestor column
  // g (g == ga_len collects trailing insertions).
  std::vector<std::vector<std::size_t>> ins(
      p, std::vector<std::size_t>(ga_len + 1, 0));
  for (std::size_t b = 0; b < p; ++b) {
    std::size_t g = 0;
    for (EditOp op : paths[b]) {
      switch (op) {
        case EditOp::Match: ++g; break;
        case EditOp::GapInA: ++g; break;          // ancestor col, no local col
        case EditOp::GapInB: ++ins[b][g]; break;  // local-only column
      }
    }
  }
  std::vector<std::size_t> ins_max(ga_len + 1, 0);
  for (std::size_t g = 0; g <= ga_len; ++g)
    for (std::size_t b = 0; b < p; ++b)
      ins_max[g] = std::max(ins_max[g], ins[b][g]);

  // Column layout: [ins block 0] GA0 [ins block 1] GA1 ... [ins block G].
  std::vector<std::size_t> ga_pos(ga_len, 0);
  std::size_t total = 0;
  for (std::size_t g = 0; g < ga_len; ++g) {
    total += ins_max[g];
    ga_pos[g] = total;
    ++total;
  }
  total += ins_max[ga_len];

  std::vector<msa::AlignedRow> rows;
  for (std::size_t b = 0; b < p; ++b) {
    const Alignment& local = locals[b];
    if (local.empty()) continue;
    const std::size_t first_row = rows.size();
    for (std::size_t r = 0; r < local.num_rows(); ++r) {
      msa::AlignedRow row;
      row.id = local.row(r).id;
      row.cells.assign(total, Alignment::kGap);
      rows.push_back(std::move(row));
    }

    auto block_start = [&](std::size_t g) {
      return g < ga_len ? ga_pos[g] - ins_max[g] : total - ins_max[ga_len];
    };
    std::size_t lc = 0;
    std::size_t g = 0;
    std::size_t seen = 0;  // insertions placed before ancestor column g
    auto place = [&](std::size_t pos) {
      for (std::size_t r = 0; r < local.num_rows(); ++r)
        rows[first_row + r].cells[pos] = local.cell(r, lc);
      ++lc;
    };
    for (EditOp op : paths[b]) {
      switch (op) {
        case EditOp::Match:
          place(ga_pos[g]);
          ++g;
          seen = 0;
          break;
        case EditOp::GapInA:
          ++g;
          seen = 0;
          break;
        case EditOp::GapInB:
          place(block_start(g) + seen);
          ++seen;
          break;
      }
    }
  }

  Alignment glued(std::move(rows), kind);
  glued.strip_all_gap_columns();
  return glued;
}

/// Fallback glue without the ancestor constraint: block-diagonal
/// concatenation (each bucket keeps private columns). Used by the
/// ancestor-ablation configuration.
Alignment glue_block_diagonal(std::span<const Alignment> locals,
                              bio::AlphabetKind kind) {
  std::size_t total = 0;
  for (const Alignment& a : locals) total += a.num_cols();

  std::vector<msa::AlignedRow> rows;
  std::size_t offset = 0;
  for (const Alignment& local : locals) {
    for (std::size_t r = 0; r < local.num_rows(); ++r) {
      msa::AlignedRow row;
      row.id = local.row(r).id;
      row.cells.assign(total, Alignment::kGap);
      for (std::size_t c = 0; c < local.num_cols(); ++c)
        row.cells[offset + c] = local.cell(r, c);
      rows.push_back(std::move(row));
    }
    offset += local.num_cols();
  }
  return Alignment(std::move(rows), kind);
}

}  // namespace

SampleAlignD::SampleAlignD(SampleAlignDConfig config)
    : config_(std::move(config)) {
  if (config_.num_procs <= 0)
    throw std::invalid_argument("SampleAlignD: num_procs must be > 0");
  if (!config_.local_aligner) {
    msa::MuscleOptions o;
    o.threads = config_.threads;
    o.use_artifact_cache = config_.use_artifact_cache;
    config_.local_aligner = std::make_shared<msa::MuscleAligner>(o);
  }
}

util::Digest128 SampleAlignD::pipeline_hash(
    std::span<const bio::Sequence> seqs) const {
  util::StableHash h;
  h.str("salign.pipeline");
  h.u32(stage::kCheckpointFormatVersion);
  h.u32(static_cast<std::uint32_t>(config_.num_procs));
  h.u32(static_cast<std::uint32_t>(config_.kmer.k));
  h.u8(config_.kmer.compressed ? 1 : 0);
  h.u32(static_cast<std::uint32_t>(config_.samples_per_proc));
  h.u8(config_.rank_mode == RankMode::Globalized ? 0 : 1);
  h.u8(config_.ancestor_refinement ? 1 : 0);
  h.u8(config_.polish_divergent ? 1 : 0);
  // The consensus options and the matrix are fixed, but stay in the hash
  // so existing checkpoints keep matching.
  h.f64(msa::ConsensusOptions{}.max_gap_fraction);
  h.f64(config_.polish.fraction);
  h.u64(config_.polish.max_rows);
  h.u32(static_cast<std::uint32_t>(config_.polish.passes));
  bio::hash_gaps(h, config_.polish.gaps);
  h.f64(static_cast<double>(msa::kPolishMinGain));
  bio::hash_matrix(h, bio::SubstitutionMatrix::blosum62());
  config_.local_aligner->hash_config(h);
  // threads is deliberately NOT hashed: any thread count is bit-identical,
  // so a checkpoint written with -t 8 must resume under -t 1 and vice versa.
  const util::Digest128 in = bio::sequence_set_hash(seqs);
  h.u64(in.hi);
  h.u64(in.lo);
  return h.digest128();
}

msa::Alignment SampleAlignD::align(std::span<const bio::Sequence> seqs,
                                   PipelineStats* stats) const {
  if (seqs.empty()) throw std::invalid_argument("SampleAlignD: no sequences");
  {
    std::unordered_map<std::string, int> ids;
    for (const auto& s : seqs) {
      if (s.empty())
        throw std::invalid_argument("SampleAlignD: empty sequence " + s.id());
      if (++ids[s.id()] > 1)
        throw std::invalid_argument("SampleAlignD: duplicate id " + s.id());
    }
  }

  const int p = config_.num_procs;
  const auto up = static_cast<std::size_t>(p);
  const auto n = seqs.size();
  util::Stopwatch wall;
  // Ancestor consensus, tweak and polish score with BLOSUM62, the paper's
  // matrix; pipeline_hash covers both.
  const bio::SubstitutionMatrix& matrix = bio::SubstitutionMatrix::blosum62();
  const msa::ConsensusOptions consensus{};

  // Deadline clock starts here. The budget is installed on this thread and
  // the pool carries it to every worker of this run, so parallel_for chunks
  // and guide-tree merges poll it without plumbing.
  util::Budget budget(config_.deadline_seconds, config_.cancel);
  util::ScopedBudget scoped_budget(&budget);

  stage::StageContext ctx(config_.checkpoint, pipeline_hash(seqs));
  stage::StageRunner runner(ctx);
  RunStats rs(runner, p);

  const std::size_t samples_per_proc =
      config_.samples_per_proc > 0
          ? static_cast<std::size_t>(config_.samples_per_proc)
          : static_cast<std::size_t>(p - 1);

  /// Materializes the sequences a partition references (the artifact form
  /// stores indices; the sequences always come back from the input span, so
  /// resumed and fresh runs read identical bytes).
  const auto seqs_of = [&](const std::vector<RankedRef>& part) {
    std::vector<Sequence> out;
    out.reserve(part.size());
    for (const RankedRef& ref : part) out.push_back(seqs[ref.index]);
    return out;
  };
  const auto seqs_of_indices = [&](const std::vector<std::uint64_t>& idx) {
    std::vector<Sequence> out;
    out.reserve(idx.size());
    for (std::uint64_t i : idx) out.push_back(seqs[i]);
    return out;
  };

  // Step 1: contiguous block distribution, w = N/p (last rank may be short;
  // the paper "divides the files into equal parts"). Deterministic dealing,
  // so it is not a checkpointed stage of its own.
  RankedPartition blocks(up);
  {
    const std::size_t chunk = (n + up - 1) / up;
    for (std::size_t r = 0; r < up; ++r) {
      const std::size_t begin = std::min(n, r * chunk);
      const std::size_t end = std::min(n, begin + chunk);
      blocks[r].reserve(end - begin);
      for (std::size_t i = begin; i < end; ++i)
        blocks[r].push_back(RankedRef{i, 0.0});
    }
  }

  // Steps 2-10 rank the blocks and redistribute them into rank-range
  // buckets. A single rank has nothing to partition: its one bucket is its
  // block, the whole input in input order.
  RankedPartition buckets;
  if (p == 1) {
    buckets = std::move(blocks);
  } else {
    // Step 2: local k-mer rank (each sequence vs the local block).
    RankedPartition cur = runner.run(
        "local-rank", 2,
        [&] {
          RankedPartition out = blocks;
          rs.for_each_rank([&](int r) {
            auto& part = out[static_cast<std::size_t>(r)];
            const std::vector<kmer::KmerProfile> prof =
                kmer::build_profiles(seqs_of(part), config_.kmer);
            const std::vector<double> ranks = kmer::ranks_against(prof, prof);
            for (std::size_t i = 0; i < part.size(); ++i)
              part[i].rank = ranks[i];
          });
          return out;
        },
        stage::write_ranked_partition, stage::read_ranked_partition);

    // Step 3: local sort by rank.
    cur = runner.run(
        "local-sort", 3,
        [&] {
          RankedPartition out = cur;
          rs.for_each_rank(
              [&](int r) { sort_refs(out[static_cast<std::size_t>(r)]); });
          return out;
        },
        stage::write_ranked_partition, stage::read_ranked_partition);

    // Steps 4-7 implement the globalized re-rank of §2.3.1; the predecessor
    // Sample-Align system [34] (RankMode::LocalOnly) skips them and pivots
    // on the local-block ranks — kept as the homogeneity-assumption
    // ablation.
    if (config_.rank_mode == RankMode::Globalized) {
      // Step 4: choose k sample sequences, evenly spaced in rank order.
      const std::vector<std::vector<std::uint64_t>> sample_idx = runner.run(
          "sample-select", 4,
          [&] {
            std::vector<std::vector<std::uint64_t>> out(up);
            rs.for_each_rank([&](int r) {
              const auto& items = cur[static_cast<std::size_t>(r)];
              const std::size_t k =
                  std::min(samples_per_proc, items.empty() ? 0 : items.size());
              for (std::size_t i = 0; i < k; ++i) {
                const std::size_t pos = std::min(
                    items.size() - 1, (i + 1) * items.size() / (k + 1));
                out[static_cast<std::size_t>(r)].push_back(items[pos].index);
              }
            });
            return out;
          },
          stage::write_index_lists, stage::read_index_lists);

      // Step 5: exchange samples (k*p sequences known to every rank).
      const std::vector<std::uint64_t> sample_flat = runner.run(
          "sample-exchange", 5,
          [&] {
            // The all-gather charges each rank its own sample list × (p-1).
            std::vector<std::uint64_t> sent(up, 0);
            rs.for_each_rank([&](int r) {
              const auto ur = static_cast<std::size_t>(r);
              sent[ur] =
                  par::wire_size(seqs_of_indices(sample_idx[ur])) * (up - 1);
            });
            rs.add_leg(CommPattern::AllGather, sent);
            std::vector<std::uint64_t> flat;
            for (const auto& list : sample_idx)
              flat.insert(flat.end(), list.begin(), list.end());
            return flat;
          },
          stage::write_indices, stage::read_indices);
      const std::vector<Sequence> samples = seqs_of_indices(sample_flat);

      // Step 6: globalized rank — every local sequence vs the global sample.
      cur = runner.run(
          "global-rank", 6,
          [&] {
            RankedPartition out = cur;
            // Every rank holds the same k*p samples, so their profiles are
            // built once and shared read-only.
            const std::vector<kmer::KmerProfile> ref =
                kmer::build_profiles(samples, config_.kmer);
            rs.for_each_rank([&](int r) {
              auto& part = out[static_cast<std::size_t>(r)];
              const std::vector<double> ranks =
                  kmer::ranks_against(
                      kmer::build_profiles(seqs_of(part), config_.kmer), ref);
              for (std::size_t i = 0; i < part.size(); ++i)
                part[i].rank = ranks[i];
            });
            return out;
          },
          stage::write_ranked_partition, stage::read_ranked_partition);

      // Step 7: re-sort by globalized rank.
      cur = runner.run(
          "global-sort", 7,
          [&] {
            RankedPartition out = cur;
            rs.for_each_rank(
                [&](int r) { sort_refs(out[static_cast<std::size_t>(r)]); });
            return out;
          },
          stage::write_ranked_partition, stage::read_ranked_partition);
    }

    // Steps 8-9: regular sampling of rank keys; root sorts the p(p-1)
    // candidates, picks p-1 pivots and broadcasts them.
    const std::vector<double> pivots = runner.run(
        "pivot-select", 8,
        [&] {
          std::vector<std::vector<double>> cands(up);
          std::vector<std::uint64_t> sent(up, 0);
          rs.for_each_rank([&](int r) {
            const auto ur = static_cast<std::size_t>(r);
            std::vector<double> keys;
            keys.reserve(cur[ur].size());
            for (const RankedRef& item : cur[ur]) keys.push_back(item.rank);
            cands[ur] = regular_samples(keys, up - 1);
            if (r != 0) sent[ur] = keys_wire_size(cands[ur].size());
          });
          rs.add_leg(CommPattern::Gather, sent);
          std::vector<double> chosen;
          rs.at_root([&] {
            std::vector<double> all;
            for (const auto& c : cands)
              all.insert(all.end(), c.begin(), c.end());
            chosen = choose_pivots(std::move(all), p);
          });
          const std::uint64_t bcast = keys_wire_size(chosen.size()) * (up - 1);
          rs.add_leg(CommPattern::Broadcast, {&bcast, 1});
          return chosen;
        },
        stage::write_doubles, stage::read_doubles);

    // Step 10: bucket the local sequences and redistribute all-to-all.
    buckets = runner.run(
        "redistribute", 10,
        [&] {
          // send[src][dst], in src-local order — the deterministic
          // equivalent of the personalized all-to-all's per-destination
          // messages.
          std::vector<RankedPartition> send(up, RankedPartition(up));
          std::vector<std::uint64_t> sent(up, 0);
          rs.for_each_rank([&](int r) {
            const auto ur = static_cast<std::size_t>(r);
            // Each of the p-1 outgoing messages opens with its item count;
            // an item travels as (u64 index, f64 rank, sequence).
            sent[ur] = kCountBytes * (up - 1);
            for (const RankedRef& item : cur[ur]) {
              const std::size_t d = bucket_of(item.rank, pivots);
              if (d != ur)
                sent[ur] += kIndexBytes + kKeyBytes +
                            par::wire_size(seqs[item.index]);
              send[ur][d].push_back(item);
            }
          });
          rs.add_leg(CommPattern::AllToAll, sent);
          RankedPartition out(up);
          rs.for_each_rank([&](int d) {
            const auto ud = static_cast<std::size_t>(d);
            for (std::size_t src = 0; src < up; ++src)
              out[ud].insert(out[ud].end(), send[src][ud].begin(),
                             send[src][ud].end());
            sort_refs(out[ud]);
          });
          return out;
        },
        stage::write_ranked_partition, stage::read_ranked_partition);
  }

  // Step 11: sequential MSA on the bucket.
  std::vector<Alignment> locals = runner.run(
      "bucket-align", 11,
      [&] {
        std::vector<Alignment> out(up);
        rs.for_each_rank([&](int r) {
          const auto ur = static_cast<std::size_t>(r);
          const std::vector<Sequence> bucket_seqs = seqs_of(buckets[ur]);
          if (!bucket_seqs.empty())
            out[ur] = config_.local_aligner->align(bucket_seqs);
        });
        return out;
      },
      stage::write_alignments, stage::read_alignments);

  Alignment result;
  if (p == 1) {
    // Steps 12-15 merge p buckets on their global ancestor. A single bucket
    // needs no tweak (the paper's baseline column), so its alignment is
    // the result.
    result = std::move(locals[0]);
  } else if (config_.ancestor_refinement) {
    // Steps 12-13: local ancestors; root aligns them into the global
    // ancestor and broadcasts it.
    const Sequence ga = runner.run(
        "ancestor", 12,
        [&] {
          std::vector<Sequence> ancestors(up);
          std::vector<std::uint64_t> sent(up, 0);
          rs.for_each_rank([&](int r) {
            const auto ur = static_cast<std::size_t>(r);
            const Alignment& local_aln = locals[ur];
            ancestors[ur] =
                Sequence("ancestor_" + std::to_string(r),
                         std::vector<std::uint8_t>{},
                         local_aln.empty() ? bio::AlphabetKind::AminoAcid
                                           : local_aln.alphabet_kind());
            if (!local_aln.empty())
              ancestors[ur] = msa::consensus_sequence(
                  local_aln, "ancestor_" + std::to_string(r), consensus);
            if (r != 0) sent[ur] = par::wire_size(ancestors[ur]);
          });
          rs.add_leg(CommPattern::Gather, sent);
          Sequence global("global_ancestor", std::vector<std::uint8_t>{},
                          bio::AlphabetKind::AminoAcid);
          rs.at_root([&] {
            std::vector<Sequence> present;
            for (const Sequence& a : ancestors)
              if (!a.empty()) present.push_back(a);
            if (present.size() == 1) {
              global = Sequence("global_ancestor",
                                std::vector<std::uint8_t>(
                                    present[0].codes().begin(),
                                    present[0].codes().end()),
                                present[0].alphabet_kind());
            } else if (!present.empty()) {
              const Alignment anc_aln = config_.local_aligner->align(present);
              global = msa::consensus_sequence(anc_aln, "global_ancestor",
                                               consensus);
            }
          });
          const std::uint64_t bcast = par::wire_size(global) * (up - 1);
          rs.add_leg(CommPattern::Broadcast, {&bcast, 1});
          return global;
        },
        par::write_sequence, par::read_sequence);

    // Step 14: tweak — profile-profile align the local alignment against
    // the global-ancestor profile.
    const std::vector<std::vector<EditOp>> paths = runner.run(
        "tweak", 14,
        [&] {
          std::vector<std::vector<EditOp>> out(up);
          rs.for_each_rank([&](int r) {
            const auto ur = static_cast<std::size_t>(r);
            const Alignment& local_aln = locals[ur];
            if (!local_aln.empty()) {
              const msa::Profile pl(local_aln, matrix);
              if (ga.empty()) {
                out[ur].assign(local_aln.num_cols(), EditOp::GapInB);
              } else {
                const msa::Profile pg(Alignment::from_sequence(ga), matrix);
                msa::ProfileAlignOptions po;
                po.gaps = matrix.default_gaps();
                out[ur] = msa::align_profiles(pl, pg, po).ops;
              }
            } else if (!ga.empty()) {
              out[ur].assign(ga.size(), EditOp::GapInA);
            }
          });
          return out;
        },
        stage::write_paths, stage::read_paths);

    // Step 15: glue at the root on the shared ancestor coordinates.
    result = runner.run(
        "glue", 15,
        [&] {
          std::vector<std::uint64_t> sent(up, 0);
          rs.for_each_rank([&](int r) {
            const auto ur = static_cast<std::size_t>(r);
            if (r != 0)
              sent[ur] = par::wire_size(locals[ur]) + ops_wire_size(paths[ur]);
          });
          rs.add_leg(CommPattern::Gather, sent);
          Alignment reordered;
          rs.at_root([&] {
            const Alignment glued = glue_on_ancestor(
                locals, paths, ga.size(), seqs[0].alphabet_kind());
            reordered = msa::in_input_order(glued, seqs);
          });
          return reordered;
        },
        par::write_alignment, par::read_alignment);
  } else {
    // Ablation: no ancestor constraint — gather raw bucket alignments and
    // concatenate block-diagonally.
    result = runner.run(
        "glue", 15,
        [&] {
          std::vector<std::uint64_t> sent(up, 0);
          rs.for_each_rank([&](int r) {
            const auto ur = static_cast<std::size_t>(r);
            if (r != 0) sent[ur] = par::wire_size(locals[ur]);
          });
          rs.add_leg(CommPattern::Gather, sent);
          Alignment reordered;
          rs.at_root([&] {
            const Alignment glued =
                glue_block_diagonal(locals, seqs[0].alphabet_kind());
            reordered = msa::in_input_order(glued, seqs);
          });
          return reordered;
        },
        par::write_alignment, par::read_alignment);
  }

  // Future-work refinement (paper §5): root-side re-alignment of the most
  // divergent rows against the global profile.
  if (config_.polish_divergent && result.num_rows() >= 3) {
    result = runner.run(
        "polish", 0,
        [&] {
          Alignment a;
          rs.at_root([&] {
            a = result;
            (void)msa::polish_divergent_rows(a, matrix, config_.polish);
          });
          return a;
        },
        par::write_alignment, par::read_alignment);
  }

  if (stats) {
    *stats = PipelineStats{};
    stats->num_procs = p;
    stats->threads = config_.threads;
    stats->num_sequences = n;
    stats->stages = rs.take_stages();
    for (const auto& bucket : buckets)
      stats->bucket_sizes.push_back(bucket.size());
    stats->wall_seconds = wall.seconds();
    if (config_.use_artifact_cache) {
      const auto& cache = util::ArtifactCache::process_cache();
      stats->cache_note = util::cache_summary(cache.stats(), cache.capacity());
    }
    stats->quarantine_notes = ctx.quarantine_notes();
  }

  result.validate();
  return result;
}

}  // namespace salign::core
