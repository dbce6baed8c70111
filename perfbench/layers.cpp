#include "layers.hpp"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "core/sample_align_d.hpp"
#include "kmer/kmer_rank.hpp"
#include "msa/guide_tree.hpp"
#include "msa/progressive.hpp"
#include "report.hpp"

namespace perfbench {

namespace {

salign::msa::MuscleOptions default_options(unsigned threads) {
  // What SampleAlignD builds when no local_aligner is given; phase_stats
  // and the trace-cell budget never change the output.
  salign::msa::MuscleOptions o;
  o.threads = threads;
  return o;
}

/// Runs `fn` under a span named `name` and returns its wall seconds.
template <typename Fn>
double timed(Tracer& tracer, const char* name, int parent, int request,
             Fn&& fn) {
  const double t0 = now_s();
  {
    ScopedSpan span(&tracer, name, parent, request);
    fn();
  }
  return now_s() - t0;
}

}  // namespace

TracingAligner::TracingAligner(unsigned threads, Tracer& tracer)
    : inner_(default_options(threads)), tracer_(tracer) {}

salign::msa::Alignment TracingAligner::align(
    std::span<const salign::bio::Sequence> seqs) const {
  std::vector<salign::bio::Sequence> copy(seqs.begin(), seqs.end());
  int parent = -1;
  int request = -1;
  {
    std::lock_guard lk(mu_);
    parent = parent_;
    request = request_;
  }
  ScopedSpan span(&tracer_, "msa.align", parent, request);
  {
    std::lock_guard lk(mu_);
    calls_.push_back(Call{std::move(copy), span.id()});
  }
  return inner_.align(seqs);
}

void TracingAligner::set_parent(int parent, int request) {
  std::lock_guard lk(mu_);
  parent_ = parent;
  request_ = request;
}

std::vector<TracingAligner::Call> TracingAligner::take_calls() {
  std::lock_guard lk(mu_);
  return std::exchange(calls_, {});
}

std::string traced_align(const salign::core::SampleAlignDConfig& base,
                         std::span<const salign::bio::Sequence> seqs,
                         const std::string& untraced, Tracer& tracer,
                         int request, LayerTotals& totals) {
  const auto aligner = std::make_shared<TracingAligner>(base.threads, tracer);
  salign::core::SampleAlignDConfig cfg = base;
  cfg.local_aligner = aligner;

  const int core_id = tracer.reserve();
  aligner->set_parent(core_id, request);
  salign::core::PipelineStats stats;
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  const salign::msa::Alignment aln =
      salign::core::SampleAlignD(cfg).align(seqs, &stats);
  const double t1 = now_s();
  const double cpu1 = process_cpu_s();
  tracer.finish(core_id, "core.align", t0, t1, -1, request);
  totals.traced_wall_s += t1 - t0;
  totals.traced_cpu_s += cpu1 - cpu0;
  totals.wire_bytes += static_cast<double>(stats.total_bytes());
  const std::string defect =
      fasta_text(aln) == untraced ? "" : "traced output differs from untraced";

  // Child spans of this pipeline call, and which of them were buckets (the
  // root's ancestor alignment is the one call whose rows are not inputs).
  const std::vector<TracingAligner::Call> calls = aligner->take_calls();
  std::vector<Span> children;
  for (const Span& s : tracer.spans())
    if (s.parent == core_id && s.name == "msa.align") children.push_back(s);
  const Span core{"core.align", t0, t1, core_id, -1, request, 0};
  totals.core_self_s += self_time(core, children);

  std::unordered_set<std::string> input_ids;
  for (const auto& s : seqs) input_ids.insert(s.id());
  std::size_t largest_bucket = 0;
  double first_end = 0.0;
  double last_end = 0.0;
  bool any_bucket = false;
  for (const auto& call : calls) {
    const auto it = std::find_if(children.begin(), children.end(),
                                 [&](const Span& s) { return s.id == call.span; });
    if (it == children.end()) continue;
    totals.align_calls += 1;
    totals.bucket_align_s += it->duration();
    totals.bucket_align_max_s = std::max(totals.bucket_align_max_s, it->duration());
    if (call.seqs.empty() || input_ids.count(call.seqs.front().id()) == 0)
      continue;
    largest_bucket = std::max(largest_bucket, call.seqs.size());
    first_end = any_bucket ? std::min(first_end, it->end) : it->end;
    last_end = any_bucket ? std::max(last_end, it->end) : it->end;
    any_bucket = true;
  }
  const double p = static_cast<double>(cfg.num_procs);
  totals.load_factors.push_back(static_cast<double>(largest_bucket) /
                                (static_cast<double>(seqs.size()) / p));
  totals.straggler_wait_s += last_end - first_end;

  // Standalone layer calls on the captured inputs.
  const int replay = tracer.reserve();
  const double r0 = now_s();
  const salign::msa::MuscleOptions mo = default_options(cfg.threads);
  const auto& matrix = salign::bio::SubstitutionMatrix::blosum62();
  for (const auto& call : calls) {
    if (call.seqs.size() < 2) continue;
    const double n = static_cast<double>(call.seqs.size());
    totals.kmer_pairs += n * (n - 1.0) / 2.0;
    salign::util::SymmetricMatrix<double> d;
    totals.kmer_distance_s += timed(tracer, "kmer.distance", replay, request, [&] {
      d = salign::kmer::distance_matrix(call.seqs, mo.kmer);
    });
    std::optional<salign::msa::GuideTree> tree;
    totals.guide_tree_s += timed(tracer, "msa.guide_tree", replay, request, [&] {
      tree = salign::msa::GuideTree::upgma(d);
    });
    salign::msa::ProgressiveOptions po;
    po.gaps = matrix.default_gaps();
    po.weights = tree->leaf_weights();
    po.threads = mo.threads;
    totals.progressive_s += timed(tracer, "msa.progressive", replay, request, [&] {
      (void)salign::msa::progressive_align(call.seqs, *tree, matrix, po);
    });
  }
  // The pipeline's step 2: each rank ranks its contiguous block of
  // ceil(N/p) inputs; the slowest block is on the critical path.
  if (cfg.num_procs > 1) {
    const std::size_t up = static_cast<std::size_t>(cfg.num_procs);
    const std::size_t chunk = (seqs.size() + up - 1) / up;
    double slowest = 0.0;
    for (std::size_t b = 0; b * chunk < seqs.size(); ++b) {
      const auto block = seqs.subspan(b * chunk, std::min(chunk, seqs.size() - b * chunk));
      slowest = std::max(slowest, timed(tracer, "kmer.rank", replay, request, [&] {
        (void)salign::kmer::centralized_ranks(block, cfg.kmer);
      }));
    }
    totals.kmer_rank_s += slowest;
  }
  tracer.finish(replay, "layers.replay", r0, now_s(), -1, request);
  return defect;
}

}  // namespace perfbench
