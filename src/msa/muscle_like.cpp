#include "msa/muscle_like.hpp"

#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "align/distance.hpp"
#include "bio/content_hash.hpp"
#include "kmer/kmer_rank.hpp"
#include "msa/guide_tree.hpp"
#include "msa/induced_identity.hpp"
#include "msa/msa_serialize.hpp"
#include "msa/phase_log.hpp"
#include "msa/progressive.hpp"
#include "msa/refinement.hpp"
#include "par/serialize.hpp"
#include "util/artifact_cache.hpp"

namespace salign::msa {

namespace {

/// row_of_leaf map for refinement after reordering to input order: leaf i of
/// the tree is sequence i, which is row i.
std::vector<std::size_t> identity_rows(std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

/// Artifact-cache plumbing of one aligner run: phase keys derive from the
/// run's base digest (aligner config + matrix + input set), so intermediate
/// artifacts of runs over the same bucket are shared process-wide while runs
/// that could differ in any output-relevant way never collide.
struct PhaseCache {
  bool enabled = false;
  util::Digest128 base{};
  util::ArtifactCache* cache = nullptr;

  [[nodiscard]] util::Digest128 key(std::string_view tag) const {
    util::StableHash h;
    h.u64(base.hi);
    h.u64(base.lo);
    h.str(tag);
    return h.digest128();
  }

  /// Serves `tag` from the cache (decoding with `read`) or computes, encodes
  /// with `write` and stores. Cache hits decode the exact bytes a cold run
  /// stored, so both paths yield bit-identical values.
  ///
  /// The cache is an optimization, never a correctness input, so every
  /// cache failure degrades instead of propagating: a lookup failure (or a
  /// blob that won't decode) is a miss and the phase recomputes; an insert
  /// failure just means the value isn't shared. Only compute() errors
  /// escape. The fault-matrix tests drive this via the cache.lookup /
  /// cache.insert injection sites.
  template <typename Compute, typename Write, typename Read>
  auto get(const char* tag, Compute&& compute, Write&& write,
           Read&& read) const -> decltype(compute()) {
    ScopedPhase phase(tag);
    if (!enabled) return compute();
    const util::Digest128 k = key(tag);
    try {
      if (const util::ArtifactCache::Blob blob = cache->get(k)) {
        par::ByteReader r{std::span<const std::uint8_t>(*blob)};
        auto value = read(r);
        phase.hit();
        return value;
      }
    } catch (const std::exception&) {
      // fall through: recompute
    }
    auto value = compute();
    par::ByteWriter w;
    write(w, value);
    try {
      cache->put(k, w.take());
    } catch (const std::exception&) {
      // not cached this time; the computed value is still correct
    }
    return value;
  }
};

}  // namespace

MuscleAligner::MuscleAligner(MuscleOptions options,
                             const bio::SubstitutionMatrix& matrix)
    : options_(options), matrix_(&matrix) {}

std::string MuscleAligner::name() const {
  std::string n = "MiniMuscle";
  if (options_.stage1_distance == MuscleOptions::GuideTree::kScore)
    n += "+score-tree";
  if (options_.refine_passes > 0) n += "+refine";
  return n;
}

void MuscleAligner::hash_config(util::StableHash& h) const {
  h.str("salign.muscle.v1");
  h.u8(static_cast<std::uint8_t>(options_.stage1_distance));
  // The k-mer parameters are constant, but stay in the hash so artifact
  // cache keys do not move.
  h.u32(static_cast<std::uint32_t>(MuscleOptions::kmer.k));
  h.u8(MuscleOptions::kmer.compressed ? 1 : 0);
  h.u8(options_.reestimate_tree ? 1 : 0);
  h.u32(static_cast<std::uint32_t>(options_.refine_passes));
  bio::hash_matrix(h, *matrix_);
}

Alignment MuscleAligner::align(std::span<const bio::Sequence> seqs) const {
  if (seqs.empty()) throw std::invalid_argument("MuscleAligner: no sequences");
  if (seqs.size() == 1) return Alignment::from_sequence(seqs[0]);

  {
    std::unordered_map<std::string, int> ids;
    for (const auto& s : seqs)
      if (++ids[s.id()] > 1)
        throw std::invalid_argument("MuscleAligner: duplicate id " + s.id());
  }

  PhaseCache pc;
  pc.enabled = options_.use_artifact_cache;
  if (pc.enabled) {
    util::StableHash h;
    hash_config(h);
    const util::Digest128 in = bio::sequence_set_hash(seqs);
    h.u64(in.hi);
    h.u64(in.lo);
    pc.base = h.digest128();
    pc.cache = &util::ArtifactCache::process_cache();
  }

  // Stage 1: k-mer (or engine score) distances -> UPGMA -> progressive.
  // Each distance matrix moves into its tree, which is built inside it: at
  // large N they are the biggest allocations of the run.
  GuideTree tree = [&] {
    util::SymmetricMatrix<double> kd = pc.get(
        "stage1 distance matrix",
        [&] {
          if (options_.stage1_distance == MuscleOptions::GuideTree::kScore) {
            align::ScoreDistanceOptions sdo;
            sdo.threads = options_.threads;
            return align::score_distance_matrix(seqs, *matrix_,
                                                matrix_->default_gaps(), sdo);
          }
          return kmer::distance_matrix(seqs, MuscleOptions::kmer,
                                       options_.threads);
        },
        write_distance_matrix, read_distance_matrix);
    return pc.get("stage1 guide tree",
                  [&] { return GuideTree::upgma(std::move(kd)); },
                  write_guide_tree, read_guide_tree);
  }();
  ProgressiveOptions po;
  po.gaps = matrix_->default_gaps();
  po.weights = tree.leaf_weights();
  po.threads = options_.threads;
  // Stage 1's merge paths, which stage 2 replays wherever it proves a
  // merge's inputs unchanged (progressive_realign).
  MergeRecord record;
  Alignment aln = [&] {
    ScopedPhase phase("stage1 progressive");
    return progressive_align(seqs, tree, *matrix_, po,
                             options_.reestimate_tree ? &record : nullptr);
  }();

  // Stage 2: Kimura distances from the stage-1 alignment, rebuilt tree,
  // re-aligned.
  if (options_.reestimate_tree) {
    aln = in_input_order(aln, seqs);
    record.tree = std::move(tree);
    record.weights = std::move(po.weights);
    tree = [&] {
      util::SymmetricMatrix<double> kim = pc.get(
          "stage2 distance matrix",
          [&] { return induced_kimura_distances(aln, options_.threads); },
          write_distance_matrix, read_distance_matrix);
      return pc.get("stage2 guide tree",
                    [&] { return GuideTree::upgma(std::move(kim)); },
                    write_guide_tree, read_guide_tree);
    }();
    po.weights = tree.leaf_weights();
    {
      ScopedPhase phase("stage2 progressive");
      aln = progressive_realign(seqs, tree, *matrix_, po, record);
    }
    record = MergeRecord{};
  }

  aln = in_input_order(aln, seqs);

  // Stage 3: optional refinement (rows are in input order == leaf order).
  if (options_.refine_passes > 0) {
    ScopedPhase phase("refine");
    RefineOptions ro;
    ro.passes = options_.refine_passes;
    ro.gaps = matrix_->default_gaps();
    const auto rows = identity_rows(seqs.size());
    std::vector<double> weights = tree.leaf_weights();
    refine(aln, tree, rows, *matrix_, ro, weights);
  }

  aln.validate();
  return aln;
}

std::shared_ptr<const MsaAlgorithm> make_default_aligner(unsigned threads) {
  MuscleOptions o;
  o.threads = threads;
  return std::make_shared<MuscleAligner>(o);
}

}  // namespace salign::msa
