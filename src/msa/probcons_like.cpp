#include "msa/probcons_like.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "align/distance.hpp"
#include "msa/guide_tree.hpp"
#include "msa/pairhmm.hpp"
#include "msa/profile_align.hpp"
#include "msa/tree_schedule.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace salign::msa {

namespace {

using align::EditOp;
using bio::Sequence;

/// Pair-HMM parameters (transitions, emission temperature, sparsity).
constexpr PairHmmParams kHmm{};
/// Seed of the deterministic bipartition choice of the refinement stage.
constexpr std::uint64_t kRefineSeed = 11;

/// Ordered-pair table of sparse posteriors: post(x, y) has |x| rows and
/// |y| columns; the diagonal is unused.
class PosteriorTable {
 public:
  explicit PosteriorTable(std::size_t n) : n_(n), table_(n * n) {}

  [[nodiscard]] const SparsePosterior& at(std::size_t x, std::size_t y) const {
    return table_[x * n_ + y];
  }
  SparsePosterior& at(std::size_t x, std::size_t y) {
    return table_[x * n_ + y];
  }

  [[nodiscard]] std::size_t size() const { return n_; }

 private:
  std::size_t n_;
  std::vector<SparsePosterior> table_;
};

/// One round of ProbCons's probabilistic consistency transform:
/// P'(x,y) = (1/N) [ 2 P(x,y) + Σ_{z≠x,y} P(x,z)·P(z,y) ]   (P(x,x) = I).
PosteriorTable relax(const PosteriorTable& in, double cutoff) {
  const std::size_t n = in.size();
  PosteriorTable out(n);
  std::vector<float> acc;
  std::vector<std::uint32_t> touched;
  std::vector<SparsePosterior::Entry> row;

  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = x + 1; y < n; ++y) {
      const SparsePosterior& pxy = in.at(x, y);
      SparsePosterior fresh(pxy.rows(), pxy.cols());
      acc.assign(pxy.cols(), 0.0F);
      const auto inv_n = static_cast<float>(1.0 / static_cast<double>(n));

      for (std::size_t i = 0; i < pxy.rows(); ++i) {
        touched.clear();
        // z == x and z == y each contribute the identity product P(x,y).
        for (const auto& e : pxy.row(i)) {
          if (acc[e.col] == 0.0F) touched.push_back(e.col);
          acc[e.col] += 2.0F * e.prob;
        }
        // Intermediate sequences.
        for (std::size_t z = 0; z < n; ++z) {
          if (z == x || z == y) continue;
          const SparsePosterior& pxz = in.at(x, z);
          const SparsePosterior& pzy = in.at(z, y);
          for (const auto& exz : pxz.row(i)) {
            for (const auto& ezy : pzy.row(exz.col)) {
              if (acc[ezy.col] == 0.0F) touched.push_back(ezy.col);
              acc[ezy.col] += exz.prob * ezy.prob;
            }
          }
        }
        std::sort(touched.begin(), touched.end());
        row.clear();
        for (std::uint32_t c : touched) {
          const float p = acc[c] * inv_n;
          if (p > static_cast<float>(cutoff))
            row.push_back(SparsePosterior::Entry{c, std::min(p, 1.0F)});
          acc[c] = 0.0F;
        }
        fresh.append_row(row);
      }
      out.at(y, x) = fresh.transposed();
      out.at(x, y) = std::move(fresh);
    }
  }
  return out;
}

/// column -> residue index of each row (SIZE_MAX on gap columns).
std::vector<std::vector<std::size_t>> residue_maps(const Alignment& aln) {
  std::vector<std::vector<std::size_t>> maps(aln.num_rows());
  for (std::size_t r = 0; r < aln.num_rows(); ++r) {
    maps[r].assign(aln.num_cols(), static_cast<std::size_t>(-1));
    std::size_t next = 0;
    for (std::size_t c = 0; c < aln.num_cols(); ++c)
      if (!aln.is_gap(r, c)) maps[r][c] = next++;
  }
  return maps;
}

/// Aligns two group alignments by the maximum-expected-accuracy objective:
/// the column-pair score is the sum of posteriors between the residues the
/// columns carry, and gap moves are free.
std::vector<EditOp> mea_merge_path(const Alignment& a, const Alignment& b,
                                   std::span<const std::size_t> rows_a,
                                   std::span<const std::size_t> rows_b,
                                   const PosteriorTable& post) {
  const std::size_t m = a.num_cols();
  const std::size_t n = b.num_cols();
  const auto maps_a = residue_maps(a);
  const auto maps_b = residue_maps(b);

  // Residue index -> column of its group alignment.
  auto col_of = [](const std::vector<std::size_t>& map, std::size_t cols) {
    std::vector<std::uint32_t> inv;
    inv.reserve(cols);
    for (std::size_t c = 0; c < cols; ++c)
      if (map[c] != static_cast<std::size_t>(-1))
        inv.push_back(static_cast<std::uint32_t>(c));
    return inv;
  };

  util::Matrix<float> score(m, n, 0.0F);
  for (std::size_t ra = 0; ra < rows_a.size(); ++ra) {
    const std::vector<std::uint32_t> ca = col_of(maps_a[ra], m);
    for (std::size_t rb = 0; rb < rows_b.size(); ++rb) {
      const std::vector<std::uint32_t> cb = col_of(maps_b[rb], n);
      const SparsePosterior& p = post.at(rows_a[ra], rows_b[rb]);
      for (std::size_t i = 0; i < ca.size(); ++i)
        for (const auto& e : p.row(i)) score(ca[i], cb[e.col]) += e.prob;
    }
  }

  // Max-sum DP with free gaps (the MEA objective).
  util::Matrix<float> dp(m + 1, n + 1, 0.0F);
  util::Matrix<std::uint8_t> from(m + 1, n + 1, 0);  // 0=diag 1=up 2=left
  for (std::size_t i = 1; i <= m; ++i)
    from(i, 0) = 1;
  for (std::size_t j = 1; j <= n; ++j)
    from(0, j) = 2;
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      float best = dp(i - 1, j - 1) + score(i - 1, j - 1);
      std::uint8_t dir = 0;
      if (dp(i - 1, j) > best) {
        best = dp(i - 1, j);
        dir = 1;
      }
      if (dp(i, j - 1) > best) {
        best = dp(i, j - 1);
        dir = 2;
      }
      dp(i, j) = best;
      from(i, j) = dir;
    }
  }

  std::vector<EditOp> ops;
  std::size_t i = m;
  std::size_t j = n;
  while (i > 0 || j > 0) {
    switch (from(i, j)) {
      case 0:
        ops.push_back(EditOp::Match);
        --i;
        --j;
        break;
      case 1:
        ops.push_back(EditOp::GapInB);
        --i;
        break;
      default:
        ops.push_back(EditOp::GapInA);
        --j;
        break;
    }
  }
  std::reverse(ops.begin(), ops.end());
  return ops;
}

}  // namespace

ProbConsAligner::ProbConsAligner(ProbConsOptions options,
                                 const bio::SubstitutionMatrix& matrix)
    : options_(std::move(options)), matrix_(&matrix) {
  if (options_.consistency_reps < 0 || options_.refine_passes < 0)
    throw std::invalid_argument("ProbConsAligner: negative repetition count");
}

Alignment ProbConsAligner::align(std::span<const Sequence> seqs) const {
  if (seqs.empty())
    throw std::invalid_argument("ProbConsAligner: no sequences");
  check_consistency_cap("ProbConsAligner", seqs.size());
  for (const Sequence& s : seqs)
    if (s.empty())
      throw std::invalid_argument("ProbConsAligner: empty sequence " + s.id());
  if (seqs.size() == 1) return Alignment::from_sequence(seqs[0]);

  const std::size_t n = seqs.size();
  const PairHmm hmm(*matrix_, kHmm);

  // Stage 1: pairwise posteriors (and expected-accuracy distances) — the
  // heavy O(N^2 L^2) distance pass, threaded through the shared all-pairs
  // driver. Every pair writes only its own (preallocated) posterior slots
  // and distance cell, so the result is bit-identical for any thread
  // count.
  PosteriorTable post(n);
  util::SymmetricMatrix<double> dist = align::pairwise_distance_matrix(
      n, options_.threads, [&](std::size_t y, std::size_t x) {  // x < y
        SparsePosterior p = hmm.posterior(seqs[x], seqs[y]);
        const MeaResult mea = PairHmm::mea_align(p);
        post.at(y, x) = p.transposed();
        post.at(x, y) = std::move(p);
        return 1.0 - mea.expected_accuracy;
      });

  // Stage 2: guide tree from expected-accuracy distances.
  const GuideTree tree = GuideTree::upgma(std::move(dist));

  // Stage 3: consistency transform.
  for (int rep = 0; rep < options_.consistency_reps; ++rep)
    post = relax(post, kHmm.posterior_cutoff);

  // Stage 4: progressive MEA alignment along the tree. Merges of
  // independent subtrees run concurrently (the posterior table is read-only
  // by now); each task writes only its own node's slots, so the result is
  // bit-identical for every thread count.
  std::vector<Alignment> node_aln(tree.num_nodes());
  std::vector<std::vector<std::size_t>> node_rows(tree.num_nodes());
  schedule_tree(tree, options_.threads, [&](int idx) {
    const auto u = static_cast<std::size_t>(idx);
    const TreeNode& node = tree.node(u);
    if (tree.is_leaf(u)) {
      node_aln[u] = Alignment::from_sequence(
          seqs[static_cast<std::size_t>(node.leaf_index)]);
      node_rows[u] = {static_cast<std::size_t>(node.leaf_index)};
      return;
    }
    const auto l = static_cast<std::size_t>(node.left);
    const auto r = static_cast<std::size_t>(node.right);
    const std::vector<EditOp> ops = mea_merge_path(
        node_aln[l], node_aln[r], node_rows[l], node_rows[r], post);
    node_aln[u] = merge_alignments(node_aln[l], node_aln[r], ops);
    node_rows[u] = node_rows[l];
    node_rows[u].insert(node_rows[u].end(), node_rows[r].begin(),
                        node_rows[r].end());
    node_aln[l] = Alignment();
    node_aln[r] = Alignment();
  });
  Alignment aln = std::move(node_aln[static_cast<std::size_t>(tree.root())]);
  std::vector<std::size_t> row_seq = node_rows[static_cast<std::size_t>(
      tree.root())];  // row r carries sequence row_seq[r]

  // Stage 5: random-bipartition iterative refinement (accepted
  // unconditionally, as in ProbCons).
  util::Rng rng(kRefineSeed);
  for (int pass = 0; pass < options_.refine_passes; ++pass) {
    std::vector<std::size_t> ga;
    std::vector<std::size_t> gb;
    for (std::size_t r = 0; r < aln.num_rows(); ++r)
      (rng.chance(0.5) ? ga : gb).push_back(r);
    if (ga.empty() || gb.empty()) continue;

    Alignment part_a = aln.subset(ga);
    Alignment part_b = aln.subset(gb);
    part_a.strip_all_gap_columns();
    part_b.strip_all_gap_columns();
    std::vector<std::size_t> rows_a;
    std::vector<std::size_t> rows_b;
    for (std::size_t r : ga) rows_a.push_back(row_seq[r]);
    for (std::size_t r : gb) rows_b.push_back(row_seq[r]);

    const std::vector<EditOp> ops =
        mea_merge_path(part_a, part_b, rows_a, rows_b, post);
    aln = merge_alignments(part_a, part_b, ops);
    std::vector<std::size_t> new_row_seq = rows_a;
    new_row_seq.insert(new_row_seq.end(), rows_b.begin(), rows_b.end());
    row_seq = std::move(new_row_seq);
  }

  // Restore input row order.
  std::vector<std::size_t> perm(aln.num_rows());
  for (std::size_t r = 0; r < aln.num_rows(); ++r) perm[row_seq[r]] = r;
  Alignment out = aln.subset(perm);
  out.strip_all_gap_columns();
  out.validate();
  return out;
}

}  // namespace salign::msa
