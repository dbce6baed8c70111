#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "kmer/kmer_rank.hpp"
#include "msa/guide_tree.hpp"
#include "oracles/guide_tree.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "workload/rose.hpp"

namespace salign::msa {
namespace {

util::SymmetricMatrix<double> matrix_from(
    const std::vector<std::vector<double>>& d) {
  util::SymmetricMatrix<double> m(d.size());
  for (std::size_t i = 0; i < d.size(); ++i)
    for (std::size_t j = 0; j <= i; ++j) m(i, j) = d[i][j];
  return m;
}

// ---- UPGMA ---------------------------------------------------------------------

TEST(Upgma, SingleLeaf) {
  util::SymmetricMatrix<double> d(1);
  const GuideTree t = GuideTree::upgma(d);
  EXPECT_EQ(t.num_leaves(), 1u);
  EXPECT_EQ(t.num_nodes(), 1u);
  EXPECT_EQ(t.root(), 0);
  EXPECT_TRUE(t.is_leaf(0));
}

TEST(Upgma, TwoLeaves) {
  const auto d = matrix_from({{0}, {4, 0}});
  const GuideTree t = GuideTree::upgma(d);
  EXPECT_EQ(t.num_nodes(), 3u);
  const TreeNode& root = t.node(static_cast<std::size_t>(t.root()));
  EXPECT_DOUBLE_EQ(root.height, 2.0);
  EXPECT_DOUBLE_EQ(root.left_length, 2.0);
  EXPECT_DOUBLE_EQ(root.right_length, 2.0);
}

TEST(Upgma, JoinsClosestPairFirst) {
  // 0 and 1 are closest; they must share the first internal node.
  const auto d = matrix_from({{0}, {1, 0}, {8, 8, 0}, {8, 8, 2, 0}});
  const GuideTree t = GuideTree::upgma(d);
  const TreeNode& first = t.node(4);  // first created internal node
  const std::set<int> joined{first.left, first.right};
  EXPECT_TRUE((joined == std::set<int>{0, 1}));
}

TEST(Upgma, UltrametricHeightsMonotone) {
  util::Rng rng(7);
  const std::size_t n = 20;
  util::SymmetricMatrix<double> d(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) d(i, j) = rng.uniform(0.1, 2.0);
  const GuideTree t = GuideTree::upgma(d);
  // Parent height >= child height for all internal nodes (UPGMA invariant).
  for (std::size_t i = n; i < t.num_nodes(); ++i) {
    const TreeNode& nd = t.node(i);
    EXPECT_GE(nd.height,
              t.node(static_cast<std::size_t>(nd.left)).height - 1e-12);
    EXPECT_GE(nd.height,
              t.node(static_cast<std::size_t>(nd.right)).height - 1e-12);
    EXPECT_GE(nd.left_length, 0.0);
    EXPECT_GE(nd.right_length, 0.0);
  }
}

TEST(Upgma, RecoversUltrametricTreeExactly) {
  // Perfect ultrametric input: ((0,1):1,(2,3):2):3 style distances.
  const auto d = matrix_from({{0.0},
                              {2.0, 0.0},
                              {6.0, 6.0, 0.0},
                              {6.0, 6.0, 4.0, 0.0}});
  const GuideTree t = GuideTree::upgma(d);
  // Heights: (0,1) at 1, (2,3) at 2, root at 3.
  std::vector<double> heights;
  for (std::size_t i = t.num_leaves(); i < t.num_nodes(); ++i)
    heights.push_back(t.node(i).height);
  std::sort(heights.begin(), heights.end());
  ASSERT_EQ(heights.size(), 3u);
  EXPECT_DOUBLE_EQ(heights[0], 1.0);
  EXPECT_DOUBLE_EQ(heights[1], 2.0);
  EXPECT_DOUBLE_EQ(heights[2], 3.0);
}

TEST(Upgma, TiesJoinLowestSlotsFirst) {
  // Every distance equal: each nearest neighbour and the global arg-min
  // resolve ties to the lowest slot, so the tree is a caterpillar built in
  // input order. Guide trees (and golden digests) depend on this order.
  util::SymmetricMatrix<double> d(5);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < i; ++j) d(i, j) = 1.0;
  const GuideTree t = GuideTree::upgma(d);
  const int joined[][2] = {{0, 1}, {5, 2}, {6, 3}, {7, 4}};
  for (std::size_t k = 0; k < 4; ++k) {
    const TreeNode& node = t.node(5 + k);
    EXPECT_EQ(node.left, joined[k][0]) << "internal node " << 5 + k;
    EXPECT_EQ(node.right, joined[k][1]) << "internal node " << 5 + k;
  }
}

TEST(Upgma, EmptyMatrixThrows) {
  util::SymmetricMatrix<double> d;
  EXPECT_THROW((void)GuideTree::upgma(d), std::invalid_argument);
}

TEST(Upgma, NonFiniteDistanceThrows) {
  // Every cached neighbour distance would be +inf, and slot 0 would merge
  // with itself; the build refuses such input instead.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {inf, -inf, std::numeric_limits<double>::quiet_NaN(), 1e39}) {
    util::SymmetricMatrix<double> d(3);
    d(1, 0) = d(2, 0) = d(2, 1) = bad;
    EXPECT_THROW((void)GuideTree::upgma(d), std::invalid_argument) << bad;
  }
  // One bad entry among finite ones is named by its pair.
  util::SymmetricMatrix<double> d(4, 1.0);
  d(3, 1) = 1e39;  // finite as a double, infinite as a float
  try {
    (void)GuideTree::upgma(d);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("(3, 1)"), std::string::npos)
        << e.what();
  }
  // Of two bad entries, the first in row order is named: (2, 1) precedes
  // (3, 0), which comes first down slot 0's column.
  util::SymmetricMatrix<double> two(5, 1.0);
  two(3, 0) = 1e39;
  two(2, 1) = std::numeric_limits<double>::quiet_NaN();
  try {
    (void)GuideTree::upgma(two);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("(2, 1)"), std::string::npos) << what;
    EXPECT_EQ(what.find("(3, 0)"), std::string::npos) << what;
  }
}

// ---- UPGMA against the square-matrix oracle -------------------------------------

void expect_same_tree(const util::SymmetricMatrix<double>& d,
                      const std::string& what) {
  const reference::UpgmaNodes want = reference::upgma(d);
  const GuideTree got = GuideTree::upgma(d);
  ASSERT_EQ(got.num_nodes(), want.nodes.size()) << what;
  ASSERT_EQ(got.root(), want.root) << what;
  for (std::size_t i = 0; i < want.nodes.size(); ++i) {
    const TreeNode& g = got.node(i);
    const TreeNode& w = want.nodes[i];
    ASSERT_EQ(g.left, w.left) << what << " node " << i;
    ASSERT_EQ(g.right, w.right) << what << " node " << i;
    ASSERT_EQ(g.parent, w.parent) << what << " node " << i;
    ASSERT_EQ(g.leaf_index, w.leaf_index) << what << " node " << i;
    // Exact: both builds must do the same float arithmetic.
    ASSERT_EQ(g.height, w.height) << what << " node " << i;
    ASSERT_EQ(g.left_length, w.left_length) << what << " node " << i;
    ASSERT_EQ(g.right_length, w.right_length) << what << " node " << i;
  }
}

TEST(UpgmaDifferential, MatchesSquareOracle) {
  // Sizes straddle the first compaction steps (live count halving from 32,
  // 64, ...). Inputs are tie-heavy, as real k-mer distances are: the tree
  // depends on every tie rule and on the float rounding of each average.
  for (const std::size_t n :
       {2, 3, 31, 32, 33, 34, 63, 64, 65, 66, 129, 257, 1000}) {
    util::Rng rng(n);
    const std::string size = "n=" + std::to_string(n);

    for (int levels = 2; levels <= 4; ++levels) {
      util::SymmetricMatrix<double> d(n);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < i; ++j)
          d(i, j) = 0.25 * static_cast<double>(
                               1 + rng.below(static_cast<std::uint64_t>(levels)));
      expect_same_tree(d, size + " levels=" + std::to_string(levels));
    }

    expect_same_tree(util::SymmetricMatrix<double>(n, 0.7), size + " equal");

    // Distinct doubles that round to a few floats: only the float values
    // may decide the tree.
    util::SymmetricMatrix<double> near(n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < i; ++j) {
        const float f = 0.1F * static_cast<float>(1 + rng.below(3));
        const double ulp =
            static_cast<double>(std::nextafter(f, 1.0F)) - static_cast<double>(f);
        near(i, j) = static_cast<double>(f) + rng.uniform(-0.4, 0.4) * ulp;
      }
    expect_same_tree(near, size + " near-floats");

    const auto seqs = workload::rose_sequences(
        {.num_sequences = n, .average_length = 80, .relatedness = 700,
         .seed = n});
    expect_same_tree(kmer::distance_matrix(seqs, {}, 2), size + " k-mer");
  }
}

class TreeShapeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TreeShapeTest, StructuralInvariants) {
  const std::size_t n = GetParam();
  util::Rng rng(n);
  util::SymmetricMatrix<double> d(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) d(i, j) = rng.uniform(0.05, 3.0);

  for (const GuideTree& t :
       {GuideTree::upgma(d), GuideTree::neighbor_joining(d)}) {
    EXPECT_EQ(t.num_leaves(), n);
    EXPECT_EQ(t.num_nodes(), 2 * n - 1);
    // Every non-root node has a parent; every leaf index appears once.
    std::set<int> leaves;
    for (std::size_t i = 0; i < t.num_nodes(); ++i) {
      if (t.is_leaf(i)) leaves.insert(t.node(i).leaf_index);
      if (static_cast<int>(i) != t.root()) {
        EXPECT_GE(t.node(i).parent, 0) << "node " << i;
      }
    }
    EXPECT_EQ(leaves.size(), n);
    // Postorder covers all nodes, children before parents.
    const std::vector<int> order = t.postorder();
    EXPECT_EQ(order.size(), t.num_nodes());
    std::vector<bool> seen(t.num_nodes(), false);
    for (int id : order) {
      const TreeNode& nd = t.node(static_cast<std::size_t>(id));
      if (nd.left >= 0) {
        EXPECT_TRUE(seen[static_cast<std::size_t>(nd.left)]);
        EXPECT_TRUE(seen[static_cast<std::size_t>(nd.right)]);
      }
      seen[static_cast<std::size_t>(id)] = true;
    }
    // leaves_under at root returns all original indices.
    const std::vector<int> under = t.leaves_under(t.root());
    EXPECT_EQ(under.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(under[i], static_cast<int>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreeShapeTest,
                         ::testing::Values(2, 3, 5, 8, 17, 40));

// ---- Neighbor joining ---------------------------------------------------------

TEST(NeighborJoining, RecoversAdditiveTreeTopology) {
  // Additive tree: ((0,1),(2,3)) with internal edge. Distances:
  // d(0,1)=2, d(2,3)=2, cross pairs = 1+3+1 = 5.
  const auto d = matrix_from({{0.0},
                              {2.0, 0.0},
                              {5.0, 5.0, 0.0},
                              {5.0, 5.0, 2.0, 0.0}});
  const GuideTree t = GuideTree::neighbor_joining(d);
  // First join must be a cherry: (0,1) or (2,3).
  const TreeNode& first = t.node(4);
  const std::set<int> joined{first.left, first.right};
  EXPECT_TRUE((joined == std::set<int>{0, 1} ||
               joined == std::set<int>{2, 3}));
}

TEST(NeighborJoining, BranchLengthsNonNegative) {
  util::Rng rng(9);
  const std::size_t n = 12;
  util::SymmetricMatrix<double> d(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) d(i, j) = rng.uniform(0.1, 2.0);
  const GuideTree t = GuideTree::neighbor_joining(d);
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    EXPECT_GE(t.node(i).left_length, 0.0);
    EXPECT_GE(t.node(i).right_length, 0.0);
  }
}

// ---- leaf weights ---------------------------------------------------------------

TEST(LeafWeights, UniformForBalancedTree) {
  // Perfectly symmetric 4-leaf ultrametric tree -> equal weights.
  const auto d = matrix_from({{0.0},
                              {2.0, 0.0},
                              {4.0, 4.0, 0.0},
                              {4.0, 4.0, 2.0, 0.0}});
  const GuideTree t = GuideTree::upgma(d);
  const std::vector<double> w = t.leaf_weights();
  ASSERT_EQ(w.size(), 4u);
  for (double x : w) EXPECT_NEAR(x, 1.0, 1e-9);
}

TEST(LeafWeights, OutlierGetsHigherWeight) {
  // Leaves 0,1,2 tightly clustered; leaf 3 distant -> 3 must be weighted up
  // (CLUSTALW's point: downweight redundant near-duplicates).
  const auto d = matrix_from({{0.0},
                              {0.2, 0.0},
                              {0.2, 0.2, 0.0},
                              {3.0, 3.0, 3.0, 0.0}});
  const GuideTree t = GuideTree::upgma(d);
  const std::vector<double> w = t.leaf_weights();
  EXPECT_GT(w[3], w[0]);
  EXPECT_GT(w[3], w[1]);
  EXPECT_GT(w[3], w[2]);
  // Mean normalized to 1.
  EXPECT_NEAR((w[0] + w[1] + w[2] + w[3]) / 4.0, 1.0, 1e-9);
}

TEST(LeafWeights, DegenerateZeroDistancesFallBackToUniform) {
  util::SymmetricMatrix<double> d(5);  // all zeros
  const GuideTree t = GuideTree::upgma(d);
  const std::vector<double> w = t.leaf_weights();
  for (double x : w) EXPECT_DOUBLE_EQ(x, 1.0);
}

TEST(LeafWeights, AlwaysStrictlyPositive) {
  // Regression: NJ trees over near-degenerate distance matrices (tiny
  // groups at saturated divergence) used to hand non-positive weights to
  // Profile, which throws. Any tree's weights must be strictly positive.
  util::Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 2 + rng.below(6);
    util::SymmetricMatrix<double> d(n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < i; ++j)
        // Mix saturated (kimura cap) and tiny distances.
        d(i, j) = rng.chance(0.5) ? 5.0 : rng.uniform(0.0, 0.05);
    for (const GuideTree& t :
         {GuideTree::upgma(d), GuideTree::neighbor_joining(d)}) {
      for (const double w : t.leaf_weights())
        EXPECT_GT(w, 0.0) << "trial " << trial << " n " << n;
    }
  }
}

TEST(LeafWeights, ThreeLeafSaturatedMatrix) {
  // The exact shape that crashed the SABmark quality bench: 3 sequences,
  // all pairwise distances at the Kimura saturation cap.
  util::SymmetricMatrix<double> d(3);
  d(0, 1) = d(0, 2) = d(1, 2) = 5.0;
  const GuideTree t = GuideTree::neighbor_joining(d);
  for (const double w : t.leaf_weights()) EXPECT_GT(w, 0.0);
}

// ---- newick -----------------------------------------------------------------------

TEST(Newick, TwoLeafTree) {
  const auto d = matrix_from({{0}, {4, 0}});
  const GuideTree t = GuideTree::upgma(d);
  const std::vector<std::string> names{"a", "b"};
  const std::string nw = t.newick(names);
  EXPECT_EQ(nw, "(a:2,b:2);");
}

TEST(Newick, BalancedStructure) {
  const auto d = matrix_from({{0.0},
                              {2.0, 0.0},
                              {4.0, 4.0, 0.0},
                              {4.0, 4.0, 2.0, 0.0}});
  const GuideTree t = GuideTree::upgma(d);
  const std::vector<std::string> names{"a", "b", "c", "d"};
  const std::string nw = t.newick(names);
  // Both cherries present regardless of join order.
  EXPECT_NE(nw.find("(a:1,b:1)"), std::string::npos);
  EXPECT_NE(nw.find("(c:1,d:1)"), std::string::npos);
  EXPECT_EQ(nw.back(), ';');
}

TEST(Newick, WrongNameCountThrows) {
  const auto d = matrix_from({{0}, {4, 0}});
  const GuideTree t = GuideTree::upgma(d);
  const std::vector<std::string> names{"only"};
  EXPECT_THROW((void)t.newick(names), std::invalid_argument);
}

TEST(GuideTreeDeterminism, SameInputSameTree) {
  util::Rng rng(13);
  const std::size_t n = 15;
  util::SymmetricMatrix<double> d(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) d(i, j) = rng.uniform(0.1, 2.0);
  const GuideTree t1 = GuideTree::upgma(d);
  const GuideTree t2 = GuideTree::upgma(d);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i)
    names.push_back(util::indexed_name("s", i));
  EXPECT_EQ(t1.newick(names), t2.newick(names));
}

}  // namespace
}  // namespace salign::msa
