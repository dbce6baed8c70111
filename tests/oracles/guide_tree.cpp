// Retained UPGMA oracle.
//
// Not on any production path and not part of libsalign: it builds into
// the tests-only salign_test_oracles library. This is the construction
// GuideTree::upgma ran before it worked inside its input triangle: an
// n x n float square copy of the distances, retired slots skipped by an
// active flag, and cached nearest neighbours refreshed after each merge.
// The in-place build must produce the same nodes, heights and lengths.

#include "oracles/guide_tree.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace salign::msa::reference {

UpgmaNodes upgma(const util::SymmetricMatrix<double>& distances) {
  if (distances.size() == 0)
    throw std::invalid_argument("reference::upgma: empty matrix");
  const std::size_t n = distances.size();
  UpgmaNodes tree;
  tree.nodes.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    tree.nodes[i].leaf_index = static_cast<int>(i);
  if (n == 1) {
    tree.root = 0;
    return tree;
  }

  // Slot-reuse storage: slot s holds an active cluster whose node id is
  // slot_node[s]; a merge writes the new cluster into the lower slot and
  // retires the higher one. Nearest-neighbour caching makes the whole
  // construction ~O(n^2) in practice (Murtagh 1984), which matters because
  // every Sample-Align-D bucket builds one of these trees.
  util::Matrix<float> d(n, n, 0.0F);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) {
      const auto v = static_cast<float>(distances(i, j));
      d(i, j) = v;
      d(j, i) = v;
    }

  std::vector<int> slot_node(n);
  for (std::size_t s = 0; s < n; ++s) slot_node[s] = static_cast<int>(s);
  // Byte flags, not std::vector<bool>: the scans below test one per slot.
  std::vector<std::uint8_t> active(n, 1);
  std::vector<double> csize(n, 1.0);
  std::vector<std::size_t> nn(n, 0);
  std::vector<float> nnd(n, 0.0F);

  // Every scan reads whole rows through a row pointer; the only strided
  // access left is the column half of the merged cluster's write.
  auto recompute_nn = [&](std::size_t s) {
    const float* row = &d(s, 0);
    float best = std::numeric_limits<float>::infinity();
    std::size_t arg = s;
    for (std::size_t t = 0; t < n; ++t) {
      if (t == s || !active[t]) continue;
      if (row[t] < best) {
        best = row[t];
        arg = t;
      }
    }
    nn[s] = arg;
    nnd[s] = best;
  };
  for (std::size_t s = 0; s < n; ++s) recompute_nn(s);

  std::size_t remaining = n;
  while (remaining > 1) {
    // Global arg-min over cached nearest neighbours (lowest slot on ties).
    float best = std::numeric_limits<float>::infinity();
    std::size_t sa = 0;
    for (std::size_t s = 0; s < n; ++s)
      if (active[s] && nnd[s] < best) {
        best = nnd[s];
        sa = s;
      }
    std::size_t sb = nn[sa];
    if (sb < sa) std::swap(sa, sb);

    const int a = slot_node[sa];
    const int b = slot_node[sb];
    const double na = csize[sa];
    const double nb = csize[sb];

    TreeNode parent;
    parent.left = a;
    parent.right = b;
    parent.height = static_cast<double>(d(sa, sb)) / 2.0;
    parent.left_length = std::max(
        0.0, parent.height - tree.nodes[static_cast<std::size_t>(a)].height);
    parent.right_length = std::max(
        0.0, parent.height - tree.nodes[static_cast<std::size_t>(b)].height);
    const int pid = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back(parent);
    tree.nodes[static_cast<std::size_t>(a)].parent = pid;
    tree.nodes[static_cast<std::size_t>(b)].parent = pid;

    // Average-linkage distances for the merged cluster, written into sa.
    active[sb] = 0;
    --remaining;
    float* row_a = &d(sa, 0);
    const float* row_b = &d(sb, 0);
    for (std::size_t t = 0; t < n; ++t) {
      if (!active[t] || t == sa) continue;
      const auto v = static_cast<float>(
          (na * static_cast<double>(row_a[t]) +
           nb * static_cast<double>(row_b[t])) /
          (na + nb));
      row_a[t] = v;
      d(t, sa) = v;
    }
    slot_node[sa] = pid;
    csize[sa] = na + nb;

    if (remaining == 1) {
      tree.root = pid;
      break;
    }

    // Refresh caches: the merged slot from scratch; any slot whose cached
    // neighbour was sa or sb from scratch; others only improve via sa.
    recompute_nn(sa);
    for (std::size_t t = 0; t < n; ++t) {
      if (!active[t] || t == sa) continue;
      if (nn[t] == sa || nn[t] == sb) {
        recompute_nn(t);
      } else if (row_a[t] < nnd[t]) {
        nn[t] = sa;
        nnd[t] = row_a[t];
      }
    }
  }

  return tree;
}

}  // namespace salign::msa::reference
