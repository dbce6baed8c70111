#include "msa/guide_tree.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace salign::msa {

namespace {

void check_input(const util::SymmetricMatrix<double>& d) {
  if (d.size() == 0) throw std::invalid_argument("GuideTree: empty matrix");
}

}  // namespace

GuideTree GuideTree::upgma(const util::SymmetricMatrix<double>& distances) {
  check_input(distances);
  const std::size_t n = distances.size();
  GuideTree tree;
  tree.num_leaves_ = n;
  tree.nodes_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    tree.nodes_[i].leaf_index = static_cast<int>(i);
  if (n == 1) {
    tree.root_ = 0;
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
        0.0, parent.height - tree.nodes_[static_cast<std::size_t>(a)].height);
    parent.right_length = std::max(
        0.0, parent.height - tree.nodes_[static_cast<std::size_t>(b)].height);
    const int pid = static_cast<int>(tree.nodes_.size());
    tree.nodes_.push_back(parent);
    tree.nodes_[static_cast<std::size_t>(a)].parent = pid;
    tree.nodes_[static_cast<std::size_t>(b)].parent = pid;

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
      tree.root_ = pid;
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

GuideTree GuideTree::from_nodes(std::vector<TreeNode> nodes,
                                std::size_t num_leaves, int root) {
  if (nodes.empty() || num_leaves == 0 || num_leaves > nodes.size())
    throw std::invalid_argument("GuideTree::from_nodes: bad shape");
  if (root < 0 || static_cast<std::size_t>(root) >= nodes.size())
    throw std::invalid_argument("GuideTree::from_nodes: bad root");
  const auto n = static_cast<int>(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const TreeNode& node = nodes[i];
    if (node.left >= n || node.right >= n || node.parent >= n)
      throw std::invalid_argument("GuideTree::from_nodes: bad child index");
    const bool leaf = node.left < 0;
    if (leaf != (i < num_leaves) || (leaf && node.leaf_index < 0))
      throw std::invalid_argument("GuideTree::from_nodes: bad leaf layout");
  }
  GuideTree tree;
  tree.nodes_ = std::move(nodes);
  tree.num_leaves_ = num_leaves;
  tree.root_ = root;
  return tree;
}

GuideTree GuideTree::neighbor_joining(
    const util::SymmetricMatrix<double>& distances) {
  check_input(distances);
  const std::size_t n = distances.size();
  GuideTree tree;
  tree.num_leaves_ = n;
  tree.nodes_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    tree.nodes_[i].leaf_index = static_cast<int>(i);
  if (n == 1) {
    tree.root_ = 0;
    return tree;
  }

  util::Matrix<double> d(2 * n - 1, 2 * n - 1, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) d(i, j) = d(j, i) = distances(i, j);

  std::vector<int> active;
  for (std::size_t i = 0; i < n; ++i) active.push_back(static_cast<int>(i));

  while (active.size() > 2) {
    const auto r = active.size();
    // Row sums over active set.
    std::vector<double> rowsum(r, 0.0);
    for (std::size_t x = 0; x < r; ++x)
      for (std::size_t y = 0; y < r; ++y)
        if (x != y)
          rowsum[x] += d(static_cast<std::size_t>(active[x]),
                         static_cast<std::size_t>(active[y]));

    // Minimize the NJ Q criterion, deterministic tie-break.
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0;
    std::size_t bj = 1;
    for (std::size_t x = 0; x < r; ++x)
      for (std::size_t y = x + 1; y < r; ++y) {
        const double q = (static_cast<double>(r) - 2.0) *
                             d(static_cast<std::size_t>(active[x]),
                               static_cast<std::size_t>(active[y])) -
                         rowsum[x] - rowsum[y];
        if (q < best) {
          best = q;
          bi = x;
          bj = y;
        }
      }

    const int a = active[bi];
    const int b = active[bj];
    const double dab = d(static_cast<std::size_t>(a), static_cast<std::size_t>(b));
    const double delta =
        (rowsum[bi] - rowsum[bj]) / (static_cast<double>(r) - 2.0);
    double la = 0.5 * (dab + delta);
    double lb = 0.5 * (dab - delta);
    la = std::max(0.0, la);
    lb = std::max(0.0, lb);

    TreeNode parent;
    parent.left = a;
    parent.right = b;
    parent.left_length = la;
    parent.right_length = lb;
    const int pid = static_cast<int>(tree.nodes_.size());
    tree.nodes_.push_back(parent);
    tree.nodes_[static_cast<std::size_t>(a)].parent = pid;
    tree.nodes_[static_cast<std::size_t>(b)].parent = pid;

    for (int c : active) {
      if (c == a || c == b) continue;
      const double v = 0.5 * (d(static_cast<std::size_t>(a),
                                static_cast<std::size_t>(c)) +
                              d(static_cast<std::size_t>(b),
                                static_cast<std::size_t>(c)) -
                              dab);
      d(static_cast<std::size_t>(pid), static_cast<std::size_t>(c)) =
          std::max(0.0, v);
      d(static_cast<std::size_t>(c), static_cast<std::size_t>(pid)) =
          std::max(0.0, v);
    }

    active.erase(active.begin() + static_cast<long>(bj));
    active.erase(active.begin() + static_cast<long>(bi));
    active.push_back(pid);
    std::sort(active.begin(), active.end());
  }

  // Join the final two clusters under the root, splitting the remaining
  // distance at the midpoint.
  const int a = active[0];
  const int b = active[1];
  const double dab =
      std::max(0.0, d(static_cast<std::size_t>(a), static_cast<std::size_t>(b)));
  TreeNode root;
  root.left = a;
  root.right = b;
  root.left_length = dab / 2.0;
  root.right_length = dab / 2.0;
  const int pid = static_cast<int>(tree.nodes_.size());
  tree.nodes_.push_back(root);
  tree.nodes_[static_cast<std::size_t>(a)].parent = pid;
  tree.nodes_[static_cast<std::size_t>(b)].parent = pid;
  tree.root_ = pid;
  return tree;
}

std::vector<int> GuideTree::postorder() const {
  std::vector<int> order;
  order.reserve(nodes_.size());
  // Iterative post-order to survive deep (caterpillar) trees.
  std::vector<std::pair<int, bool>> stack;
  stack.emplace_back(root_, false);
  while (!stack.empty()) {
    auto [id, expanded] = stack.back();
    stack.pop_back();
    if (id < 0) continue;
    const TreeNode& nd = nodes_[static_cast<std::size_t>(id)];
    if (expanded || nd.left < 0) {
      order.push_back(id);
    } else {
      stack.emplace_back(id, true);
      stack.emplace_back(nd.right, false);
      stack.emplace_back(nd.left, false);
    }
  }
  return order;
}

std::vector<int> GuideTree::leaves_under(int i) const {
  std::vector<int> out;
  std::vector<int> stack{i};
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    const TreeNode& nd = nodes_[static_cast<std::size_t>(id)];
    if (nd.left < 0) {
      out.push_back(nd.leaf_index);
    } else {
      stack.push_back(nd.right);
      stack.push_back(nd.left);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> GuideTree::leaf_weights() const {
  std::vector<double> weights(num_leaves_, 0.0);
  // Count leaves below every node once.
  std::vector<std::size_t> leaves_below(nodes_.size(), 0);
  for (int id : postorder()) {
    const TreeNode& nd = nodes_[static_cast<std::size_t>(id)];
    if (nd.left < 0)
      leaves_below[static_cast<std::size_t>(id)] = 1;
    else
      leaves_below[static_cast<std::size_t>(id)] =
          leaves_below[static_cast<std::size_t>(nd.left)] +
          leaves_below[static_cast<std::size_t>(nd.right)];
  }
  for (std::size_t leaf = 0; leaf < num_leaves_; ++leaf) {
    int id = static_cast<int>(leaf);
    double w = 0.0;
    while (nodes_[static_cast<std::size_t>(id)].parent >= 0) {
      const int pid = nodes_[static_cast<std::size_t>(id)].parent;
      const TreeNode& p = nodes_[static_cast<std::size_t>(pid)];
      // NJ can emit negative branch lengths on near-degenerate distance
      // matrices; CLUSTALW clamps them to zero for weighting, and so do we
      // (a negative leaf weight would corrupt profile frequencies).
      const double len =
          std::max(0.0, p.left == id ? p.left_length : p.right_length);
      w += len / static_cast<double>(leaves_below[static_cast<std::size_t>(id)]);
      id = pid;
    }
    weights[static_cast<std::size_t>(
        nodes_[leaf].leaf_index)] = w;
  }
  // Normalize to mean 1; uniform fallback when all weights vanish
  // (e.g. star-like trees with zero branch lengths).
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) return std::vector<double>(num_leaves_, 1.0);
  const double scale = static_cast<double>(num_leaves_) / total;
  for (double& w : weights) w *= scale;
  // Floor: identical duplicates sit on zero-length branches and would get
  // weight 0, which breaks profile subgroups made entirely of duplicates.
  for (double& w : weights) w = std::max(w, 1e-3);
  return weights;
}

std::string GuideTree::newick(std::span<const std::string> names) const {
  if (names.size() != num_leaves_)
    throw std::invalid_argument("newick: name count != leaf count");
  std::ostringstream os;
  // Iterative rendering via explicit stack of (node, child-phase).
  struct Frame {
    int id;
    int phase;  // 0: open, 1: between children, 2: close
    double length;
    bool has_length;
  };
  std::vector<Frame> stack{{root_, 0, 0.0, false}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const TreeNode& nd = nodes_[static_cast<std::size_t>(f.id)];
    if (nd.left < 0) {
      os << names[static_cast<std::size_t>(nd.leaf_index)];
      if (f.has_length) os << ':' << f.length;
      continue;
    }
    switch (f.phase) {
      case 0:
        os << '(';
        stack.push_back({f.id, 1, f.length, f.has_length});
        stack.push_back({nd.left, 0, nd.left_length, true});
        break;
      case 1:
        os << ',';
        stack.push_back({f.id, 2, f.length, f.has_length});
        stack.push_back({nd.right, 0, nd.right_length, true});
        break;
      case 2:
        os << ')';
        if (f.has_length) os << ':' << f.length;
        break;
      default: break;
    }
  }
  os << ';';
  return os.str();
}

}  // namespace salign::msa
