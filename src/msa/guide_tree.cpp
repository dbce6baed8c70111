#include "msa/guide_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace salign::msa {

namespace {

void check_input(const util::SymmetricMatrix<double>& d) {
  if (d.size() == 0) throw std::invalid_argument("GuideTree: empty matrix");
}

// Offset of row i in SymmetricMatrix's packed lower triangle.
constexpr std::size_t row_start(std::size_t i) { return i * (i + 1) / 2; }

}  // namespace

GuideTree GuideTree::upgma(util::SymmetricMatrix<double> distances) {
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

  double* const d = &distances(0, 0);

  // Slots [0, m) of the triangle hold the clusters: slot s holds node
  // slot_node[s] of csize[s] leaves. A merge writes the new cluster into
  // the lower slot and retires the higher one, whose distances become +inf
  // (no input distance is), so the scans need no liveness test: a retired
  // slot never wins a strict "<". When the live count falls to m / 2, the
  // live slots move in slot order to a dense prefix, so the scans stay
  // within twice the live count. Moving keeps the order of the live slots,
  // and with it every "lowest slot" choice below. Nearest-neighbour caching
  // makes the construction ~O(n^2) in practice (Murtagh 1984).
  constexpr double kRetired = std::numeric_limits<double>::infinity();
  std::size_t m = n;
  std::vector<int> slot_node(n);  // -1 once retired
  for (std::size_t s = 0; s < n; ++s) slot_node[s] = static_cast<int>(s);
  std::vector<double> csize(n, 1.0);
  std::vector<std::size_t> nn(n);  // n once retired
  std::vector<double> nnd(n, kRetired);
  std::vector<std::size_t> live(n);
  std::vector<std::size_t> moved_to(n);

  // d(s, t) is row s at t for t < s, and row t at s for t > s: a scan of
  // slot s reads its row, then steps down its column.
  auto recompute_nn = [&](std::size_t s) {
    const double* row = d + row_start(s);
    double best = kRetired;
    std::size_t arg = s;
    for (std::size_t t = 0; t < s; ++t)
      if (row[t] < best) {
        best = row[t];
        arg = t;
      }
    for (std::size_t t = s + 1, at = row_start(t) + s; t < m; at += t + 1, ++t)
      if (d[at] < best) {
        best = d[at];
        arg = t;
      }
    nn[s] = arg;
    nnd[s] = best;
  };

  // The tree is built inside the given triangle d, whose packed rows
  // start at i(i+1)/2. Every distance is first rounded to float precision,
  // and every merged distance is stored the same way, so heights,
  // comparisons and ties are those of single-precision average linkage.
  // One row-order sweep rounds each d(i, j), j < i, and offers it to slot
  // i (its row part) and to slot j (its column part): every slot sees its
  // candidates in ascending slot order, under the same strict "<", as
  // recompute_nn, and the first non-finite entry in row order throws.
  for (std::size_t i = 1; i < n; ++i) {
    double* row = d + row_start(i);
    double best = kRetired;
    std::size_t arg = i;
    for (std::size_t j = 0; j < i; ++j) {
      const auto v = static_cast<float>(row[j]);
      if (!std::isfinite(v)) {
        std::ostringstream os;
        os << "GuideTree::upgma: distance (" << i << ", " << j
           << ") = " << row[j] << " is not finite at float precision";
        throw std::invalid_argument(os.str());
      }
      const double x = v;
      row[j] = x;
      if (x < best) {
        best = x;
        arg = j;
      }
      if (x < nnd[j]) {
        nnd[j] = x;
        nn[j] = i;
      }
    }
    nn[i] = arg;
    nnd[i] = best;
  }

  // Moves the live slots to [0, remaining) in slot order; a forward copy is
  // safe because no entry moves to a higher address.
  auto compact = [&](std::size_t remaining) {
    std::size_t k = 0;
    for (std::size_t s = 0; s < m; ++s)
      if (slot_node[s] >= 0) {
        live[k] = s;
        moved_to[s] = k++;
      }
    for (k = 0; k < remaining; ++k) {
      const std::size_t s = live[k];
      const double* from = d + row_start(s);
      double* to = d + row_start(k);
      for (std::size_t j = 0; j < k; ++j) to[j] = from[live[j]];
      slot_node[k] = slot_node[s];
      csize[k] = csize[s];
      nn[k] = moved_to[nn[s]];
      nnd[k] = nnd[s];
    }
    m = remaining;
  };

  std::size_t remaining = n;
  while (remaining > 1) {
    // Global arg-min over cached nearest neighbours (lowest slot on ties).
    double best = kRetired;
    std::size_t sa = 0;
    for (std::size_t s = 0; s < m; ++s)
      if (nnd[s] < best) {
        best = nnd[s];
        sa = s;
      }
    std::size_t sb = nn[sa];
    if (sb < sa) std::swap(sa, sb);

    const int a = slot_node[sa];
    const int b = slot_node[sb];
    const double na = csize[sa];
    const double nb = csize[sb];
    double* row_a = d + row_start(sa);
    double* row_b = d + row_start(sb);

    TreeNode parent;
    parent.left = a;
    parent.right = b;
    parent.height = row_b[sa] / 2.0;
    parent.left_length = std::max(
        0.0, parent.height - tree.nodes_[static_cast<std::size_t>(a)].height);
    parent.right_length = std::max(
        0.0, parent.height - tree.nodes_[static_cast<std::size_t>(b)].height);
    const int pid = static_cast<int>(tree.nodes_.size());
    tree.nodes_.push_back(parent);
    tree.nodes_[static_cast<std::size_t>(a)].parent = pid;
    tree.nodes_[static_cast<std::size_t>(b)].parent = pid;

    // Average-linkage distances for the merged cluster, written into sa,
    // while sb's are retired. Retired slots average +inf with +inf.
    const auto average = [na, nb](double x, double y) {
      return static_cast<double>(
          static_cast<float>((na * x + nb * y) / (na + nb)));
    };
    for (std::size_t t = 0; t < sa; ++t) {
      row_a[t] = average(row_a[t], row_b[t]);
      row_b[t] = kRetired;
    }
    std::size_t at = row_start(sa + 1) + sa;
    for (std::size_t t = sa + 1; t < sb; at += t + 1, ++t) {
      d[at] = average(d[at], row_b[t]);
      row_b[t] = kRetired;
    }
    row_b[sa] = kRetired;
    for (std::size_t t = sb + 1; t < m; ++t) {
      double* row_t = d + row_start(t);
      row_t[sa] = average(row_t[sa], row_t[sb]);
      row_t[sb] = kRetired;
    }
    slot_node[sa] = pid;
    csize[sa] = na + nb;
    slot_node[sb] = -1;
    nn[sb] = n;
    nnd[sb] = kRetired;
    --remaining;

    if (remaining == 1) {
      tree.root_ = pid;
      break;
    }

    // Refresh caches: the merged slot from scratch; any slot whose cached
    // neighbour was sa or sb from scratch; others only improve via sa.
    // Retired slots match neither test.
    recompute_nn(sa);
    const auto refresh = [&](std::size_t t, double d_sa) {
      if (nn[t] == sa || nn[t] == sb) {
        recompute_nn(t);
      } else if (d_sa < nnd[t]) {
        nn[t] = sa;
        nnd[t] = d_sa;
      }
    };
    for (std::size_t t = 0; t < sa; ++t) refresh(t, row_a[t]);
    at = row_start(sa + 1) + sa;
    for (std::size_t t = sa + 1; t < m; at += t + 1, ++t) refresh(t, d[at]);

    if (2 * remaining <= m) compact(remaining);
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
