#pragma once

// Reference UPGMA, built into the tests-only salign_test_oracles library
// (see guide_tree.cpp).

#include <cstddef>
#include <vector>

#include "msa/guide_tree.hpp"
#include "util/matrix.hpp"

namespace salign::msa::reference {

/// The node array and root of a UPGMA tree built on an n x n float square
/// copy of `distances`, with slot reuse and cached nearest neighbours:
/// the construction GuideTree::upgma must reproduce field for field.
struct UpgmaNodes {
  std::vector<TreeNode> nodes;
  int root = -1;
};

[[nodiscard]] UpgmaNodes upgma(const util::SymmetricMatrix<double>& distances);

}  // namespace salign::msa::reference
