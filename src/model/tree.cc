#include "model/tree.h"

#include <algorithm>
#include <utility>

namespace xai {

int Tree::MaxDepth() const {
  // Iterative DFS carrying depth.
  int max_depth = 0;
  std::vector<std::pair<int, int>> stack = {{0, 0}};
  while (!stack.empty()) {
    auto [i, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    if (!nodes[i].is_leaf()) {
      stack.push_back({nodes[i].left, d + 1});
      stack.push_back({nodes[i].right, d + 1});
    }
  }
  return max_depth;
}

size_t Tree::NumLeaves() const {
  size_t c = 0;
  for (const TreeNode& n : nodes)
    if (n.is_leaf()) ++c;
  return c;
}

double Tree::ExpectedValue() const {
  double total = 0.0;
  double weighted = 0.0;
  for (const TreeNode& n : nodes) {
    if (n.is_leaf()) {
      total += n.cover;
      weighted += n.cover * n.value;
    }
  }
  return total > 0.0 ? weighted / total : 0.0;
}

}  // namespace xai
