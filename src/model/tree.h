#ifndef XAIDB_MODEL_TREE_H_
#define XAIDB_MODEL_TREE_H_

#include <cstddef>
#include <vector>

namespace xai {

/// A node of a binary decision tree. Internal nodes route `x[feature] <=
/// threshold` to `left`, else `right`. Leaves carry `value`. Every node
/// carries `cover` (the training-sample weight that reached it), which is
/// exactly what the TreeSHAP path algorithm consumes.
struct TreeNode {
  int feature = -1;  // -1 marks a leaf.
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  double value = 0.0;
  double cover = 0.0;

  bool is_leaf() const { return feature < 0; }
};

/// A plain binary regression/score tree: nodes in a flat vector, node 0 is
/// the root, every child numbered after its parent. This is what the
/// learner builds and what model artifacts store. Every read of a fitted
/// tree (prediction, TreeSHAP, the explainers and valuations built on
/// them) runs on the FlatEnsemble compiled from it (flat_tree.h); the
/// node-walking versions survive only as test oracles (tests/reference/).
struct Tree {
  std::vector<TreeNode> nodes;

  int MaxDepth() const;
  size_t NumLeaves() const;

  /// Expected prediction under the tree's own training distribution
  /// (cover-weighted average of leaf values) — the "background" value
  /// TreeSHAP attributes against. Rescans every leaf: hot paths read the
  /// copy FlatEnsemble precomputes at compile time instead.
  double ExpectedValue() const;
};

/// Training knobs shared by DecisionTree/RandomForest/GBDT fits.
struct TrainOptions {
  /// Histogram resolution per feature, in [2, 65536]; a fit with any other
  /// value returns InvalidArgument. <= 256 stores u8 bin codes, larger
  /// values u16. Features with fewer distinct values than this are binned
  /// losslessly (one bin per value).
  int max_bins = 256;
  /// Derive the larger child's histogram as parent − sibling instead of
  /// re-accumulating it (off only for debugging/tests; only applies when
  /// feature sampling is off).
  bool hist_subtraction = true;
};

/// CART configuration.
struct TreeConfig {
  int max_depth = 6;
  int min_samples_leaf = 5;
  /// Number of candidate features per split; 0 = all (deterministic CART),
  /// otherwise sampled per node (random forest mode).
  int max_features = 0;
  TrainOptions train;
};

}  // namespace xai

#endif  // XAIDB_MODEL_TREE_H_
