#ifndef XAIDB_FEATURE_TREE_SHAP_H_
#define XAIDB_FEATURE_TREE_SHAP_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/explainer.h"
#include "core/game.h"
#include "data/dataset.h"
#include "model/decision_tree.h"
#include "model/flat_tree.h"
#include "model/gbdt.h"

namespace xai {

/// Path-dependent TreeSHAP (Lundberg, Erion, Lee et al., Nature MI 2020)
/// for tree `t` of a compiled FlatEnsemble: exact Shapley values of the
/// tree's conditional-expectation game in O(L D^2) per instance instead of
/// O(2^d) — the polynomial-time headline the tutorial highlights in
/// Section 2.1.2 (experiments E1/E2). Every node read (feature, threshold,
/// children, cover, leaf value) is an index into the flat arrays, so
/// prediction and explanation share one memory layout. The path lives in
/// per-depth buffers allocated once per call, never per node.
///
/// Accumulates one value per feature into `phi` (sized to the model's
/// feature count); the values satisfy
///   sum(phi) = tree_t(x) - ensemble.expected_value(t).
void FlatTreeShapValues(const FlatEnsemble& ensemble, size_t t,
                        const double* x, std::vector<double>* phi);

/// The cover-weighted conditional-expectation game TreeSHAP solves:
///   v(S) = E[tree(x) | x_S]  (descend on S-features, cover-average others),
/// summed as scale * v_t(S) over the trees of `ensemble`, which must
/// outlive the game. Exponential when fed to ExactShapley — used to verify
/// TreeSHAP's exactness and to measure the exact-vs-polynomial runtime gap.
class TreePathGame : public CoalitionGame {
 public:
  TreePathGame(const FlatEnsemble& ensemble, double scale,
               std::vector<double> instance);

  size_t num_players() const override { return instance_.size(); }
  double Value(const std::vector<bool>& in_coalition) const override;

 private:
  double NodeExpectation(int32_t node, const std::vector<bool>& s) const;

  const FlatEnsemble& ensemble_;
  double scale_;
  std::vector<double> instance_;
};

/// AttributionExplainer facade over a GBDT (explains the raw margin — the
/// standard choice, attributions in log-odds space) or a single decision
/// tree / random forest (explains the probability).
///
/// Reads the model's compiled FlatEnsemble — the same SoA arrays serving
/// prediction — and the per-tree expected values precomputed at compile
/// time. The model must outlive the explainer.
///
/// **Leaf tables.** At a leaf at depth D, the recursion's contributions
/// depend on the row only through D bits: did the row take the path's
/// direction at each split on the way? The constructor therefore runs the
/// recursion once per (leaf, mask) and stores, per leaf, its path features
/// and 2^D rows of contributions. Explaining a row is then a DFS over each
/// tree that carries the mask (x's side first) and adds the leaf's row at
/// every leaf: O(nodes + sum of leaf path lengths) per tree instead of the
/// recursion's O(L D^2), with the same doubles added in the same order. On
/// a 16-round, depth-6 GBDT over 16 features that is about 20 us per row
/// on one core against about 300 us for the recursion, for 2.2 MiB of
/// tables built in 10-30 ms. Trees are tabulated in tree order while their
/// tables fit a fixed 8 MiB budget per explainer; the rest, and any tree
/// 32 or more levels deep, run the recursion of FlatTreeShapValues.
///
/// Explain and ExplainBatch share one routine, in which each row's trees
/// accumulate in tree order, so ExplainBatch row i equals Explain(row i)
/// bit for bit. Tables are read-only after construction and scratch lives
/// per call, so both may be called concurrently on one explainer.
class TreeShapExplainer : public AttributionExplainer {
 public:
  explicit TreeShapExplainer(const GradientBoostedTrees& gbdt,
                             const Schema& schema);
  explicit TreeShapExplainer(const DecisionTree& tree, const Schema& schema);
  explicit TreeShapExplainer(const RandomForest& forest, const Schema& schema);

  Result<FeatureAttribution> Explain(
      const std::vector<double>& instance) override;

  /// Explains the rows on the calling thread in fixed 32-row blocks,
  /// tree-outer / row-inner within a block so each tree's tables stay
  /// cache-hot. Block boundaries depend only on the row count, so the
  /// output is the same at any thread count. It does not fan out on
  /// GlobalPool(): callers wanting more cores call it concurrently.
  Result<std::vector<FeatureAttribution>> ExplainBatch(
      const Matrix& instances) override;

  /// Trees explained from leaf tables; the others run the recursion.
  size_t tabulated_trees() const { return tabulated_trees_; }
  /// Bytes held by the leaf tables.
  size_t table_bytes() const { return table_bytes_; }

 private:
  /// Where one leaf's table lives: `size` path features at `features` in
  /// path_features_, then 2^depth rows of `size` contributions from
  /// `values` in contributions_.
  struct LeafTable {
    size_t values = 0;
    uint32_t features = 0;
    uint32_t size = 0;
  };
  struct Scratch;

  void BuildTables();
  /// Adds tree t's table rows for x into phi; returns x's leaf.
  int32_t SweepTables(size_t t, const double* x, double* phi) const;
  /// Explains the n contiguous rows at x into out[0, n).
  void ExplainRows(const double* x, size_t n, Scratch* scratch,
                   FeatureAttribution* out) const;

  const FlatEnsemble* flat_ = nullptr;
  double scale_ = 1.0;
  double base_ = 0.0;
  size_t num_features_ = 0;
  const Schema& schema_;
  // Built by the constructor, read-only afterwards.
  std::vector<size_t> tree_tables_;     // Per tree: leaf_tables_ index of
                                        // its root, or untabulated.
  std::vector<LeafTable> leaf_tables_;  // Per node of each tabulated tree.
  std::vector<int32_t> path_features_;
  std::vector<double> contributions_;
  size_t tabulated_trees_ = 0;
  size_t table_bytes_ = 0;
  int recursion_depth_ = 0;  // Deepest untabulated tree.
};

/// Global importance as the tutorial's "local explanations to global
/// understanding": mean |SHAP value| per feature over a dataset.
std::vector<double> GlobalMeanAbsShap(TreeShapExplainer* explainer,
                                      const Dataset& ds, size_t max_rows = 200);

/// *Interventional* TreeSHAP against a single reference row (Lundberg et
/// al. 2020, "true to the model" variant): exact Shapley values of the
/// cube game v(S) = tree(x_S combined with reference on ~S), computed in
/// one tree walk instead of 2^d evaluations. Each root-to-leaf path
/// partitions its unique split features into X (instance-satisfied) and B
/// (reference-satisfied); the leaf is a unanimity-minus-blockers game with
/// closed-form Shapley contribution
///   +v * (|X|-1)! |B|! / (|X|+|B|)!  for i in X,
///   -v * |X)! (|B|-1)! / (|X|+|B|)!  for i in B.
/// Walks tree `t` of the compiled ensemble and accumulates into `phi`;
/// sum(phi) = tree_t(x) - tree_t(reference).
void InterventionalTreeShap(const FlatEnsemble& ensemble, size_t t,
                            const std::vector<double>& x,
                            const std::vector<double>& reference,
                            std::vector<double>* phi);

/// Interventional SHAP averaged over a background dataset for the additive
/// ensemble sum_t scale * tree_t: equals the exact Shapley values of
/// MarginalFeatureGame over the same background (tests verify the
/// equality).
std::vector<double> InterventionalEnsembleShap(
    const FlatEnsemble& ensemble, double scale, size_t num_features,
    const std::vector<double>& x, const Matrix& background,
    size_t max_background = 100);

}  // namespace xai

#endif  // XAIDB_FEATURE_TREE_SHAP_H_
