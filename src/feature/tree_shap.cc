#include "feature/tree_shap.h"

#include <cmath>

#include "math/combinatorics.h"
#include "obs/obs.h"

namespace xai {
namespace {

/// One element of the unique-feature path maintained by the algorithm.
struct PathElement {
  int feature;  // -1 for the root placeholder.
  double zero;  // Fraction of paths flowing through when feature absent.
  double one;   // 1 if the instance's value goes this way, else 0.
  double w;     // Permutation weight accumulated so far.
};

/// Grows the path by one split, updating permutation weights.
void Extend(std::vector<PathElement>* m, double pz, double po, int pi) {
  const int l = static_cast<int>(m->size());
  m->push_back({pi, pz, po, l == 0 ? 1.0 : 0.0});
  auto& p = *m;
  for (int i = l - 1; i >= 0; --i) {
    p[i + 1].w += po * p[i].w * static_cast<double>(i + 1) /
                  static_cast<double>(l + 1);
    p[i].w = pz * p[i].w * static_cast<double>(l - i) /
             static_cast<double>(l + 1);
  }
}

/// Total permutation weight if element `idx` were removed (without
/// mutating the path).
double UnwoundSum(const std::vector<PathElement>& m, size_t idx) {
  const int l = static_cast<int>(m.size()) - 1;
  const double one = m[idx].one;
  const double zero = m[idx].zero;
  double next = m[static_cast<size_t>(l)].w;
  double total = 0.0;
  for (int i = l - 1; i >= 0; --i) {
    if (one != 0.0) {
      const double tmp = next * static_cast<double>(l + 1) /
                         (static_cast<double>(i + 1) * one);
      total += tmp;
      next = m[static_cast<size_t>(i)].w -
             tmp * zero * static_cast<double>(l - i) /
                 static_cast<double>(l + 1);
    } else {
      total += m[static_cast<size_t>(i)].w / zero *
               static_cast<double>(l + 1) / static_cast<double>(l - i);
    }
  }
  return total;
}

/// Removes element `idx` from the path, restoring weights.
void Unwind(std::vector<PathElement>* m, size_t idx) {
  auto& p = *m;
  const int l = static_cast<int>(p.size()) - 1;
  const double one = p[idx].one;
  const double zero = p[idx].zero;
  double next = p[static_cast<size_t>(l)].w;
  for (int i = l - 1; i >= 0; --i) {
    if (one != 0.0) {
      const double tmp = p[static_cast<size_t>(i)].w;
      p[static_cast<size_t>(i)].w = next * static_cast<double>(l + 1) /
                                    (static_cast<double>(i + 1) * one);
      next = tmp - p[static_cast<size_t>(i)].w * zero *
                       static_cast<double>(l - i) /
                       static_cast<double>(l + 1);
    } else {
      p[static_cast<size_t>(i)].w = p[static_cast<size_t>(i)].w *
                                    static_cast<double>(l + 1) /
                                    (zero * static_cast<double>(l - i));
    }
  }
  for (size_t i = idx; i < static_cast<size_t>(l); ++i) {
    p[i].feature = p[i + 1].feature;
    p[i].zero = p[i + 1].zero;
    p[i].one = p[i + 1].one;
  }
  p.pop_back();
}

/// The path-dependent TreeSHAP recursion over the compiled SoA arrays:
/// node reads are indexed loads. It produces the same doubles as the
/// node-object walker in tests/reference/, which the flat parity tests
/// check with EXPECT_EQ.
void FlatRecurse(const FlatEnsemble& ens, const double* x,
                 std::vector<double>* phi, int32_t node,
                 std::vector<PathElement> path,  // By value: one copy per call.
                 double pz, double po, int pi) {
  Extend(&path, pz, po, pi);
  if (ens.is_leaf(node)) {
    const double leaf_value = ens.value(node);
    for (size_t i = 1; i < path.size(); ++i) {
      const double w = UnwoundSum(path, i);
      (*phi)[static_cast<size_t>(path[i].feature)] +=
          w * (path[i].one - path[i].zero) * leaf_value;
    }
    return;
  }
  const int feature = ens.feature(node);
  const bool go_left =
      x[static_cast<size_t>(feature)] <= ens.threshold(node);
  const int32_t hot = go_left ? ens.left(node) : ens.right(node);
  const int32_t cold = go_left ? ens.right(node) : ens.left(node);
  const double node_cover = ens.cover(node);
  const double hot_z = ens.cover(hot) / node_cover;
  const double cold_z = ens.cover(cold) / node_cover;
  double iz = 1.0;
  double io = 1.0;
  size_t k = 1;
  while (k < path.size() && path[k].feature != feature) ++k;
  if (k < path.size()) {
    iz = path[k].zero;
    io = path[k].one;
    Unwind(&path, k);
  }
  FlatRecurse(ens, x, phi, hot, path, iz * hot_z, io, feature);
  FlatRecurse(ens, x, phi, cold, path, iz * cold_z, 0.0, feature);
}

}  // namespace

void FlatTreeShapValues(const FlatEnsemble& ensemble, size_t t,
                        const double* x, std::vector<double>* phi) {
  XAI_OBS_COUNT("feature.tree_shap.path_walks");
  FlatRecurse(ensemble, x, phi, ensemble.root(t), {}, 1.0, 1.0, -1);
}

TreePathGame::TreePathGame(const FlatEnsemble& ensemble, double scale,
                           std::vector<double> instance)
    : ensemble_(ensemble), scale_(scale), instance_(std::move(instance)) {}

double TreePathGame::NodeExpectation(int32_t node,
                                     const std::vector<bool>& s) const {
  if (ensemble_.is_leaf(node)) return ensemble_.value(node);
  const size_t f = static_cast<size_t>(ensemble_.feature(node));
  const int32_t left = ensemble_.left(node);
  const int32_t right = ensemble_.right(node);
  if (s[f]) {
    return NodeExpectation(
        instance_[f] <= ensemble_.threshold(node) ? left : right, s);
  }
  const double cl = ensemble_.cover(left);
  const double cr = ensemble_.cover(right);
  return (cl * NodeExpectation(left, s) + cr * NodeExpectation(right, s)) /
         (cl + cr);
}

double TreePathGame::Value(const std::vector<bool>& in_coalition) const {
  double total = 0.0;
  for (size_t t = 0; t < ensemble_.num_trees(); ++t)
    total += scale_ * NodeExpectation(ensemble_.root(t), in_coalition);
  return total;
}

TreeShapExplainer::TreeShapExplainer(const GradientBoostedTrees& gbdt,
                                     const Schema& schema)
    : flat_(&gbdt.flat()), scale_(gbdt.learning_rate()),
      num_features_(gbdt.num_features()), schema_(schema) {
  base_ = gbdt.base_score();
  for (size_t t = 0; t < flat_->num_trees(); ++t)
    base_ += gbdt.learning_rate() * flat_->expected_value(t);
}

TreeShapExplainer::TreeShapExplainer(const DecisionTree& tree,
                                     const Schema& schema)
    : flat_(&tree.flat()), scale_(1.0), num_features_(tree.num_features()),
      schema_(schema) {
  base_ = flat_->expected_value(0);
}

TreeShapExplainer::TreeShapExplainer(const RandomForest& forest,
                                     const Schema& schema)
    : flat_(&forest.flat()),
      scale_(1.0 / static_cast<double>(forest.trees().size())),
      num_features_(forest.num_features()), schema_(schema) {
  base_ = 0.0;
  for (size_t t = 0; t < flat_->num_trees(); ++t)
    base_ += scale_ * flat_->expected_value(t);
}

Result<FeatureAttribution> TreeShapExplainer::Explain(
    const std::vector<double>& instance) {
  XAI_OBS_HIST_TIMER("feature.tree_shap.explain_us");
  XAI_OBS_SPAN("tree_shap");
  if (instance.size() != num_features_)
    return Status::InvalidArgument("TreeShap: instance arity mismatch");
  FeatureAttribution out;
  out.values.assign(num_features_, 0.0);
  std::vector<double> tree_phi(num_features_, 0.0);
  double margin = base_;
  for (size_t t = 0; t < flat_->num_trees(); ++t) {
    std::fill(tree_phi.begin(), tree_phi.end(), 0.0);
    FlatTreeShapValues(*flat_, t, instance.data(), &tree_phi);
    for (size_t j = 0; j < num_features_; ++j)
      out.values[j] += scale_ * tree_phi[j];
    margin += scale_ * (flat_->PredictTree(t, instance.data()) -
                        flat_->expected_value(t));
  }
  for (size_t j = 0; j < num_features_; ++j)
    out.feature_names.push_back(schema_.feature(j).name);
  out.base_value = base_;
  out.prediction = margin;
  return out;
}

Result<std::vector<FeatureAttribution>> TreeShapExplainer::ExplainBatch(
    const Matrix& instances) {
  XAI_OBS_HIST_TIMER("feature.tree_shap.explain_batch_us");
  XAI_OBS_SPAN("tree_shap_batch");
  XAI_OBS_COUNT_N("feature.tree_shap.batch_rows", instances.rows());
  XAI_OBS_TRACE_INSTANT("tree_shap.batch_rows", instances.rows());
  const size_t n = instances.rows();
  if (n == 0) return std::vector<FeatureAttribution>{};
  if (instances.cols() != num_features_)
    return Status::InvalidArgument("TreeShap: instance arity mismatch");

  std::vector<FeatureAttribution> out(n);
  std::vector<double> margins(n, base_);
  for (FeatureAttribution& attr : out) attr.values.assign(num_features_, 0.0);

  // Tree-outer / row-inner: one tree's flat arrays serve the whole row
  // block before the next tree is touched. Per row the accumulation order
  // over trees is unchanged, so values match the per-row loop bit-for-bit.
  // The per-tree expected value is a precomputed array read, and rows are
  // walked straight out of the Matrix buffer (no per-row copy).
  std::vector<double> tree_phi(num_features_, 0.0);
  for (size_t t = 0; t < flat_->num_trees(); ++t) {
    const double expected = flat_->expected_value(t);
    for (size_t i = 0; i < n; ++i) {
      const double* r = instances.RowPtr(i);
      std::fill(tree_phi.begin(), tree_phi.end(), 0.0);
      FlatTreeShapValues(*flat_, t, r, &tree_phi);
      std::vector<double>& phi = out[i].values;
      for (size_t j = 0; j < num_features_; ++j)
        phi[j] += scale_ * tree_phi[j];
      margins[i] += scale_ * (flat_->PredictTree(t, r) - expected);
    }
  }

  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < num_features_; ++j)
      out[i].feature_names.push_back(schema_.feature(j).name);
    out[i].base_value = base_;
    out[i].prediction = margins[i];
  }
  return out;
}

namespace {

/// DFS state for interventional TreeSHAP: which unique path features were
/// resolved toward the instance (X) or the reference (B).
struct InterventionalWalker {
  const FlatEnsemble& ens;
  const std::vector<double>& x;
  const std::vector<double>& ref;
  std::vector<double>* phi;
  // assignment[f]: 0 = unseen, 1 = instance side, 2 = reference side.
  std::vector<uint8_t> assignment;
  std::vector<int> x_features;
  std::vector<int> b_features;

  void Walk(int32_t node) {
    if (ens.is_leaf(node)) {
      const double value = ens.value(node);
      const double nx = static_cast<double>(x_features.size());
      const double nb = static_cast<double>(b_features.size());
      if (nx + nb == 0.0) return;  // Same leaf for x and ref: no credit.
      // (|X|-1)! |B|! / (|X|+|B|)! and the mirrored term, computed via
      // the binomial form to stay in range.
      if (!x_features.empty()) {
        const double w_pos =
            1.0 / (nx * BinomialCoefficient(static_cast<int>(nx + nb),
                                            static_cast<int>(nb)));
        for (int f : x_features)
          (*phi)[static_cast<size_t>(f)] += w_pos * value;
      }
      if (!b_features.empty()) {
        const double w_neg =
            1.0 / (nb * BinomialCoefficient(static_cast<int>(nx + nb),
                                            static_cast<int>(nx)));
        for (int f : b_features)
          (*phi)[static_cast<size_t>(f)] -= w_neg * value;
      }
      return;
    }
    const int feature = ens.feature(node);
    const size_t f = static_cast<size_t>(feature);
    const double threshold = ens.threshold(node);
    const int32_t x_child =
        x[f] <= threshold ? ens.left(node) : ens.right(node);
    const int32_t b_child =
        ref[f] <= threshold ? ens.left(node) : ens.right(node);
    if (x_child == b_child) {
      Walk(x_child);  // Feature neutral at this node.
      return;
    }
    switch (assignment[f]) {
      case 1:
        Walk(x_child);
        return;
      case 2:
        Walk(b_child);
        return;
      default:
        break;
    }
    // Unseen: branch both ways, assigning the feature each side.
    assignment[f] = 1;
    x_features.push_back(feature);
    Walk(x_child);
    x_features.pop_back();
    assignment[f] = 2;
    b_features.push_back(feature);
    Walk(b_child);
    b_features.pop_back();
    assignment[f] = 0;
  }
};

}  // namespace

void InterventionalTreeShap(const FlatEnsemble& ensemble, size_t t,
                            const std::vector<double>& x,
                            const std::vector<double>& reference,
                            std::vector<double>* phi) {
  XAI_OBS_COUNT("feature.tree_shap.interventional_walks");
  InterventionalWalker walker{ensemble, x, reference, phi,
                              std::vector<uint8_t>(x.size(), 0),
                              {},
                              {}};
  walker.Walk(ensemble.root(t));
}

std::vector<double> InterventionalEnsembleShap(
    const FlatEnsemble& ensemble, double scale, size_t num_features,
    const std::vector<double>& x, const Matrix& background,
    size_t max_background) {
  std::vector<double> phi(num_features, 0.0);
  const size_t m = std::min(background.rows(), max_background);
  const size_t stride = std::max<size_t>(1, background.rows() / m);
  std::vector<double> ref(num_features);
  std::vector<double> phi_one(num_features);
  size_t used = 0;
  for (size_t b = 0; b < m; ++b) {
    const size_t src = std::min(b * stride, background.rows() - 1);
    ref.assign(background.RowPtr(src),
               background.RowPtr(src) + background.cols());
    std::fill(phi_one.begin(), phi_one.end(), 0.0);
    for (size_t t = 0; t < ensemble.num_trees(); ++t)
      InterventionalTreeShap(ensemble, t, x, ref, &phi_one);
    for (size_t j = 0; j < num_features; ++j) phi[j] += scale * phi_one[j];
    ++used;
  }
  for (double& v : phi) v /= static_cast<double>(used);
  return phi;
}

std::vector<double> GlobalMeanAbsShap(TreeShapExplainer* explainer,
                                      const Dataset& ds, size_t max_rows) {
  const size_t n = std::min(ds.n(), max_rows);
  std::vector<double> importance(ds.d(), 0.0);
  // One amortized sweep instead of the deprecated per-row Explain loop.
  Matrix rows(n, ds.d());
  for (size_t i = 0; i < n; ++i) rows.SetRow(i, ds.row(i));
  auto attrs = explainer->ExplainBatch(rows);
  if (!attrs.ok()) return importance;
  for (const FeatureAttribution& attr : *attrs)
    for (size_t j = 0; j < ds.d(); ++j)
      importance[j] += std::fabs(attr.values[j]);
  for (double& v : importance) v /= static_cast<double>(n);
  return importance;
}

}  // namespace xai
