#include "reference/tree_walkers.h"

#include <algorithm>

namespace xai::reference {
namespace {

/// One element of the unique-feature path maintained by the algorithm.
struct PathElement {
  int feature;  // -1 for the root placeholder.
  double zero;  // Fraction of paths flowing through when feature absent.
  double one;   // 1 if the instance's value goes this way, else 0.
  double w;     // Permutation weight accumulated so far.
};

// Extend, UnwoundSum and Unwind are a separate copy of the library's
// path-weight helpers (feature/tree_shap.cc), so the oracle does not share
// code with the walker it checks.

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

void Recurse(const Tree& tree, const std::vector<double>& x,
             std::vector<double>* phi, int node,
             std::vector<PathElement> path,  // By value: one copy per call.
             double pz, double po, int pi) {
  Extend(&path, pz, po, pi);
  const TreeNode& nd = tree.nodes[static_cast<size_t>(node)];
  if (nd.is_leaf()) {
    for (size_t i = 1; i < path.size(); ++i) {
      const double w = UnwoundSum(path, i);
      (*phi)[static_cast<size_t>(path[i].feature)] +=
          w * (path[i].one - path[i].zero) * nd.value;
    }
    return;
  }
  const bool go_left = x[static_cast<size_t>(nd.feature)] <= nd.threshold;
  const int hot = go_left ? nd.left : nd.right;
  const int cold = go_left ? nd.right : nd.left;
  const double hot_z =
      tree.nodes[static_cast<size_t>(hot)].cover / nd.cover;
  const double cold_z =
      tree.nodes[static_cast<size_t>(cold)].cover / nd.cover;
  double iz = 1.0;
  double io = 1.0;
  size_t k = 1;
  while (k < path.size() && path[k].feature != nd.feature) ++k;
  if (k < path.size()) {
    iz = path[k].zero;
    io = path[k].one;
    Unwind(&path, k);
  }
  Recurse(tree, x, phi, hot, path, iz * hot_z, io, nd.feature);
  Recurse(tree, x, phi, cold, path, iz * cold_z, 0.0, nd.feature);
}

}  // namespace

int LeafIndex(const Tree& tree, const double* x) {
  int i = 0;
  while (!tree.nodes[i].is_leaf()) {
    const TreeNode& n = tree.nodes[i];
    i = x[n.feature] <= n.threshold ? n.left : n.right;
  }
  return i;
}

int LeafIndex(const Tree& tree, const std::vector<double>& x) {
  return LeafIndex(tree, x.data());
}

double Predict(const Tree& tree, const double* x) {
  return tree.nodes[static_cast<size_t>(LeafIndex(tree, x))].value;
}

double Predict(const Tree& tree, const std::vector<double>& x) {
  return Predict(tree, x.data());
}

void AccumulateBatch(const Tree& tree, const Matrix& x, double scale,
                     std::vector<double>* out) {
  for (size_t i = 0; i < x.rows(); ++i)
    (*out)[i] += scale * Predict(tree, x.RowPtr(i));
}

void TreeShapValues(const Tree& tree, const std::vector<double>& x,
                    std::vector<double>* phi) {
  Recurse(tree, x, phi, 0, {}, 1.0, 1.0, -1);
}

std::vector<double> EnsembleTreeShap(const std::vector<Tree>& trees,
                                     double scale, size_t num_features,
                                     const std::vector<double>& x) {
  std::vector<double> phi(num_features, 0.0);
  std::vector<double> tree_phi(num_features, 0.0);
  for (const Tree& t : trees) {
    std::fill(tree_phi.begin(), tree_phi.end(), 0.0);
    TreeShapValues(t, x, &tree_phi);
    for (size_t j = 0; j < num_features; ++j) phi[j] += scale * tree_phi[j];
  }
  return phi;
}

}  // namespace xai::reference
