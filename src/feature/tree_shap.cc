#include "feature/tree_shap.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "math/combinatorics.h"
#include "obs/obs.h"

namespace xai {
namespace {

/// Byte budget for one explainer's leaf tables. Trees are tabulated in tree
/// order while their tables fit what is left of it; the rest run the path
/// recursion. A leaf at depth D holds 2^D rows, so the budget bounds both
/// memory and build time: a 20-tree, depth-8 forest on 6 features would
/// need ~41 MiB and half a second, the perfbench refit GBDT (16 rounds,
/// depth 6) needs ~2.3 MiB.
constexpr size_t kTableBudgetBytes = size_t{8} << 20;

/// Direction masks are uint32_t, one bit per depth; deeper trees are never
/// tabulated (the budget stops them far earlier anyway).
constexpr int kMaskBits = 32;

/// ExplainBatch's row block: each tree's tables stay cache-hot across the
/// block's rows. Boundaries depend only on n.
constexpr size_t kRowBlock = 32;

/// One element of the unique-feature path maintained by the algorithm.
struct PathElement {
  int feature;  // -1 for the root placeholder.
  double zero;  // Fraction of paths flowing through when feature absent.
  double one;   // 1 if the instance's value goes this way, else 0.
  double w;     // Permutation weight accumulated so far.
};

/// The live elements [0, size()) of one level's path slot, with the
/// vector operations the path helpers use.
class Path {
 public:
  Path() = default;
  Path(PathElement* slot, size_t size) : e_(slot), size_(size) {}
  size_t size() const { return size_; }
  PathElement& operator[](size_t i) const { return e_[i]; }
  void push_back(const PathElement& element) { e_[size_++] = element; }
  void pop_back() { --size_; }
  const PathElement* begin() const { return e_; }
  const PathElement* end() const { return e_ + size_; }

 private:
  PathElement* e_ = nullptr;
  size_t size_ = 0;
};

/// Grows the path by one split, updating permutation weights.
void Extend(Path* m, double pz, double po, int pi) {
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
double UnwoundSum(const Path& m, size_t idx) {
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
void Unwind(Path* m, size_t idx) {
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

/// What path element `i` adds to its feature at a leaf of value `v`.
double LeafContribution(const Path& path, size_t i, double v) {
  return UnwoundSum(path, i) * (path[i].one - path[i].zero) * v;
}

/// One path slot per tree depth, allocated once: level l's path starts as
/// a copy of level l-1's, so no node visit allocates. A path holds the
/// root placeholder plus at most min(depth, num_features) unique features.
class PathBuffers {
 public:
  PathBuffers(int depth, size_t num_features)
      : stride_(std::min(static_cast<size_t>(depth), num_features) + 2),
        slots_((static_cast<size_t>(depth) + 1) * stride_) {}

  /// Level `level`'s slot, holding a copy of `parent`.
  Path Descend(const Path& parent, size_t level) {
    PathElement* slot = slots_.data() + level * stride_;
    std::copy(parent.begin(), parent.end(), slot);
    return Path(slot, parent.size());
  }

 private:
  size_t stride_;
  std::vector<PathElement> slots_;
};

/// The path-dependent TreeSHAP recursion (Lundberg et al. 2020) over the
/// compiled SoA arrays. Everything it computes at a leaf depends on the row
/// only through one bit per split on the leaf's path: did the row take the
/// path's direction there (`po = io`) or not (`po = 0`)? Bit i of `mask`
/// is the bit of the split at depth i.
///
/// With a row x it is the walker: at each split x's side (hot) is visited
/// first with bit 1, the other side with bit 0, so leaves are met in the
/// walker's order and the first leaf is x's own. With x == nullptr every
/// child is visited under both bits: each leaf is met once per mask, which
/// is how leaf tables are filled. Either way on_leaf(leaf, mask, path)
/// receives the finished path; LeafContribution turns it into doubles.
template <typename OnLeaf>
struct PathRecursion {
  const FlatEnsemble& ens;
  const double* x;
  PathBuffers& buffers;
  OnLeaf& on_leaf;

  void Run(size_t t) { Recurse(ens.root(t), 0, Path{}, 1.0, 1.0, -1, 0); }

  void Recurse(int32_t node, size_t level, const Path& parent, double pz,
               double po, int pi, uint32_t mask) {
    Path path = buffers.Descend(parent, level);
    Extend(&path, pz, po, pi);
    if (ens.is_leaf(node)) {
      on_leaf(node, mask, path);
      return;
    }
    const int feature = ens.feature(node);
    double iz = 1.0;
    double io = 1.0;
    size_t k = 1;
    while (k < path.size() && path[k].feature != feature) ++k;
    if (k < path.size()) {
      iz = path[k].zero;
      io = path[k].one;
      Unwind(&path, k);
    }
    const double node_cover = ens.cover(node);
    if (x != nullptr) {
      const bool go_left =
          x[static_cast<size_t>(feature)] <= ens.threshold(node);
      const int32_t hot = go_left ? ens.left(node) : ens.right(node);
      const int32_t cold = go_left ? ens.right(node) : ens.left(node);
      Recurse(hot, level + 1, path, iz * (ens.cover(hot) / node_cover), io,
              feature, mask);
      Recurse(cold, level + 1, path, iz * (ens.cover(cold) / node_cover),
              0.0, feature, mask);
      return;
    }
    const uint32_t bit = uint32_t{1} << level;
    for (const int32_t child : {ens.left(node), ens.right(node)}) {
      const double z = iz * (ens.cover(child) / node_cover);
      Recurse(child, level + 1, path, z, io, feature, mask | bit);
      Recurse(child, level + 1, path, z, 0.0, feature, mask);
    }
  }
};

/// Runs the recursion on row x over tree t, adding its SHAP values into
/// phi. Returns the leaf x lands in.
int32_t RecurseRow(const FlatEnsemble& ens, size_t t, const double* x,
                   PathBuffers* buffers, double* phi) {
  XAI_OBS_COUNT("feature.tree_shap.path_walks");
  int32_t own_leaf = -1;
  auto add = [&](int32_t leaf, uint32_t, const Path& path) {
    if (own_leaf < 0) own_leaf = leaf;
    const double v = ens.value(leaf);
    for (size_t i = 1; i < path.size(); ++i)
      phi[static_cast<size_t>(path[i].feature)] +=
          LeafContribution(path, i, v);
  };
  PathRecursion<decltype(add)>{ens, x, *buffers, add}.Run(t);
  return own_leaf;
}

/// Calls visit(leaf, depth, k) for each leaf below `node` (at `depth`,
/// with the root path's split features in `features`), where k counts the
/// distinct split features on the leaf's root path: its path length in the
/// recursion, placeholder excluded.
template <typename Visit>
void ForEachLeafShape(const FlatEnsemble& ens, int32_t node, int depth,
                      std::vector<int>* features, Visit& visit) {
  if (ens.is_leaf(node)) {
    size_t k = 0;
    for (size_t i = 0; i < features->size(); ++i)
      if (std::find(features->begin() + static_cast<long>(i) + 1,
                    features->end(), (*features)[i]) == features->end())
        ++k;
    visit(node, depth, k);
    return;
  }
  features->push_back(ens.feature(node));
  ForEachLeafShape(ens, ens.left(node), depth + 1, features, visit);
  ForEachLeafShape(ens, ens.right(node), depth + 1, features, visit);
  features->pop_back();
}

constexpr size_t kUntabulated = std::numeric_limits<size_t>::max();

/// Takes `bytes` from `*left` if it fits.
bool Take(size_t bytes, size_t* left) {
  if (bytes > *left) return false;
  *left -= bytes;
  return true;
}

}  // namespace

void FlatTreeShapValues(const FlatEnsemble& ensemble, size_t t,
                        const double* x, std::vector<double>* phi) {
  PathBuffers buffers(ensemble.depth(t), phi->size());
  RecurseRow(ensemble, t, x, &buffers, phi->data());
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
  BuildTables();
}

TreeShapExplainer::TreeShapExplainer(const DecisionTree& tree,
                                     const Schema& schema)
    : flat_(&tree.flat()), scale_(1.0), num_features_(tree.num_features()),
      schema_(schema) {
  base_ = flat_->expected_value(0);
  BuildTables();
}

TreeShapExplainer::TreeShapExplainer(const RandomForest& forest,
                                     const Schema& schema)
    : flat_(&forest.flat()),
      scale_(1.0 / static_cast<double>(forest.trees().size())),
      num_features_(forest.num_features()), schema_(schema) {
  base_ = 0.0;
  for (size_t t = 0; t < flat_->num_trees(); ++t)
    base_ += scale_ * flat_->expected_value(t);
  BuildTables();
}

void TreeShapExplainer::BuildTables() {
  const size_t num_trees = flat_->num_trees();
  tree_tables_.assign(num_trees, kUntabulated);
  size_t budget = kTableBudgetBytes;
  size_t num_values = 0;
  std::vector<int> features;
  // Lay out, in tree order, every tree whose tables fit what is left of the
  // budget: one LeafTable per node, then per leaf its path features and
  // 2^depth rows of contributions. Sizes are checked against the budget
  // before they are added, so nothing overflows.
  for (size_t t = 0; t < num_trees; ++t) {
    const int depth = flat_->depth(t);
    const int32_t root = flat_->root(t);
    const size_t nodes = (t + 1 < num_trees
                              ? static_cast<size_t>(flat_->root(t + 1))
                              : flat_->num_nodes()) -
                         static_cast<size_t>(root);
    size_t left = budget;
    bool fits = depth < kMaskBits && Take(nodes * sizeof(LeafTable), &left);
    size_t values = num_values;
    size_t path_features = path_features_.size();
    std::vector<LeafTable> layout;
    if (fits) {
      layout.resize(nodes);
      auto plan = [&](int32_t leaf, int leaf_depth, size_t k) {
        if (!fits) return;
        const size_t rows = size_t{1} << leaf_depth;
        fits = Take(k * sizeof(int32_t), &left) &&
               (k == 0 || rows <= left / (k * sizeof(double))) &&
               Take(rows * k * sizeof(double), &left);
        layout[static_cast<size_t>(leaf - root)] = {
            values, static_cast<uint32_t>(path_features),
            static_cast<uint32_t>(k)};
        values += rows * k;
        path_features += k;
      };
      ForEachLeafShape(*flat_, root, 0, &features, plan);
    }
    if (!fits) {
      recursion_depth_ = std::max(recursion_depth_, depth);
      continue;
    }
    budget = left;
    tree_tables_[t] = leaf_tables_.size();
    leaf_tables_.insert(leaf_tables_.end(), layout.begin(), layout.end());
    num_values = values;
    path_features_.resize(path_features);
    ++tabulated_trees_;
  }
  contributions_.resize(num_values);
  table_bytes_ = contributions_.size() * sizeof(double) +
                 path_features_.size() * sizeof(int32_t) +
                 leaf_tables_.size() * sizeof(LeafTable);

  // Fill: row `mask` of a leaf holds the recursion's contributions for a
  // row whose direction bits along the leaf's path are `mask`.
  for (size_t t = 0; t < num_trees; ++t) {
    if (tree_tables_[t] == kUntabulated) continue;
    const int32_t root = flat_->root(t);
    const LeafTable* tables = leaf_tables_.data() + tree_tables_[t];
    auto fill = [&](int32_t leaf, uint32_t mask, const Path& path) {
      const LeafTable& table = tables[leaf - root];
      const double v = flat_->value(leaf);
      double* row = contributions_.data() + table.values +
                    static_cast<size_t>(mask) * table.size;
      for (size_t i = 1; i < path.size(); ++i)
        row[i - 1] = LeafContribution(path, i, v);
      if (mask == 0)
        for (size_t i = 1; i < path.size(); ++i)
          path_features_[table.features + i - 1] = path[i].feature;
    };
    PathBuffers buffers(flat_->depth(t), num_features_);
    PathRecursion<decltype(fill)>{*flat_, nullptr, buffers, fill}.Run(t);
  }
}

int32_t TreeShapExplainer::SweepTables(size_t t, const double* x,
                                       double* phi) const {
  struct Frame {
    int32_t node;
    uint32_t level;
    uint32_t mask;
  };
  // Descend hot children in registers and stack the cold sibling at each
  // split: the walker's leaf order, with at most one frame per depth. The
  // first descent ends at x's own leaf.
  Frame stack[kMaskBits] = {};
  size_t top = 0;
  int32_t own_leaf = -1;
  const int32_t root = flat_->root(t);
  const LeafTable* tables = leaf_tables_.data() + tree_tables_[t];
  const int32_t* features = path_features_.data();
  const double* contributions = contributions_.data();
  Frame f{root, 0, 0};
  for (;;) {
    while (!flat_->is_leaf(f.node)) {
      const bool go_left =
          x[static_cast<size_t>(flat_->feature(f.node))] <=
          flat_->threshold(f.node);
      stack[top++] = {go_left ? flat_->right(f.node) : flat_->left(f.node),
                      f.level + 1, f.mask};
      f = {go_left ? flat_->left(f.node) : flat_->right(f.node),
           f.level + 1, f.mask | (uint32_t{1} << f.level)};
    }
    if (own_leaf < 0) own_leaf = f.node;
    const LeafTable& table = tables[f.node - root];
    const int32_t* leaf_features = features + table.features;
    const double* row =
        contributions + table.values + static_cast<size_t>(f.mask) * table.size;
    for (uint32_t i = 0; i < table.size; ++i)
      phi[static_cast<size_t>(leaf_features[i])] += row[i];
    if (top == 0) break;
    f = stack[--top];
  }
  return own_leaf;
}

/// Per-call scratch, so concurrent calls on one explainer share nothing
/// mutable.
struct TreeShapExplainer::Scratch {
  explicit Scratch(const TreeShapExplainer& e)
      : tree_phi(e.num_features_),
        buffers(e.recursion_depth_, e.num_features_) {}
  std::vector<double> tree_phi;
  PathBuffers buffers;
};

void TreeShapExplainer::ExplainRows(const double* x, size_t n,
                                    Scratch* scratch,
                                    FeatureAttribution* out) const {
  for (size_t i = 0; i < n; ++i) {
    out[i].values.assign(num_features_, 0.0);
    out[i].prediction = base_;
  }
  // Tree-outer / row-inner, so one tree's tables stay cache-resident across
  // the rows. Per row, trees still accumulate in tree order.
  double* tree_phi = scratch->tree_phi.data();
  for (size_t t = 0; t < flat_->num_trees(); ++t) {
    const double expected = flat_->expected_value(t);
    for (size_t i = 0; i < n; ++i) {
      const double* row = x + i * num_features_;
      std::fill(scratch->tree_phi.begin(), scratch->tree_phi.end(), 0.0);
      const int32_t leaf =
          tree_tables_[t] != kUntabulated
              ? SweepTables(t, row, tree_phi)
              : RecurseRow(*flat_, t, row, &scratch->buffers, tree_phi);
      std::vector<double>& phi = out[i].values;
      for (size_t j = 0; j < num_features_; ++j)
        phi[j] += scale_ * tree_phi[j];
      out[i].prediction += scale_ * (flat_->value(leaf) - expected);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    out[i].feature_names.reserve(num_features_);
    for (size_t j = 0; j < num_features_; ++j)
      out[i].feature_names.push_back(schema_.feature(j).name);
    out[i].base_value = base_;
  }
}

Result<FeatureAttribution> TreeShapExplainer::Explain(
    const std::vector<double>& instance) {
  XAI_OBS_HIST_TIMER("feature.tree_shap.explain_us");
  XAI_OBS_SPAN("tree_shap");
  if (instance.size() != num_features_)
    return Status::InvalidArgument("TreeShap: instance arity mismatch");
  Scratch scratch(*this);
  FeatureAttribution out;
  ExplainRows(instance.data(), 1, &scratch, &out);
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

  // Runs on the calling thread, not on the pool: a request's time would
  // otherwise follow how many pool workers the host lets run at once, which
  // on a shared host changes from run to run. Each row is explained by the
  // same routine as Explain.
  std::vector<FeatureAttribution> out(n);
  Scratch scratch(*this);
  for (size_t lo = 0; lo < n; lo += kRowBlock) {
    const size_t hi = std::min(n, lo + kRowBlock);
    ExplainRows(instances.RowPtr(lo), hi - lo, &scratch, &out[lo]);
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
  if (n == 0) return importance;
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
