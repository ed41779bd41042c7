#include "reference/exact_learner.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "math/stats.h"
#include "reference/tree_walkers.h"

namespace xai::reference {
namespace {

/// Recursive CART builder over an index range [begin, end) of `order`.
class TreeBuilder {
 public:
  TreeBuilder(const Matrix& x, const std::vector<double>& t,
              const std::vector<double>* h, const TreeConfig& config,
              Rng* rng)
      : x_(x), t_(t), h_(h), config_(config), rng_(rng) {}

  Tree Build(std::vector<size_t> rows) {
    tree_.nodes.clear();
    // One (value, row) scratch buffer for the whole fit: every node's
    // feature loop refills and re-sorts it in place, instead of paying a
    // fresh allocation per node.
    vals_.reserve(rows.size());
    BuildNode(&rows, 0, rows.size(), 0);
    return std::move(tree_);
  }

 private:
  double HWeight(size_t i) const { return h_ ? (*h_)[i] : 1.0; }

  // Creates the node for rows[begin, end) at `depth`; returns its index.
  int BuildNode(std::vector<size_t>* rows, size_t begin, size_t end,
                int depth) {
    double sum_t = 0.0;
    double sum_h = 0.0;
    for (size_t k = begin; k < end; ++k) {
      sum_t += t_[(*rows)[k]];
      sum_h += HWeight((*rows)[k]);
    }
    const int node_idx = static_cast<int>(tree_.nodes.size());
    tree_.nodes.emplace_back();
    tree_.nodes[node_idx].cover = static_cast<double>(end - begin);
    tree_.nodes[node_idx].value =
        sum_h > 1e-12 ? sum_t / sum_h : 0.0;

    const size_t n = end - begin;
    if (depth >= config_.max_depth ||
        n < 2 * static_cast<size_t>(config_.min_samples_leaf)) {
      return node_idx;
    }

    // Candidate features.
    const size_t d = x_.cols();
    std::vector<size_t> feats(d);
    std::iota(feats.begin(), feats.end(), 0);
    if (config_.max_features > 0 &&
        static_cast<size_t>(config_.max_features) < d && rng_) {
      feats = rng_->SampleWithoutReplacement(d, config_.max_features);
    }

    const double parent_score = sum_t * sum_t / std::max(sum_h, 1e-12);
    double best_gain = 1e-12;
    int best_feature = -1;
    double best_threshold = 0.0;

    std::vector<std::pair<double, size_t>>& vals = vals_;
    for (size_t f : feats) {
      vals.clear();
      for (size_t k = begin; k < end; ++k)
        vals.emplace_back(x_((*rows)[k], f), (*rows)[k]);
      std::sort(vals.begin(), vals.end());
      if (vals.front().first == vals.back().first) continue;
      double left_t = 0.0;
      double left_h = 0.0;
      for (size_t k = 0; k + 1 < n; ++k) {
        left_t += t_[vals[k].second];
        left_h += HWeight(vals[k].second);
        if (vals[k].first == vals[k + 1].first) continue;
        const size_t n_left = k + 1;
        const size_t n_right = n - n_left;
        if (n_left < static_cast<size_t>(config_.min_samples_leaf) ||
            n_right < static_cast<size_t>(config_.min_samples_leaf))
          continue;
        const double right_t = sum_t - left_t;
        const double right_h = sum_h - left_h;
        const double score =
            left_t * left_t / std::max(left_h, 1e-12) +
            right_t * right_t / std::max(right_h, 1e-12);
        const double gain = score - parent_score;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (vals[k].first + vals[k + 1].first);
        }
      }
    }

    if (best_feature < 0) return node_idx;

    // Partition rows in place: left block first.
    const auto mid_it = std::partition(
        rows->begin() + static_cast<std::ptrdiff_t>(begin),
        rows->begin() + static_cast<std::ptrdiff_t>(end), [&](size_t r) {
          return x_(r, static_cast<size_t>(best_feature)) <= best_threshold;
        });
    const size_t mid =
        static_cast<size_t>(mid_it - rows->begin());
    if (mid == begin || mid == end) return node_idx;  // Degenerate split.

    tree_.nodes[node_idx].feature = best_feature;
    tree_.nodes[node_idx].threshold = best_threshold;
    const int left = BuildNode(rows, begin, mid, depth + 1);
    tree_.nodes[node_idx].left = left;
    const int right = BuildNode(rows, mid, end, depth + 1);
    tree_.nodes[node_idx].right = right;
    return node_idx;
  }

  const Matrix& x_;
  const std::vector<double>& t_;
  const std::vector<double>* h_;
  const TreeConfig& config_;
  Rng* rng_;
  Tree tree_;
  std::vector<std::pair<double, size_t>> vals_;  // (feature value, row)
};

}  // namespace

Tree FitRegressionTreeExact(const Matrix& x, const std::vector<double>& targets,
                            const TreeConfig& config,
                            const std::vector<double>* hessian_weights,
                            const std::vector<size_t>* row_subset, Rng* rng) {
  std::vector<size_t> rows;
  if (row_subset) {
    rows = *row_subset;
  } else {
    rows.resize(x.rows());
    std::iota(rows.begin(), rows.end(), 0);
  }
  TreeBuilder builder(x, targets, hessian_weights, config, rng);
  return builder.Build(std::move(rows));
}

GradientBoostedTrees FitGbdtExact(const Dataset& ds, const GbdtOptions& opts) {
  const size_t n = ds.n();
  Rng rng(opts.seed);
  double base_score = 0.0;
  if (opts.loss == GbdtLoss::kLogistic) {
    const double pos =
        std::accumulate(ds.y().begin(), ds.y().end(), 0.0) /
        static_cast<double>(n);
    const double p = std::clamp(pos, 1e-6, 1.0 - 1e-6);
    base_score = std::log(p / (1.0 - p));
  } else {
    base_score = Mean(ds.y());
  }

  std::vector<double> margin(n, base_score);
  std::vector<double> residual(n);
  std::vector<double> hessian(n);
  std::vector<Tree> trees;
  for (int round = 0; round < opts.num_rounds; ++round) {
    for (size_t i = 0; i < n; ++i) {
      if (opts.loss == GbdtLoss::kLogistic) {
        const double p = Sigmoid(margin[i]);
        residual[i] = ds.y()[i] - p;
        hessian[i] = std::max(p * (1.0 - p), 1e-6);
      } else {
        residual[i] = ds.y()[i] - margin[i];
        hessian[i] = 1.0;
      }
    }
    const std::vector<double>* hess =
        opts.loss == GbdtLoss::kLogistic ? &hessian : nullptr;

    std::vector<size_t> rows;
    const std::vector<size_t>* rows_ptr = nullptr;
    if (opts.subsample < 1.0) {
      const size_t k = std::max<size_t>(
          1, static_cast<size_t>(opts.subsample * static_cast<double>(n)));
      rows = rng.SampleWithoutReplacement(n, k);
      rows_ptr = &rows;
    }
    Rng tree_rng = rng.Fork();
    Rng* tree_rng_ptr = opts.tree.max_features > 0 ? &tree_rng : nullptr;
    Tree tree = FitRegressionTreeExact(ds.x(), residual, opts.tree, hess,
                                       rows_ptr, tree_rng_ptr);
    AccumulateBatch(tree, ds.x(), opts.learning_rate, &margin);
    trees.push_back(std::move(tree));
  }
  return GradientBoostedTrees::FromParts(std::move(trees), base_score,
                                         opts.learning_rate, opts.loss,
                                         ds.d());
}

}  // namespace xai::reference
