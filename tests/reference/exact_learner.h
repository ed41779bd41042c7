#ifndef XAIDB_TESTS_REFERENCE_EXACT_LEARNER_H_
#define XAIDB_TESTS_REFERENCE_EXACT_LEARNER_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "math/matrix.h"
#include "model/gbdt.h"
#include "model/tree.h"

/// The sort-per-node exact CART learner over raw feature values. The
/// library trains every tree with the histogram learner
/// (model/hist_learner.h); this is the oracle its parity tests compare
/// against, kept outside the library. Both learners share the node
/// numbering, the sum^2/hessian gain, the stopping rules and the leaf
/// values, so they grow identical trees whenever binning is lossless and
/// target sums are exact.
namespace xai::reference {

/// Fits a regression tree minimizing squared error on (x, targets) with
/// optional per-sample `hessian_weights`: when provided, leaf values are
/// sum(target_i)/sum(weight_i) (the Newton leaf step of logistic
/// boosting); without them, leaf value = mean target. Only `max_depth`,
/// `min_samples_leaf` and `max_features` (sampled from `rng`) of `config`
/// apply; candidate thresholds are midpoints between consecutive distinct
/// values of a node's rows.
Tree FitRegressionTreeExact(const Matrix& x, const std::vector<double>& targets,
                            const TreeConfig& config,
                            const std::vector<double>* hessian_weights = nullptr,
                            const std::vector<size_t>* row_subset = nullptr,
                            Rng* rng = nullptr);

/// Gradient boosting with FitRegressionTreeExact as the round learner: the
/// same base score, residuals, hessians, row subsampling and rng stream as
/// GradientBoostedTrees::Fit, with margins updated by the node walker.
GradientBoostedTrees FitGbdtExact(const Dataset& ds, const GbdtOptions& opts);

}  // namespace xai::reference

#endif  // XAIDB_TESTS_REFERENCE_EXACT_LEARNER_H_
