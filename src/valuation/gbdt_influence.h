#ifndef XAIDB_VALUATION_GBDT_INFLUENCE_H_
#define XAIDB_VALUATION_GBDT_INFLUENCE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "model/gbdt.h"

namespace xai {

/// LeafRefit-style influence for gradient boosted trees (Sharchilev et al.
/// 2018), tutorial Section 2.3.2: influence functions do not apply to
/// non-parametric trees, so the tree *structure is frozen* and only leaf
/// values are differentiated w.r.t. training-point weights. Removing point
/// i changes each leaf it reached from G/H to (G-g_i)/(H-h_i); the change
/// in a test prediction is the sum of those deltas over trees whose test
/// leaf coincides with i's leaf (first-order: residual drift across
/// boosting rounds is ignored, as in the paper's fast approximation).
class GbdtLeafInfluence {
 public:
  /// Replays the boosting run of `model` on its training data to recover
  /// per-leaf gradient/hessian sums and per-sample leaf assignments.
  static Result<GbdtLeafInfluence> Create(const GradientBoostedTrees& model,
                                          const Dataset& train);

  /// Margin change on `x` caused by removing training point i, for all i.
  std::vector<double> InfluenceOnPrediction(const std::vector<double>& x) const;

  /// Mean change of CE validation loss (logistic) / squared loss
  /// caused by removing each training point (first-order through the
  /// margin deltas).
  std::vector<double> InfluenceOnValidationLoss(const Dataset& validation) const;

 private:
  GbdtLeafInfluence(const GradientBoostedTrees& model, size_t n)
      : model_(model), n_(n) {}

  const GradientBoostedTrees& model_;
  size_t n_;
  // Per tree: global FlatEnsemble index of each training sample's leaf.
  std::vector<std::vector<int32_t>> sample_leaf_;
  // Per flat node (leaves used): sums of the gradients and hessians of the
  // training samples that landed there.
  std::vector<double> leaf_g_;
  std::vector<double> leaf_h_;
  // Per tree, per sample: its gradient/hessian at that round.
  std::vector<std::vector<double>> sample_g_;
  std::vector<std::vector<double>> sample_h_;
};

}  // namespace xai

#endif  // XAIDB_VALUATION_GBDT_INFLUENCE_H_
