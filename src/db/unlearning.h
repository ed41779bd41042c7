#ifndef XAIDB_DB_UNLEARNING_H_
#define XAIDB_DB_UNLEARNING_H_

#include <vector>

#include "common/result.h"
#include "model/tree.h"

namespace xai {

/// HedgeCut-style low-latency machine unlearning for decision trees
/// (Schelter, Grafberger & Dunning 2021; tutorial Section 3 "Data-Based
/// Explanations" cites it as the incremental-maintenance route): deleting
/// one training point usually leaves the tree *structure* optimal, so the
/// statistics (covers and mean leaf/node values) along the point's
/// root-to-leaf path are downdated in O(depth) instead of refitting.
/// When a node's support falls below a robustness threshold the deletion
/// is flagged so callers can schedule a refit — HedgeCut's split-
/// robustness idea reduced to its support-based core.
struct UnlearnResult {
  /// Nodes whose statistics were updated (the path).
  size_t updated_nodes = 0;
  /// True when some path node's cover dropped below `refit_threshold`:
  /// the structure may no longer be optimal and a refit is advised.
  bool structure_risk = false;
};

/// Removes (x, y) from the tree's sufficient statistics. The tree must
/// have been fit with plain mean leaf values (FitRegressionTreeHist
/// without hessian weights; classification trees store the positive-class
/// fraction, i.e. the mean of {0,1} labels, so they qualify).
Result<UnlearnResult> UnlearnFromTree(Tree* tree,
                                      const std::vector<double>& x, double y,
                                      double refit_threshold = 10.0);

/// Unlearns the point from every tree of an averaged ensemble (e.g.
/// RandomForest trees — note bagging means the point's weight per tree is
/// approximated as 1, the standard HedgeCut simplification).
Result<UnlearnResult> UnlearnFromForest(std::vector<Tree>* trees,
                                        const std::vector<double>& x,
                                        double y,
                                        double refit_threshold = 10.0);

}  // namespace xai

#endif  // XAIDB_DB_UNLEARNING_H_
