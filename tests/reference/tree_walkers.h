#ifndef XAIDB_TESTS_REFERENCE_TREE_WALKERS_H_
#define XAIDB_TESTS_REFERENCE_TREE_WALKERS_H_

#include <cstddef>
#include <vector>

#include "math/matrix.h"
#include "model/tree.h"

/// Node-object walkers over fitted `Tree`s. The library reads every fitted
/// tree through its compiled FlatEnsemble (model/flat_tree.h); these are
/// the original pointer-chasing versions, kept outside the library as
/// oracles. The flat-vs-node parity tests compare the flat runtime against
/// them with EXPECT_EQ.
namespace xai::reference {

/// Index (into tree.nodes) of the leaf x lands in: internal nodes route
/// x[feature] <= threshold to `left`, else `right`.
int LeafIndex(const Tree& tree, const double* x);
int LeafIndex(const Tree& tree, const std::vector<double>& x);

/// Value of the leaf x lands in.
double Predict(const Tree& tree, const double* x);
double Predict(const Tree& tree, const std::vector<double>& x);

/// out[i] += scale * Predict(tree, row i) for every row of x, one LeafIndex
/// walk per row.
void AccumulateBatch(const Tree& tree, const Matrix& x, double scale,
                     std::vector<double>* out);

/// Path-dependent TreeSHAP (Lundberg, Erion, Lee et al., Nature MI 2020)
/// over the node objects: accumulates one value per feature into `phi`,
/// with sum(phi) = tree(x) - tree.ExpectedValue().
void TreeShapValues(const Tree& tree, const std::vector<double>& x,
                    std::vector<double>* phi);

/// SHAP values for an additive tree ensemble sum_t scale * tree_t(x): per
/// tree TreeShapValues, accumulated in tree order.
std::vector<double> EnsembleTreeShap(const std::vector<Tree>& trees,
                                     double scale, size_t num_features,
                                     const std::vector<double>& x);

}  // namespace xai::reference

#endif  // XAIDB_TESTS_REFERENCE_TREE_WALKERS_H_
