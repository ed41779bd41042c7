#ifndef XAIDB_MODEL_HIST_LEARNER_H_
#define XAIDB_MODEL_HIST_LEARNER_H_

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "data/binned.h"
#include "model/tree.h"

namespace xai {

/// In-place partition of the row indices a tree fit works over: every node
/// owns a contiguous slice [begin, end) of one shared index array, and a
/// split reorders only its own slice (left block first), exactly like the
/// sort-per-node exact learner partitions its range — no per-node index
/// copies. Splitting is serial and order-preserving-free (std::partition),
/// so the row order each child sees is a pure function of the parent's
/// order: thread count never touches it.
class DataPartition {
 public:
  /// Starts with the identity permutation over `n` rows.
  explicit DataPartition(size_t n) : rows_(n) {
    std::iota(rows_.begin(), rows_.end(), size_t{0});
  }
  /// Starts from an explicit row subset (bootstrap bag / subsample).
  explicit DataPartition(std::vector<size_t> rows) : rows_(std::move(rows)) {}

  size_t size() const { return rows_.size(); }
  size_t row(size_t k) const { return rows_[k]; }
  std::vector<size_t>& rows() { return rows_; }

  /// Reorders [begin, end) so rows with code <= split_bin under feature f
  /// come first; returns the boundary index. `binned` supplies the codes
  /// (u8/u16 dispatch inside).
  size_t Split(const BinnedDataset& binned, size_t f, uint32_t split_bin,
               size_t begin, size_t end);

 private:
  std::vector<size_t> rows_;
};

/// Histogram-based regression-tree learner over a quantized dataset (the
/// LightGBM / XGBoost-approx idiom). Per node it accumulates one
/// (sum_target, sum_hessian, count) histogram bin per feature bin, scans
/// bins in ascending order for the best split, and recurses depth-first —
/// the same node numbering, gain formula (sum^2/hessian), stopping rules,
/// and leaf values as the sort-per-node exact learner the parity tests
/// keep as an oracle (tests/reference/exact_learner.h), so the two produce
/// identical trees whenever binning is lossless and target sums are exact.
///
/// Cost per tree is O(n·d) for the root histogram plus O(bins·d) per
/// node: the smaller child of every split is accumulated directly and the
/// larger one recovered as parent − sibling (histogram subtraction),
/// so a whole level of the tree costs about one pass over the data.
///
/// Determinism contract (PR 2): per-feature work units run under the
/// fixed-chunk ThreadPool::ParallelFor with each feature's histogram and
/// split scan accumulated in ascending row/bin order, and the cross-
/// feature reduction is serial in candidate order — results are
/// bit-identical for any thread count. Histogram subtraction is used only
/// when every feature is a split candidate at every node (no per-node
/// feature sampling), so parent and child histograms always cover the
/// same features; random-forest fits (max_features > 0) build per-node
/// candidate histograms directly.
///
/// `leaf_of_row`, when non-null, is resized to binned.rows() (-1 for rows
/// outside the training subset) and receives the node index of the leaf
/// each trained row landed in — the GBDT training loop uses it to apply
/// per-round margin updates without re-traversing the tree.
Tree FitRegressionTreeHist(const BinnedDataset& binned,
                           const std::vector<double>& targets,
                           const TreeConfig& config,
                           const std::vector<double>* hessian_weights = nullptr,
                           const std::vector<size_t>* row_subset = nullptr,
                           Rng* rng = nullptr,
                           std::vector<int32_t>* leaf_of_row = nullptr);

}  // namespace xai

#endif  // XAIDB_MODEL_HIST_LEARNER_H_
