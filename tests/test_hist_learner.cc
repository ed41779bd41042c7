// Binned training pipeline: BinMapper/BinnedDataset quantization, the
// histogram tree learner's parity with the exact sort-per-node oracle,
// histogram subtraction, thread-count bit-identity, and the GBDT/forest
// integration (`ctest -L train`; in the TSan CI job for the per-feature
// ParallelFor sweeps).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/binned.h"
#include "data/synthetic.h"
#include "feature/cxplain.h"
#include "model/decision_tree.h"
#include "model/gbdt.h"
#include "model/hist_learner.h"
#include "model/metrics.h"
#include "model/tree.h"
#include "reference/exact_learner.h"
#include "reference/sorted_binning.h"
#include "reference/tree_walkers.h"

namespace xai {
namespace {

/// RAII reset so no test leaks a SetGlobalThreads override.
struct ThreadCountGuard {
  ~ThreadCountGuard() { SetGlobalThreads(0); }
};

TreeConfig Config(int max_depth, int min_samples_leaf, int max_bins = 256) {
  TreeConfig cfg;
  cfg.max_depth = max_depth;
  cfg.min_samples_leaf = min_samples_leaf;
  cfg.train.max_bins = max_bins;
  return cfg;
}

/// Integer-valued features and targets keep every histogram sum exact, so
/// learner comparisons can demand bitwise equality instead of epsilons.
Dataset MakeIntegerDataset(size_t n, size_t d, uint64_t seed,
                           int distinct_values = 20) {
  Rng rng(seed);
  Matrix x(n, d);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    double score = 0.0;
    for (size_t j = 0; j < d; ++j) {
      x(i, j) = static_cast<double>(
          rng.NextInt(static_cast<uint64_t>(distinct_values)));
      score += (j % 2 == 0 ? 1.0 : -1.0) * x(i, j);
    }
    y[i] = score > 0.0 ? 1.0 : 0.0;
  }
  std::vector<FeatureSpec> specs;
  for (size_t j = 0; j < d; ++j)
    specs.push_back(FeatureSpec::Numeric("f" + std::to_string(j)));
  return Dataset(Schema(specs), std::move(x), std::move(y));
}

void ExpectIdenticalTrees(const Tree& a, const Tree& b,
                          bool compare_thresholds) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].feature, b.nodes[i].feature) << "node " << i;
    EXPECT_EQ(a.nodes[i].left, b.nodes[i].left) << "node " << i;
    EXPECT_EQ(a.nodes[i].right, b.nodes[i].right) << "node " << i;
    EXPECT_EQ(a.nodes[i].value, b.nodes[i].value) << "node " << i;
    EXPECT_EQ(a.nodes[i].cover, b.nodes[i].cover) << "node " << i;
    if (compare_thresholds)
      EXPECT_EQ(a.nodes[i].threshold, b.nodes[i].threshold) << "node " << i;
  }
}

/// True when a and b hold the same doubles byte for byte (memcmp may not
/// be given an empty vector's null data pointer).
bool SameBytes(std::span<const double> a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (b.empty() ||
          std::memcmp(a.data(), b.data(), b.size() * sizeof(double)) == 0);
}

// ---------------------------------------------------------------- BinMapper

TEST(BinMapper, ExactModeUsesMidpointBoundaries) {
  const std::vector<double> vals = {5.0, 1.0, 2.0, 2.0, 3.0};
  BinMapper m = BinMapper::Build(vals.data(), vals.size(), 256);
  EXPECT_EQ(m.num_bins(), 4);  // distinct: 1, 2, 3, 5
  ASSERT_EQ(m.bounds().size(), 3u);
  EXPECT_DOUBLE_EQ(m.bounds()[0], 1.5);
  EXPECT_DOUBLE_EQ(m.bounds()[1], 2.5);
  EXPECT_DOUBLE_EQ(m.bounds()[2], 4.0);
  EXPECT_EQ(m.CodeOf(1.0), 0u);
  EXPECT_EQ(m.CodeOf(2.0), 1u);
  EXPECT_EQ(m.CodeOf(3.0), 2u);
  EXPECT_EQ(m.CodeOf(5.0), 3u);
  EXPECT_TRUE(std::isinf(m.BinUpperBound(3)));
}

TEST(BinMapper, CodeAndThresholdPartitionConsistently) {
  // v <= BinUpperBound(b)  <=>  CodeOf(v) <= b — the property that lets a
  // fitted tree store real thresholds while training partitions on codes.
  Rng rng(11);
  std::vector<double> vals(5000);
  for (double& v : vals) v = rng.Gaussian();
  BinMapper m = BinMapper::Build(vals.data(), vals.size(), 32);
  ASSERT_GT(m.num_bins(), 8);
  ASSERT_LE(m.num_bins(), 32);
  for (const double v : vals) {
    const uint32_t c = m.CodeOf(v);
    for (int b = 0; b < m.num_bins() - 1; ++b) {
      EXPECT_EQ(v <= m.BinUpperBound(b), c <= static_cast<uint32_t>(b))
          << "v=" << v << " bin=" << b;
    }
  }
}

TEST(BinMapper, QuantileModeBalancesCounts) {
  // 10000 uniform draws into 16 bins: every bin should hold a nontrivial
  // share (quantile boundaries, not uniform-width ones).
  Rng rng(7);
  std::vector<double> vals(10000);
  for (double& v : vals) v = rng.NextDouble() * rng.NextDouble();  // Skewed.
  BinMapper m = BinMapper::Build(vals.data(), vals.size(), 16);
  ASSERT_EQ(m.num_bins(), 16);
  std::vector<size_t> counts(16, 0);
  for (const double v : vals) ++counts[m.CodeOf(v)];
  for (size_t b = 0; b < counts.size(); ++b) {
    EXPECT_GT(counts[b], 10000u / 64) << "bin " << b;
    EXPECT_LT(counts[b], 10000u / 4) << "bin " << b;
  }
}

TEST(BinMapper, ConstantColumnGetsOneBin) {
  const std::vector<double> vals(100, 3.14);
  BinMapper m = BinMapper::Build(vals.data(), vals.size(), 256);
  EXPECT_EQ(m.num_bins(), 1);
  EXPECT_EQ(m.CodeOf(3.14), 0u);
  EXPECT_TRUE(std::isinf(m.BinUpperBound(0)));
}

TEST(BinMapper, ZeroBelowInfinityKeepsItsSign) {
  // -0.0 and +0.0 are one distinct value. Their sign can only show in a
  // boundary between 0 and +inf, where the midpoint overflows and the
  // lower value is the boundary: it is the column's own zero, and -0.0
  // when the column holds both.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> neg = {-0.0, inf, -0.0};
  const std::vector<double> pos = {0.0, inf, 0.0};
  const std::vector<double> mixed = {0.0, -0.0, inf, 0.0};
  for (const auto* vals : {&neg, &pos, &mixed}) {
    BinMapper m = BinMapper::Build(vals->data(), vals->size(), 256);
    ASSERT_EQ(m.num_bins(), 2);
    EXPECT_EQ(m.bounds()[0], 0.0);
    EXPECT_EQ(std::signbit(m.bounds()[0]), vals != &pos);
    EXPECT_EQ(m.CodeOf(-0.0), 0u);
    EXPECT_EQ(m.CodeOf(0.0), 0u);
    EXPECT_EQ(m.CodeOf(inf), 1u);
  }
  // With one sign only, the order of equal zeros after std::sort does not
  // matter, and the reference gives the same bytes.
  for (const auto* vals : {&neg, &pos}) {
    const std::vector<double> ref =
        reference::SortedBinBounds(vals->data(), vals->size(), 256);
    BinMapper m = BinMapper::Build(vals->data(), vals->size(), 256);
    ASSERT_EQ(ref.size(), 1u);
    EXPECT_TRUE(SameBytes(m.bounds(), ref));
  }
}

// ------------------------------------------------------------ BinnedDataset

TEST(BinnedDataset, CodeWidthFollowsPerFeatureBinCount) {
  // Feature 0: 500 distinct values -> u16 when max_bins allows them all.
  // Feature 1: 5 distinct values -> u8 always.
  const size_t n = 500;
  Matrix x(n, 2);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(i);
    x(i, 1) = static_cast<double>(i % 5);
  }
  auto wide = BinnedDataset::Build(x, 1024);
  ASSERT_TRUE(wide.ok());
  EXPECT_FALSE(wide->narrow(0));
  EXPECT_EQ(wide->num_bins(0), 500);
  EXPECT_TRUE(wide->narrow(1));
  EXPECT_EQ(wide->num_bins(1), 5);

  auto capped = BinnedDataset::Build(x, 256);
  ASSERT_TRUE(capped.ok());
  EXPECT_TRUE(capped->narrow(0));
  EXPECT_LE(capped->num_bins(0), 256);
  EXPECT_GT(capped->num_bins(0), 128);

  // Codes round-trip through the mapper for both widths.
  for (size_t i = 0; i < n; i += 17) {
    EXPECT_EQ(wide->Code(0, i), wide->mapper(0).CodeOf(x(i, 0)));
    EXPECT_EQ(capped->Code(0, i), capped->mapper(0).CodeOf(x(i, 0)));
  }
  EXPECT_EQ(wide->TotalBins(), 505u);
  EXPECT_EQ(wide->BinOffset(1), 500u);
}

TEST(BinnedDataset, RejectsBadArguments) {
  EXPECT_FALSE(BinnedDataset::Build(Matrix(), 256).ok());
  EXPECT_FALSE(BinnedDataset::Build(Matrix(3, 2), 1).ok());
  EXPECT_FALSE(BinnedDataset::Build(Matrix(3, 2), 100000).ok());

  // Every tree fit bins its data first, so an out-of-range max_bins fails
  // the fit instead of training some other way.
  Dataset ds = MakeLoanDataset(200);
  GbdtOptions gbdt_opts{.num_rounds = 3};
  gbdt_opts.tree.train.max_bins = 1;
  auto gbdt = GradientBoostedTrees::Fit(ds, gbdt_opts);
  ASSERT_FALSE(gbdt.ok());
  EXPECT_EQ(gbdt.status().code(), StatusCode::kInvalidArgument);

  RandomForestOptions forest_opts{.num_trees = 3};
  forest_opts.tree.train.max_bins = 70000;
  auto forest = RandomForest::Fit(ds, forest_opts);
  ASSERT_FALSE(forest.ok());
  EXPECT_EQ(forest.status().code(), StatusCode::kInvalidArgument);

  auto dtree = DecisionTree::Fit(ds, Config(4, 5, /*max_bins=*/0));
  ASSERT_FALSE(dtree.ok());
  EXPECT_EQ(dtree.status().code(), StatusCode::kInvalidArgument);

  auto model = DecisionTree::Fit(ds, Config(4, 5));
  ASSERT_TRUE(model.ok());
  CxplainOptions cx_opts;
  cx_opts.tree.train.max_bins = -1;
  auto cx = CxplainExplainer::Fit(*model, ds, cx_opts);
  ASSERT_FALSE(cx.ok());
  EXPECT_EQ(cx.status().code(), StatusCode::kInvalidArgument);

  // A NaN feature value fails the bin build, naming the lowest feature
  // that holds one, and with it every tree fit. +-inf stay valid.
  Matrix nan_x(1000, 3);
  for (size_t i = 0; i < nan_x.rows(); ++i)
    for (size_t j = 0; j < nan_x.cols(); ++j)
      nan_x(i, j) = static_cast<double>((i * (j + 3)) % 17);
  nan_x(10, 2) = std::numeric_limits<double>::infinity();
  nan_x(20, 0) = -std::numeric_limits<double>::infinity();
  ASSERT_TRUE(BinnedDataset::Build(nan_x, 256).ok());
  nan_x(999, 2) = std::nan("");
  nan_x(500, 1) = -std::nan("");
  auto nan_binned = BinnedDataset::Build(nan_x, 256);
  ASSERT_FALSE(nan_binned.ok());
  EXPECT_EQ(nan_binned.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(nan_binned.status().message().find("feature 1"),
            std::string::npos)
      << nan_binned.status().message();

  Dataset nan_ds = MakeLoanDataset(200);
  nan_ds.mutable_x()(57, 3) = std::nan("");
  auto nan_gbdt = GradientBoostedTrees::Fit(nan_ds, {.num_rounds = 3});
  ASSERT_FALSE(nan_gbdt.ok());
  EXPECT_EQ(nan_gbdt.status().code(), StatusCode::kInvalidArgument);
  auto nan_forest = RandomForest::Fit(nan_ds, {.num_trees = 3});
  ASSERT_FALSE(nan_forest.ok());
  EXPECT_EQ(nan_forest.status().code(), StatusCode::kInvalidArgument);
  auto nan_dtree = DecisionTree::Fit(nan_ds, Config(4, 5));
  ASSERT_FALSE(nan_dtree.ok());
  EXPECT_EQ(nan_dtree.status().code(), StatusCode::kInvalidArgument);
  auto nan_cx = CxplainExplainer::Fit(*model, nan_ds, CxplainOptions{});
  ASSERT_FALSE(nan_cx.ok());
  EXPECT_EQ(nan_cx.status().code(), StatusCode::kInvalidArgument);
}

/// Columns that stress the binning's edges, n rows each: Gaussian,
/// lossless integers, constant, heavy duplicates, mixed +-0.0, +-inf
/// among huge finite values, subnormals, and 300 distinct values.
Matrix EdgeColumns(size_t n) {
  const double inf = std::numeric_limits<double>::infinity();
  const double huge = std::numeric_limits<double>::max();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double extremes[] = {-inf, inf, -huge, huge, -1e300, 1e300, -1e308};
  Matrix x(n, 8);
  Rng rng(static_cast<uint64_t>(n) * 31 + 5);
  for (size_t i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    const uint64_t r = rng.NextInt(1000);
    x(i, 0) = g;
    x(i, 1) = static_cast<double>(static_cast<int64_t>(r % 41) - 20);
    x(i, 2) = 3.25;
    x(i, 3) = r < 900 ? 1.0 : g;
    x(i, 4) = r % 3 == 0 ? -0.0 : r % 3 == 1 ? 0.0 : g;
    x(i, 5) = r < 300 ? extremes[r % 7] : g * 1e300;
    x(i, 6) = static_cast<double>(r % 50) * tiny * (r % 2 == 0 ? 1.0 : -1.0);
    x(i, 7) = static_cast<double>((i * 7919) % 300) * 0.37 - 50.0;
  }
  return x;
}

TEST(BinnedDataset, MatchesSortedReferenceByteForByte) {
  // The radix-sort Build against the std::sort + std::lower_bound oracle:
  // bounds and codes memcmp-equal for every column, max_bins, row count
  // (1, 15, 16, 17 and 4097 cover the 16-lane lockstep tail) and thread
  // count. CodeOf must give lower_bound's index for any non-NaN value.
  ThreadCountGuard guard;
  const double inf = std::numeric_limits<double>::infinity();
  for (const size_t n : {1, 15, 16, 17, 4097}) {
    const Matrix x = EdgeColumns(n);
    for (const int max_bins : {2, 3, 16, 255, 256, 257, 1024, 65536}) {
      std::vector<std::vector<double>> ref_bounds;
      std::vector<std::vector<uint32_t>> ref_codes;
      for (size_t f = 0; f < x.cols(); ++f) {
        const std::vector<double> col = x.Col(f);
        ref_bounds.push_back(
            reference::SortedBinBounds(col.data(), n, max_bins));
        std::vector<uint32_t> codes(n);
        for (size_t i = 0; i < n; ++i)
          codes[i] = reference::LowerBoundCode(ref_bounds[f], col[i]);
        ref_codes.push_back(std::move(codes));

        // The raw entry point and CodeOf, on the column and on probes.
        const BinMapper m = BinMapper::Build(col.data(), n, max_bins);
        ASSERT_TRUE(SameBytes(m.bounds(), ref_bounds[f]));
        std::vector<double> probes = col;
        probes.insert(probes.end(), {-inf, inf, -0.0, 0.0});
        for (const double b : ref_bounds[f])
          probes.insert(probes.end(), {b, std::nextafter(b, -inf),
                                       std::nextafter(b, inf)});
        for (const double v : probes)
          ASSERT_EQ(m.CodeOf(v), reference::LowerBoundCode(ref_bounds[f], v))
              << "v=" << v << " f=" << f << " n=" << n
              << " max_bins=" << max_bins;
      }

      for (const size_t threads : {1, 2, 4}) {
        SetGlobalThreads(threads);
        auto ds = BinnedDataset::Build(x, max_bins);
        ASSERT_TRUE(ds.ok());
        for (size_t f = 0; f < x.cols(); ++f) {
          SCOPED_TRACE(testing::Message()
                       << "f=" << f << " n=" << n << " max_bins=" << max_bins
                       << " threads=" << threads);
          ASSERT_TRUE(SameBytes(ds->mapper(f).bounds(), ref_bounds[f]));
          ASSERT_EQ(ds->narrow(f), ref_bounds[f].size() + 1 <= 256);
          if (ds->narrow(f)) {
            std::vector<uint8_t> want(ref_codes[f].begin(),
                                      ref_codes[f].end());
            EXPECT_EQ(std::memcmp(ds->Codes8(f), want.data(), n), 0);
          } else {
            std::vector<uint16_t> want(ref_codes[f].begin(),
                                       ref_codes[f].end());
            EXPECT_EQ(std::memcmp(ds->Codes16(f), want.data(),
                                  n * sizeof(uint16_t)),
                      0);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------- hist-vs-exact parity

TEST(HistLearner, IdenticalTreeOnSingleFeature) {
  // One feature: every node's value range is a contiguous run of the
  // global distinct values, so even recovered thresholds must match the
  // exact learner bit for bit, at every depth. The label is a hash bit of
  // the value — piecewise constant with many breakpoints, forcing a deep
  // tree.
  const size_t n = 600;
  Matrix x(n, 1);
  std::vector<double> y(n);
  Rng rng(3);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t v = rng.NextInt(30);
    x(i, 0) = static_cast<double>(v);
    y[i] = static_cast<double>((v * 2654435761ULL >> 7) & 1);
  }
  const Tree exact = reference::FitRegressionTreeExact(x, y, Config(6, 2));
  auto binned = BinnedDataset::Build(x, 256);
  ASSERT_TRUE(binned.ok());
  const Tree hist = FitRegressionTreeHist(*binned, y, Config(6, 2));
  ASSERT_GT(exact.nodes.size(), 5u);
  ExpectIdenticalTrees(exact, hist, /*compare_thresholds=*/true);
}

TEST(HistLearner, IdenticalStructureOnMultiFeatureIntegerData) {
  // Across features, interior nodes can see gaps in a feature's value set,
  // so recovered thresholds may sit at different (equivalent) midpoints —
  // but the structure, covers, leaf values, and every training-row
  // prediction must be identical when sums are exact.
  Dataset ds = MakeIntegerDataset(800, 5, 17, 12);
  const Tree exact =
      reference::FitRegressionTreeExact(ds.x(), ds.y(), Config(6, 5));
  auto binned = BinnedDataset::Build(ds.x(), 256);
  ASSERT_TRUE(binned.ok());
  const Tree hist =
      FitRegressionTreeHist(*binned, ds.y(), Config(6, 5));
  ASSERT_GT(exact.nodes.size(), 10u);
  ExpectIdenticalTrees(exact, hist, /*compare_thresholds=*/false);
  for (size_t i = 0; i < ds.n(); ++i) {
    EXPECT_EQ(reference::Predict(exact, ds.x().RowPtr(i)),
              reference::Predict(hist, ds.x().RowPtr(i)))
        << "row " << i;
  }
}

TEST(HistLearner, HessianWeightedParityWithinEpsilon) {
  // With real-valued hessian weights, sums accumulate in different orders
  // (sorted rows vs bins), so parity is within-epsilon rather than exact.
  Dataset ds = MakeIntegerDataset(500, 3, 23, 10);
  std::vector<double> hess(ds.n());
  Rng rng(5);
  for (double& h : hess) h = 0.5 + rng.NextDouble();
  const Tree exact = reference::FitRegressionTreeExact(
      ds.x(), ds.y(), Config(4, 5), &hess);
  auto binned = BinnedDataset::Build(ds.x(), 256);
  ASSERT_TRUE(binned.ok());
  const Tree hist =
      FitRegressionTreeHist(*binned, ds.y(), Config(4, 5), &hess);
  ASSERT_EQ(exact.nodes.size(), hist.nodes.size());
  for (size_t i = 0; i < ds.n(); ++i) {
    EXPECT_NEAR(reference::Predict(exact, ds.x().RowPtr(i)),
                reference::Predict(hist, ds.x().RowPtr(i)), 1e-9);
  }
}

TEST(HistLearner, SubtractionMatchesDirectAccumulation) {
  // Integer sums subtract exactly, so the parent − sibling histogram path
  // must give bitwise the same tree as re-accumulating both children.
  Dataset ds = MakeIntegerDataset(1000, 4, 29, 16);
  auto binned = BinnedDataset::Build(ds.x(), 256);
  ASSERT_TRUE(binned.ok());
  TreeConfig with_sub = Config(7, 2);
  TreeConfig no_sub = Config(7, 2);
  no_sub.train.hist_subtraction = false;
  const Tree a = FitRegressionTreeHist(*binned, ds.y(), with_sub);
  const Tree b = FitRegressionTreeHist(*binned, ds.y(), no_sub);
  ASSERT_GT(a.nodes.size(), 15u);
  ExpectIdenticalTrees(a, b, /*compare_thresholds=*/true);
}

TEST(HistLearner, AccuracyWithinEpsilonOfExactOnRealData) {
  Dataset ds = MakeLoanDataset(3000);
  Rng rng(9);
  auto [train, test] = ds.Split(0.7, &rng);
  const GbdtOptions opts{.num_rounds = 30};
  const GradientBoostedTrees exact = reference::FitGbdtExact(train, opts);
  auto hist = GradientBoostedTrees::Fit(train, opts);
  ASSERT_TRUE(hist.ok());
  const double auc_exact = EvaluateAuc(exact, test);
  const double auc_hist = EvaluateAuc(*hist, test);
  EXPECT_GT(auc_exact, 0.8);
  EXPECT_GT(auc_hist, 0.8);
  EXPECT_NEAR(auc_exact, auc_hist, 0.02);
}

// ------------------------------------------------ determinism + threading

TEST(HistLearner, BitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Dataset ds = MakeGaussianDataset(2000, {.seed = 31, .dims = 8, .rho = 0.3});
  GbdtOptions opts{.num_rounds = 15};

  SetGlobalThreads(1);
  auto serial = GradientBoostedTrees::Fit(ds, opts);
  ASSERT_TRUE(serial.ok());
  SetGlobalThreads(4);
  auto parallel = GradientBoostedTrees::Fit(ds, opts);
  ASSERT_TRUE(parallel.ok());

  ASSERT_EQ(serial->trees().size(), parallel->trees().size());
  for (size_t t = 0; t < serial->trees().size(); ++t)
    ExpectIdenticalTrees(serial->trees()[t], parallel->trees()[t],
                         /*compare_thresholds=*/true);
}

TEST(RandomForest, BitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Dataset ds = MakeLoanDataset(1200);
  RandomForestOptions opts{.num_trees = 12};

  SetGlobalThreads(1);
  auto serial = RandomForest::Fit(ds, opts);
  ASSERT_TRUE(serial.ok());
  SetGlobalThreads(4);
  auto parallel = RandomForest::Fit(ds, opts);
  ASSERT_TRUE(parallel.ok());

  ASSERT_EQ(serial->trees().size(), parallel->trees().size());
  for (size_t t = 0; t < serial->trees().size(); ++t)
    ExpectIdenticalTrees(serial->trees()[t], parallel->trees()[t],
                         /*compare_thresholds=*/true);
  for (size_t i = 0; i < 20; ++i)
    EXPECT_EQ(serial->Predict(ds.row(i)), parallel->Predict(ds.row(i)));
}

// --------------------------------------------------------- degenerate data

TEST(HistLearner, ConstantColumnNeverSplits) {
  const size_t n = 400;
  Matrix x(n, 2);
  std::vector<double> y(n);
  Rng rng(41);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = 7.0;  // Constant.
    x(i, 1) = static_cast<double>(rng.NextInt(10));
    y[i] = x(i, 1) >= 5.0 ? 1.0 : 0.0;
  }
  auto binned = BinnedDataset::Build(x, 256);
  ASSERT_TRUE(binned.ok());
  const Tree tree = FitRegressionTreeHist(*binned, y, Config(5, 5));
  ASSERT_GT(tree.nodes.size(), 1u);
  for (const TreeNode& node : tree.nodes)
    if (!node.is_leaf()) EXPECT_EQ(node.feature, 1);
}

TEST(HistLearner, AllConstantFeaturesYieldSingleLeaf) {
  Matrix x(50, 3, 1.0);
  std::vector<double> y(50, 0.0);
  for (size_t i = 0; i < 25; ++i) y[i] = 1.0;
  auto binned = BinnedDataset::Build(x, 256);
  ASSERT_TRUE(binned.ok());
  const Tree tree = FitRegressionTreeHist(*binned, y, Config(5, 5));
  ASSERT_EQ(tree.nodes.size(), 1u);
  EXPECT_TRUE(tree.nodes[0].is_leaf());
  EXPECT_DOUBLE_EQ(tree.nodes[0].value, 0.5);
  EXPECT_DOUBLE_EQ(tree.nodes[0].cover, 50.0);
}

TEST(HistLearner, RespectsDepthAndLeafLimits) {
  Dataset ds = MakeLoanDataset(1500);
  auto binned = BinnedDataset::Build(ds.x(), 64);
  ASSERT_TRUE(binned.ok());
  const Tree tree = FitRegressionTreeHist(*binned, ds.y(), Config(3, 40));
  EXPECT_LE(tree.MaxDepth(), 3);
  for (const TreeNode& node : tree.nodes)
    if (node.is_leaf()) EXPECT_GE(node.cover, 40.0);
}

TEST(HistLearner, WideU16FeaturesTrainCorrectly) {
  // 1000 distinct values with max_bins 2048 forces the u16 code path end
  // to end (binning, histogram accumulation, partitioning, thresholds).
  const size_t n = 2000;
  Matrix x(n, 2);
  std::vector<double> y(n);
  Rng rng(47);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(rng.NextInt(1000));
    x(i, 1) = rng.Gaussian();
    y[i] = x(i, 0) >= 500.0 ? 1.0 : 0.0;
  }
  auto binned = BinnedDataset::Build(x, 2048);
  ASSERT_TRUE(binned.ok());
  EXPECT_FALSE(binned->narrow(0));
  const Tree tree = FitRegressionTreeHist(*binned, y, Config(4, 10));
  ASSERT_FALSE(tree.nodes[0].is_leaf());
  // The label rule is recoverable: training error should be near zero.
  size_t errors = 0;
  for (size_t i = 0; i < n; ++i)
    if ((reference::Predict(tree, x.RowPtr(i)) >= 0.5) != (y[i] >= 0.5))
      ++errors;
  EXPECT_LT(static_cast<double>(errors) / static_cast<double>(n), 0.02);
}

// ------------------------------------------------------- GBDT integration

TEST(HistLearner, LeafOfRowMatchesTreeTraversal) {
  // The GBDT margin update trusts leaf_of_row instead of re-walking the
  // tree: the two must agree on every training row.
  Dataset ds = MakeLoanDataset(1000);
  auto binned = BinnedDataset::Build(ds.x(), 256);
  ASSERT_TRUE(binned.ok());
  std::vector<int32_t> leaf_of_row;
  const Tree tree = FitRegressionTreeHist(*binned, ds.y(), Config(6, 5),
                                          nullptr, nullptr, nullptr,
                                          &leaf_of_row);
  ASSERT_EQ(leaf_of_row.size(), ds.n());
  for (size_t i = 0; i < ds.n(); ++i) {
    ASSERT_GE(leaf_of_row[i], 0);
    EXPECT_EQ(leaf_of_row[i], reference::LeafIndex(tree, ds.x().RowPtr(i)))
        << "row " << i;
  }
}

TEST(HistLearner, LeafOfRowMarksRowsOutsideSubset) {
  Dataset ds = MakeLoanDataset(300);
  auto binned = BinnedDataset::Build(ds.x(), 256);
  ASSERT_TRUE(binned.ok());
  std::vector<size_t> subset;
  for (size_t i = 0; i < ds.n(); i += 2) subset.push_back(i);
  std::vector<int32_t> leaf_of_row;
  const Tree tree = FitRegressionTreeHist(*binned, ds.y(), Config(4, 5),
                                          nullptr, &subset, nullptr,
                                          &leaf_of_row);
  for (size_t i = 0; i < ds.n(); ++i) {
    if (i % 2 == 0) {
      EXPECT_GE(leaf_of_row[i], 0);
    } else {
      EXPECT_EQ(leaf_of_row[i], -1);
    }
  }
}

TEST(Gbdt, SubsampledHistTrainingStillLearns) {
  // Subsampled rounds route margin updates through the compiled flat
  // ensemble; the fit must stay deterministic and accurate.
  Dataset ds = MakeLoanDataset(2000);
  Rng rng(13);
  auto [train, test] = ds.Split(0.7, &rng);
  GbdtOptions opts{.num_rounds = 40, .subsample = 0.7};
  auto a = GradientBoostedTrees::Fit(train, opts);
  auto b = GradientBoostedTrees::Fit(train, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(EvaluateAuc(*a, test), 0.8);
  EXPECT_EQ(a->Predict(test.row(0)), b->Predict(test.row(0)));
}

TEST(DecisionTree, HistDefaultMatchesExactOnSmallData) {
  // DecisionTree::Fit trains with the histogram learner; on integer data
  // it agrees exactly with the exact oracle (modulo interior thresholds).
  Dataset ds = MakeIntegerDataset(500, 3, 53, 8);
  const TreeConfig cfg = Config(5, 5);
  const DecisionTree exact = DecisionTree::FromParts(
      reference::FitRegressionTreeExact(ds.x(), ds.y(), cfg), ds.d());
  auto hist = DecisionTree::Fit(ds, cfg);
  ASSERT_TRUE(hist.ok());
  for (size_t i = 0; i < ds.n(); ++i)
    EXPECT_EQ(exact.Predict(ds.row(i)), hist->Predict(ds.row(i)));
}

}  // namespace
}  // namespace xai
