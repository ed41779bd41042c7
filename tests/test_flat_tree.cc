// Flat-vs-node equivalence suite for the compiled FlatEnsemble runtime
// (label: flat, runs in the TSan CI job).
//
// The contract under test: every prediction and every TreeSHAP value
// produced off the flat SoA arrays is the SAME DOUBLE as the node-object
// reference walkers (tests/reference/) — for degenerate single-leaf
// trees, rows sitting exactly on a split threshold, deep trees, any thread
// count, and across a serialize -> load -> recompile round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "feature/tree_shap.h"
#include "math/matrix.h"
#include "model/decision_tree.h"
#include "model/flat_tree.h"
#include "model/gbdt.h"
#include "model/serialize.h"
#include "reference/tree_walkers.h"

namespace xai {
namespace {

/// Node-based reference margin: base + lr * sum_t tree_t, accumulated in
/// tree order exactly like the flat path claims to.
std::vector<double> NodeMarginBatch(const GradientBoostedTrees& gbdt,
                                    const Matrix& x) {
  std::vector<double> out(x.rows(), gbdt.base_score());
  for (const Tree& t : gbdt.trees())
    reference::AccumulateBatch(t, x, gbdt.learning_rate(), &out);
  return out;
}

TEST(FlatTree, GbdtFlatMatchesNodeReferenceExactly) {
  Dataset ds = MakeLoanDataset(600);
  auto gbdt = GradientBoostedTrees::Fit(
      ds, {.num_rounds = 40, .tree = {.max_depth = 5, .min_samples_leaf = 3}});
  ASSERT_TRUE(gbdt.ok());
  const std::vector<double> flat = gbdt->PredictMarginBatch(ds.x());
  const std::vector<double> node = NodeMarginBatch(*gbdt, ds.x());
  for (size_t i = 0; i < ds.n(); ++i) {
    EXPECT_EQ(flat[i], node[i]) << "row " << i;
    // Scalar path routes through the same arrays.
    EXPECT_EQ(gbdt->PredictMargin(ds.row(i)), node[i]) << "row " << i;
  }
}

TEST(FlatTree, ForestAndDtreeFlatMatchNodeReferenceExactly) {
  Dataset ds = MakeCreditDataset(400);
  auto forest = RandomForest::Fit(ds, {.num_trees = 20});
  ASSERT_TRUE(forest.ok());
  auto dtree = DecisionTree::Fit(ds, {.max_depth = 7, .min_samples_leaf = 2});
  ASSERT_TRUE(dtree.ok());
  const std::vector<double> forest_flat = forest->PredictBatch(ds.x());
  const std::vector<double> dtree_flat = dtree->PredictBatch(ds.x());
  for (size_t i = 0; i < ds.n(); ++i) {
    double node_sum = 0.0;
    for (const Tree& t : forest->trees())
      node_sum += reference::Predict(t, ds.row(i));
    EXPECT_EQ(forest_flat[i],
              node_sum / static_cast<double>(forest->trees().size()));
    EXPECT_EQ(dtree_flat[i], reference::Predict(dtree->tree(), ds.row(i)));
  }
}

TEST(FlatTree, BoundaryRowsExactlyOnThresholdRouteIdentically) {
  // x == threshold must go left in both runtimes. Probe every internal
  // node of a fitted ensemble by planting its threshold into a real row.
  Dataset ds = MakeLoanDataset(500);
  auto gbdt = GradientBoostedTrees::Fit(
      ds, {.num_rounds = 10, .tree = {.max_depth = 4, .min_samples_leaf = 5}});
  ASSERT_TRUE(gbdt.ok());
  Rng rng(123);
  std::vector<std::vector<double>> probes;
  for (const Tree& t : gbdt->trees())
    for (const TreeNode& n : t.nodes) {
      if (n.is_leaf()) continue;
      std::vector<double> row =
          ds.row(static_cast<size_t>(rng.NextInt(ds.n())));
      row[static_cast<size_t>(n.feature)] = n.threshold;
      probes.push_back(std::move(row));
    }
  ASSERT_FALSE(probes.empty());
  Matrix m(probes.size(), ds.d());
  for (size_t i = 0; i < probes.size(); ++i) m.SetRow(i, probes[i]);
  const std::vector<double> flat = gbdt->PredictMarginBatch(m);
  const std::vector<double> node = NodeMarginBatch(*gbdt, m);
  for (size_t i = 0; i < probes.size(); ++i)
    EXPECT_EQ(flat[i], node[i]) << "probe " << i;
}

TEST(FlatTree, HandBuiltBoundarySplitGoesLeft) {
  Tree tree;
  tree.nodes.resize(3);
  tree.nodes[0] = {.feature = 0, .threshold = 1.5, .left = 1, .right = 2,
                   .value = 0.0, .cover = 10.0};
  tree.nodes[1] = {.feature = -1, .threshold = 0.0, .left = -1, .right = -1,
                   .value = 10.0, .cover = 6.0};
  tree.nodes[2] = {.feature = -1, .threshold = 0.0, .left = -1, .right = -1,
                   .value = 20.0, .cover = 4.0};
  const FlatEnsemble flat = FlatEnsemble::Compile(tree);
  const double on_boundary[] = {1.5};
  const double above[] = {1.5000000000000002};
  EXPECT_EQ(flat.PredictTree(0, on_boundary), 10.0);
  EXPECT_EQ(flat.PredictTree(0, above), 20.0);
  EXPECT_EQ(flat.depth(0), 1);
  EXPECT_EQ(flat.expected_value(0), tree.ExpectedValue());
}

TEST(FlatTree, SingleLeafDegenerateTree) {
  Tree leaf_only;
  leaf_only.nodes.resize(1);
  leaf_only.nodes[0] = {.feature = -1, .threshold = 0.0, .left = -1,
                        .right = -1, .value = 3.25, .cover = 7.0};
  const FlatEnsemble flat = FlatEnsemble::Compile(leaf_only);
  ASSERT_EQ(flat.num_trees(), 1u);
  EXPECT_EQ(flat.depth(0), 0);
  EXPECT_TRUE(flat.is_leaf(flat.root(0)));
  const double x[] = {0.0, 1.0};
  EXPECT_EQ(flat.PredictTree(0, x), 3.25);
  EXPECT_EQ(flat.expected_value(0), 3.25);
  std::vector<double> out(3, 1.0);
  Matrix rows(3, 2);
  flat.AccumulateTree(0, rows, 2.0, &out);
  for (double v : out) EXPECT_EQ(v, 1.0 + 2.0 * 3.25);
  // TreeSHAP of a constant tree: no feature gets credit.
  std::vector<double> phi(2, 0.0);
  FlatTreeShapValues(flat, 0, x, &phi);
  EXPECT_EQ(phi[0], 0.0);
  EXPECT_EQ(phi[1], 0.0);
}

TEST(FlatTree, DeepTreeEquivalenceOnRandomRows) {
  Dataset ds = MakeGaussianDataset(1500, {.seed = 9, .dims = 6});
  auto dtree =
      DecisionTree::Fit(ds, {.max_depth = 14, .min_samples_leaf = 1});
  ASSERT_TRUE(dtree.ok());
  ASSERT_GE(dtree->tree().MaxDepth(), 10);
  Rng rng(77);
  Matrix probes(500, ds.d());
  for (size_t i = 0; i < probes.rows(); ++i) {
    std::vector<double> row = ds.row(static_cast<size_t>(rng.NextInt(ds.n())));
    for (double& v : row) v += rng.Gaussian(0.0, 0.3);
    probes.SetRow(i, row);
  }
  const std::vector<double> flat = dtree->PredictBatch(probes);
  for (size_t i = 0; i < probes.rows(); ++i)
    EXPECT_EQ(flat[i], reference::Predict(dtree->tree(), probes.Row(i)))
        << "row " << i;
}

TEST(FlatTree, ExpectedValuePrecomputedBitExact) {
  Dataset ds = MakeLoanDataset(400);
  auto gbdt = GradientBoostedTrees::Fit(ds, {.num_rounds = 15});
  ASSERT_TRUE(gbdt.ok());
  const FlatEnsemble& flat = gbdt->flat();
  ASSERT_EQ(flat.num_trees(), gbdt->trees().size());
  for (size_t t = 0; t < flat.num_trees(); ++t)
    EXPECT_EQ(flat.expected_value(t), gbdt->trees()[t].ExpectedValue());
}

/// `plain` dataset rows, then up to `planted` rows with one split
/// threshold of `trees` planted into its feature (x == threshold must go
/// left everywhere), spread over the ensemble's internal nodes.
Matrix ProbeRows(const Dataset& ds, const std::vector<Tree>& trees,
                 size_t plain, size_t planted) {
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < plain; ++i) rows.push_back(ds.row(i));
  std::vector<const TreeNode*> splits;
  for (const Tree& t : trees)
    for (const TreeNode& n : t.nodes)
      if (!n.is_leaf()) splits.push_back(&n);
  const size_t stride =
      std::max<size_t>(1, splits.size() / std::max<size_t>(1, planted));
  Rng rng(123);
  for (size_t k = 0; k < splits.size() && rows.size() < plain + planted;
       k += stride) {
    std::vector<double> row = ds.row(static_cast<size_t>(rng.NextInt(ds.n())));
    row[static_cast<size_t>(splits[k]->feature)] = splits[k]->threshold;
    rows.push_back(std::move(row));
  }
  Matrix m(rows.size(), ds.d());
  for (size_t i = 0; i < rows.size(); ++i) m.SetRow(i, rows[i]);
  return m;
}

/// Explain, ExplainBatch and per-tree FlatTreeShapValues against the node
/// reference on every row, EXPECT_EQ throughout. base_value and prediction
/// must be the formula base + sum_t scale * (tree_t(x) - E[tree_t]),
/// accumulated in tree order.
void ExpectShapMatchesReference(const std::string& label,
                                const std::vector<Tree>& trees,
                                const FlatEnsemble& flat, double scale,
                                double base, TreeShapExplainer* explainer,
                                const Matrix& rows) {
  const size_t d = rows.cols();
  auto batch = explainer->ExplainBatch(rows);
  ASSERT_TRUE(batch.ok()) << label;
  ASSERT_EQ(batch->size(), rows.rows()) << label;
  for (size_t i = 0; i < rows.rows(); ++i) {
    const std::vector<double> x = rows.Row(i);
    const std::vector<double> node =
        reference::EnsembleTreeShap(trees, scale, d, x);
    double margin = base;
    for (const Tree& t : trees)
      margin += scale * (reference::Predict(t, x) - t.ExpectedValue());
    auto single = explainer->Explain(x);
    ASSERT_TRUE(single.ok()) << label;
    for (const FeatureAttribution* a : {&*single, &(*batch)[i]}) {
      EXPECT_EQ(a->base_value, base) << label << " row " << i;
      EXPECT_EQ(a->prediction, margin) << label << " row " << i;
      for (size_t j = 0; j < d; ++j)
        EXPECT_EQ(a->values[j], node[j]) << label << " row " << i;
    }
    for (size_t t = 0; t < trees.size(); ++t) {
      std::vector<double> node_phi(d, 0.0);
      std::vector<double> flat_phi(d, 0.0);
      reference::TreeShapValues(trees[t], x, &node_phi);
      FlatTreeShapValues(flat, t, x.data(), &flat_phi);
      for (size_t j = 0; j < d; ++j)
        EXPECT_EQ(flat_phi[j], node_phi[j])
            << label << " row " << i << " tree " << t;
    }
  }
}

double GbdtBase(const GradientBoostedTrees& gbdt) {
  double base = gbdt.base_score();
  for (const Tree& t : gbdt.trees())
    base += gbdt.learning_rate() * t.ExpectedValue();
  return base;
}

TEST(FlatTree, FlatTreeShapMatchesNodeWalkerBitExact) {
  // Leaf tables (small trees) and the path recursion (trees past the
  // table budget) must both give the node walker's doubles. Each case
  // asserts which of the two it runs.
  Dataset loan = MakeLoanDataset(500);
  for (int depth : {4, 6}) {
    auto gbdt = GradientBoostedTrees::Fit(
        loan, {.num_rounds = 25,
               .tree = {.max_depth = depth, .min_samples_leaf = 4}});
    ASSERT_TRUE(gbdt.ok());
    TreeShapExplainer explainer(*gbdt, loan.schema());
    EXPECT_EQ(explainer.tabulated_trees(), gbdt->trees().size());
    EXPECT_GT(explainer.table_bytes(), 0u);
    ExpectShapMatchesReference(
        "logistic gbdt depth " + std::to_string(depth), gbdt->trees(),
        gbdt->flat(), gbdt->learning_rate(), GbdtBase(*gbdt), &explainer,
        ProbeRows(loan, gbdt->trees(), 40, 40));
    // Local accuracy against the flat margin.
    for (size_t i = 0; i < 40; ++i) {
      auto attr = explainer.Explain(loan.row(i));
      ASSERT_TRUE(attr.ok());
      double sum = 0.0;
      for (double v : attr->values) sum += v;
      EXPECT_NEAR(sum, gbdt->PredictMargin(loan.row(i)) - attr->base_value,
                  1e-9);
    }
  }

  Dataset gauss = MakeGaussianDataset(800, {.seed = 4, .dims = 5});
  auto squared = GradientBoostedTrees::Fit(
      gauss, {.loss = GbdtLoss::kSquared, .num_rounds = 15,
              .tree = {.max_depth = 5, .min_samples_leaf = 3}});
  ASSERT_TRUE(squared.ok());
  TreeShapExplainer squared_shap(*squared, gauss.schema());
  EXPECT_EQ(squared_shap.tabulated_trees(), squared->trees().size());
  ExpectShapMatchesReference("squared gbdt", squared->trees(),
                             squared->flat(), squared->learning_rate(),
                             GbdtBase(*squared), &squared_shap,
                             ProbeRows(gauss, squared->trees(), 30, 30));

  Dataset credit = MakeCreditDataset(400);
  auto forest = RandomForest::Fit(credit, {.num_trees = 12});
  ASSERT_TRUE(forest.ok());
  TreeShapExplainer forest_shap(*forest, credit.schema());
  EXPECT_EQ(forest_shap.tabulated_trees(), forest->trees().size());
  const double forest_scale = 1.0 / static_cast<double>(forest->trees().size());
  double forest_base = 0.0;
  for (const Tree& t : forest->trees())
    forest_base += forest_scale * t.ExpectedValue();
  ExpectShapMatchesReference("forest", forest->trees(), forest->flat(),
                             forest_scale, forest_base, &forest_shap,
                             ProbeRows(credit, forest->trees(), 30, 30));

  auto dtree = DecisionTree::Fit(credit, {.max_depth = 7,
                                          .min_samples_leaf = 2});
  ASSERT_TRUE(dtree.ok());
  TreeShapExplainer dtree_shap(*dtree, credit.schema());
  EXPECT_EQ(dtree_shap.tabulated_trees(), 1u);
  ExpectShapMatchesReference("dtree", {dtree->tree()}, dtree->flat(), 1.0,
                             dtree->tree().ExpectedValue(), &dtree_shap,
                             ProbeRows(credit, {dtree->tree()}, 30, 30));

  // Deep trees on 6 features: paths repeat features, so Unwind runs. The
  // 20 trees outgrow the table budget together, so one explainer runs
  // tables for the first trees and the recursion for the rest.
  Dataset six = MakeGaussianDataset(1500, {.seed = 9, .dims = 6});
  auto deep_forest = RandomForest::Fit(
      six, {.num_trees = 20, .tree = {.max_depth = 9, .min_samples_leaf = 1}});
  ASSERT_TRUE(deep_forest.ok());
  ASSERT_GE(deep_forest->flat().depth(0), 8);
  TreeShapExplainer deep_forest_shap(*deep_forest, six.schema());
  EXPECT_GT(deep_forest_shap.tabulated_trees(), 0u);
  EXPECT_LT(deep_forest_shap.tabulated_trees(), deep_forest->trees().size());
  const double deep_scale =
      1.0 / static_cast<double>(deep_forest->trees().size());
  double deep_base = 0.0;
  for (const Tree& t : deep_forest->trees())
    deep_base += deep_scale * t.ExpectedValue();
  ExpectShapMatchesReference("forest depth 9 on 6 features",
                             deep_forest->trees(), deep_forest->flat(),
                             deep_scale, deep_base, &deep_forest_shap,
                             ProbeRows(six, deep_forest->trees(), 20, 20));

  // The depth-14 tree of DeepTreeEquivalenceOnRandomRows cannot fit the
  // budget: the recursion explains it.
  auto deep = DecisionTree::Fit(six, {.max_depth = 14, .min_samples_leaf = 1});
  ASSERT_TRUE(deep.ok());
  ASSERT_GE(deep->tree().MaxDepth(), 10);
  TreeShapExplainer deep_shap(*deep, six.schema());
  EXPECT_EQ(deep_shap.tabulated_trees(), 0u);
  EXPECT_EQ(deep_shap.table_bytes(), 0u);
  ExpectShapMatchesReference("dtree depth 14", {deep->tree()}, deep->flat(),
                             1.0, deep->tree().ExpectedValue(), &deep_shap,
                             ProbeRows(six, {deep->tree()}, 30, 30));

  // A single-leaf tree: a one-row table with no features.
  Tree leaf_only;
  leaf_only.nodes.resize(1);
  leaf_only.nodes[0] = {.feature = -1, .threshold = 0.0, .left = -1,
                        .right = -1, .value = 3.25, .cover = 7.0};
  const DecisionTree constant = DecisionTree::FromParts(leaf_only, six.d());
  TreeShapExplainer constant_shap(constant, six.schema());
  EXPECT_EQ(constant_shap.tabulated_trees(), 1u);
  ExpectShapMatchesReference("single leaf", {leaf_only}, constant.flat(), 1.0,
                             3.25, &constant_shap,
                             ProbeRows(six, {leaf_only}, 5, 0));
}

TEST(FlatTree, ExplainBatchBitIdenticalAtEveryThreadCount) {
  Dataset ds = MakeLoanDataset(512);
  auto gbdt = GradientBoostedTrees::Fit(ds, {.num_rounds = 12});
  ASSERT_TRUE(gbdt.ok());
  TreeShapExplainer explainer(*gbdt, ds.schema());
  const size_t n = 257;  // Eight full 32-row blocks plus a partial one.
  Matrix rows(n, ds.d());
  for (size_t i = 0; i < n; ++i) rows.SetRow(i, ds.row(i));

  // Serial per-row reference.
  std::vector<FeatureAttribution> serial(n);
  for (size_t i = 0; i < n; ++i) {
    auto attr = explainer.Explain(ds.row(i));
    ASSERT_TRUE(attr.ok());
    serial[i] = *attr;
  }
  auto expect_serial = [&](const FeatureAttribution& a, size_t i,
                           const std::string& what) {
    EXPECT_EQ(a.base_value, serial[i].base_value) << what << " row " << i;
    EXPECT_EQ(a.prediction, serial[i].prediction) << what << " row " << i;
    for (size_t j = 0; j < ds.d(); ++j)
      EXPECT_EQ(a.values[j], serial[i].values[j]) << what << " row " << i;
  };

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetGlobalThreads(threads);
    const std::string at = "threads " + std::to_string(threads);
    // ExplainBatch's own blocks: the 256 full-block rows, then all 257.
    for (size_t batch_rows : {size_t{256}, n}) {
      std::vector<size_t> idx(batch_rows);
      for (size_t i = 0; i < batch_rows; ++i) idx[i] = i;
      auto attrs = explainer.ExplainBatch(rows.SelectRows(idx));
      ASSERT_TRUE(attrs.ok());
      ASSERT_EQ(attrs->size(), batch_rows);
      for (size_t i = 0; i < batch_rows; ++i)
        expect_serial((*attrs)[i], i,
                      at + " batch " + std::to_string(batch_rows));
    }

    // The serving idiom: fixed row chunks dispatched over the global pool,
    // one ExplainBatch per chunk, so one explainer serves concurrent calls.
    constexpr size_t kChunk = 64;
    std::vector<FeatureAttribution> parallel(n);
    const size_t num_chunks = (n + kChunk - 1) / kChunk;
    GlobalPool().ParallelFor(0, num_chunks, 1, [&](size_t c) {
      const size_t begin = c * kChunk;
      const size_t end = std::min(begin + kChunk, n);
      Matrix block(end - begin, ds.d());
      for (size_t i = begin; i < end; ++i) block.SetRow(i - begin, rows.Row(i));
      auto attrs = explainer.ExplainBatch(block);
      ASSERT_TRUE(attrs.ok());
      for (size_t i = begin; i < end; ++i) parallel[i] = (*attrs)[i - begin];
    });
    for (size_t i = 0; i < n; ++i)
      expect_serial(parallel[i], i, at + " chunked");
  }
  SetGlobalThreads(0);  // Restore env/hardware default.
}

TEST(FlatTree, SerializeLoadCompileRoundTrip) {
  Dataset ds = MakeLoanDataset(500);
  auto gbdt = GradientBoostedTrees::Fit(ds, {.num_rounds = 20});
  ASSERT_TRUE(gbdt.ok());
  const std::string path = "/tmp/xai_flat_roundtrip_gbdt.txt";
  ASSERT_TRUE(SaveModel(*gbdt, path).ok());
  auto any = LoadAnyModel(path);
  ASSERT_TRUE(any.ok());
  const auto* loaded = dynamic_cast<const GradientBoostedTrees*>(any->get());
  ASSERT_NE(loaded, nullptr);
  // The loaded model recompiled its own FlatEnsemble; every flat
  // prediction and explanation must match the original's.
  EXPECT_EQ(loaded->flat().num_trees(), gbdt->flat().num_trees());
  EXPECT_EQ(loaded->flat().num_nodes(), gbdt->flat().num_nodes());
  const std::vector<double> a = gbdt->PredictMarginBatch(ds.x());
  const std::vector<double> b = loaded->PredictMarginBatch(ds.x());
  for (size_t i = 0; i < ds.n(); ++i) EXPECT_EQ(a[i], b[i]);
  TreeShapExplainer e1(*gbdt, ds.schema());
  TreeShapExplainer e2(*loaded, ds.schema());
  Matrix rows(30, ds.d());
  for (size_t i = 0; i < 30; ++i) rows.SetRow(i, ds.row(i));
  auto a1 = e1.ExplainBatch(rows);
  auto a2 = e2.ExplainBatch(rows);
  ASSERT_TRUE(a1.ok() && a2.ok());
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_EQ((*a1)[i].base_value, (*a2)[i].base_value);
    EXPECT_EQ((*a1)[i].prediction, (*a2)[i].prediction);
    for (size_t j = 0; j < ds.d(); ++j)
      EXPECT_EQ((*a1)[i].values[j], (*a2)[i].values[j]);
  }
  std::remove(path.c_str());
}

TEST(FlatTree, ForestAndDtreeSerializationRoundTrip) {
  Dataset ds = MakeCreditDataset(300);
  auto forest = RandomForest::Fit(ds, {.num_trees = 10});
  ASSERT_TRUE(forest.ok());
  auto dtree = DecisionTree::Fit(ds);
  ASSERT_TRUE(dtree.ok());

  const std::string fpath = "/tmp/xai_flat_roundtrip_forest.txt";
  ASSERT_TRUE(SaveModel(*forest, fpath).ok());
  EXPECT_EQ(*PeekModelType(fpath), "forest");
  auto fany = LoadAnyModel(fpath);
  ASSERT_TRUE(fany.ok());
  const auto* floaded = dynamic_cast<const RandomForest*>(fany->get());
  ASSERT_NE(floaded, nullptr);
  const std::vector<double> fa = forest->PredictBatch(ds.x());
  const std::vector<double> fb = floaded->PredictBatch(ds.x());
  for (size_t i = 0; i < ds.n(); ++i) EXPECT_EQ(fa[i], fb[i]);

  const std::string dpath = "/tmp/xai_flat_roundtrip_dtree.txt";
  ASSERT_TRUE(SaveModel(*dtree, dpath).ok());
  EXPECT_EQ(*PeekModelType(dpath), "dtree");
  auto dany = LoadAnyModel(dpath);
  ASSERT_TRUE(dany.ok());
  const auto* dloaded = dynamic_cast<const DecisionTree*>(dany->get());
  ASSERT_NE(dloaded, nullptr);
  const std::vector<double> da = dtree->PredictBatch(ds.x());
  const std::vector<double> db = dloaded->PredictBatch(ds.x());
  for (size_t i = 0; i < ds.n(); ++i) EXPECT_EQ(da[i], db[i]);

  // Each artifact loads as its own kind, never as the other.
  EXPECT_EQ(dynamic_cast<const RandomForest*>(dany->get()), nullptr);
  EXPECT_EQ(dynamic_cast<const DecisionTree*>(fany->get()), nullptr);
  std::remove(fpath.c_str());
  std::remove(dpath.c_str());
}

}  // namespace
}  // namespace xai
