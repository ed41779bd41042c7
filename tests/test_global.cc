#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "data/synthetic.h"
#include "feature/global_explanations.h"
#include "feature/tree_shap.h"
#include "model/gbdt.h"
#include "model/linear_regression.h"
#include "model/logistic_regression.h"

namespace xai {
namespace {

TEST(PermutationImportance, RanksByTrueWeight) {
  // Ground-truth weights decay as 1/(j+1): importance should follow.
  Dataset ds = MakeGaussianDataset(3000, {.seed = 3, .dims = 5});
  auto model = LogisticRegression::Fit(ds);
  ASSERT_TRUE(model.ok());
  std::vector<double> imp = PermutationImportance(*model, ds);
  EXPECT_GT(imp[0], imp[2]);
  EXPECT_GT(imp[0], imp[3]);
  EXPECT_GT(imp[0], imp[4]);
  EXPECT_GT(imp[0], 0.01);
}

TEST(PermutationImportance, ZeroForIgnoredFeature) {
  Dataset ds = MakeGaussianDataset(1000, {.seed = 5, .dims = 3});
  auto model = MakeLambdaModel(3, [](const std::vector<double>& x) {
    return x[0] > 0 ? 0.9 : 0.1;  // Uses only feature 0.
  });
  std::vector<double> imp = PermutationImportance(model, ds);
  EXPECT_NEAR(imp[1], 0.0, 1e-12);
  EXPECT_NEAR(imp[2], 0.0, 1e-12);
  EXPECT_GT(imp[0], 0.1);
}

TEST(PartialDependence, LinearModelGivesLinearPd) {
  std::vector<double> w;
  Dataset ds = MakeLinearRegressionDataset(800, 3, 11, &w);
  auto model = LinearRegression::Fit(ds);
  ASSERT_TRUE(model.ok());
  auto pd = ComputePartialDependence(*model, ds, 1, 10);
  ASSERT_TRUE(pd.ok());
  ASSERT_EQ(pd->grid.size(), 10u);
  // Slope of the PD curve == the model's weight on that feature.
  const double slope = (pd->average_prediction.back() -
                        pd->average_prediction.front()) /
                       (pd->grid.back() - pd->grid.front());
  EXPECT_NEAR(slope, model->weights()[1], 1e-9);
  EXPECT_FALSE(ComputePartialDependence(*model, ds, 99).ok());
}

TEST(PartialDependence, CategoricalGridEnumeratesCategories) {
  Dataset ds = MakeLoanDataset(500);
  auto model = GradientBoostedTrees::Fit(ds, {.num_rounds = 20});
  ASSERT_TRUE(model.ok());
  auto pd = ComputePartialDependence(*model, ds, 5);  // education, 4 cats.
  ASSERT_TRUE(pd.ok());
  EXPECT_EQ(pd->grid.size(), 4u);
  // Better education should not decrease approval on average (monotone
  // generative coefficient).
  EXPECT_GE(pd->average_prediction[3], pd->average_prediction[0] - 0.02);
}

TEST(IceCurves, AverageOfIceIsPd) {
  Dataset ds = MakeGaussianDataset(300, {.seed = 9, .dims = 3});
  auto model = LogisticRegression::Fit(ds);
  ASSERT_TRUE(model.ok());
  const size_t rows = 40;
  auto ice = ComputeIceCurves(*model, ds, 0, 8, rows);
  auto pd = ComputePartialDependence(*model, ds, 0, 8, rows);
  ASSERT_TRUE(ice.ok() && pd.ok());
  ASSERT_EQ(ice->curves.size(), rows);
  for (size_t g = 0; g < ice->grid.size(); ++g) {
    double avg = 0.0;
    for (const auto& curve : ice->curves) avg += curve[g] / rows;
    EXPECT_NEAR(avg, pd->average_prediction[g], 1e-9);
  }
}

TEST(ShapSummaryStats, DirectionTracksWeightSign) {
  Dataset ds = MakeLoanDataset(800);
  auto gbdt = GradientBoostedTrees::Fit(ds, {.num_rounds = 30});
  ASSERT_TRUE(gbdt.ok());
  TreeShapExplainer explainer(*gbdt, ds.schema());
  auto summary = SummarizeAttributions(&explainer, ds, 80);
  ASSERT_TRUE(summary.ok());
  auto income = ds.schema().FeatureIndex("income");
  auto debt = ds.schema().FeatureIndex("debt");
  ASSERT_TRUE(income.ok() && debt.ok());
  EXPECT_GT(summary->direction[*income], 0.3);   // More income -> approve.
  EXPECT_LT(summary->direction[*debt], -0.1);    // More debt -> deny.
  EXPECT_GT(summary->mean_abs_attribution[*income],
            summary->mean_abs_attribution[7]);   // income >> married.
  // With no rows to average (max_rows 0, or an empty dataset) the global
  // importance is the zero vector, not 0/0.
  const Dataset empty = ds.Select({});
  for (const std::vector<double>& imp :
       {GlobalMeanAbsShap(&explainer, ds, 0),
        GlobalMeanAbsShap(&explainer, empty, 200)}) {
    ASSERT_EQ(imp.size(), ds.d());
    for (double v : imp) EXPECT_EQ(v, 0.0);
  }
}

TEST(SubmodularPick, CoversFeaturesAndRespectsBudget) {
  Dataset ds = MakeLoanDataset(400);
  auto gbdt = GradientBoostedTrees::Fit(ds, {.num_rounds = 20});
  ASSERT_TRUE(gbdt.ok());
  TreeShapExplainer explainer(*gbdt, ds.schema());
  auto picks = SubmodularPick(&explainer, ds, 3, 40);
  ASSERT_TRUE(picks.ok());
  EXPECT_LE(picks->size(), 3u);
  EXPECT_FALSE(picks->empty());
  // Picks are distinct rows.
  std::vector<size_t> sorted = *picks;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  // The first pick alone should already touch several features.
  auto attr = explainer.Explain(ds.row((*picks)[0]));
  ASSERT_TRUE(attr.ok());
  size_t nonzero = 0;
  for (double v : attr->values)
    if (std::fabs(v) > 1e-9) ++nonzero;
  EXPECT_GE(nonzero, 3u);
}

}  // namespace
}  // namespace xai
