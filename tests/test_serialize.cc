#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "feature/tree_shap.h"
#include "model/serialize.h"

namespace xai {
namespace {

TEST(Serialize, LinearRoundTrip) {
  std::vector<double> w;
  Dataset ds = MakeLinearRegressionDataset(200, 5, 3, &w);
  auto model = LinearRegression::Fit(ds);
  ASSERT_TRUE(model.ok());
  const std::string path = "/tmp/xai_model_linear.txt";
  ASSERT_TRUE(SaveModel(*model, path).ok());
  EXPECT_EQ(*PeekModelType(path), "linear");
  auto any = LoadAnyModel(path);
  ASSERT_TRUE(any.ok());
  const auto* loaded = dynamic_cast<const LinearRegression*>(any->get());
  ASSERT_NE(loaded, nullptr);
  for (size_t i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(loaded->Predict(ds.row(i)), model->Predict(ds.row(i)));
  EXPECT_DOUBLE_EQ(loaded->lambda(), model->lambda());
  std::remove(path.c_str());
}

TEST(Serialize, LogisticRoundTrip) {
  Dataset ds = MakeGaussianDataset(300, {.seed = 5, .dims = 4});
  auto model = LogisticRegression::Fit(ds, {.lambda = 0.01});
  ASSERT_TRUE(model.ok());
  const std::string path = "/tmp/xai_model_logistic.txt";
  ASSERT_TRUE(SaveModel(*model, path).ok());
  EXPECT_EQ(*PeekModelType(path), "logistic");
  auto any = LoadAnyModel(path);
  ASSERT_TRUE(any.ok());
  const auto* loaded = dynamic_cast<const LogisticRegression*>(any->get());
  ASSERT_NE(loaded, nullptr);
  for (size_t i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(loaded->Predict(ds.row(i)), model->Predict(ds.row(i)));
  std::remove(path.c_str());
}

TEST(Serialize, GbdtRoundTripBitExact) {
  Dataset ds = MakeLoanDataset(800);
  auto model = GradientBoostedTrees::Fit(ds, {.num_rounds = 25});
  ASSERT_TRUE(model.ok());
  const std::string path = "/tmp/xai_model_gbdt.txt";
  ASSERT_TRUE(SaveModel(*model, path).ok());
  EXPECT_EQ(*PeekModelType(path), "gbdt");
  auto any = LoadAnyModel(path);
  ASSERT_TRUE(any.ok());
  const auto* loaded = dynamic_cast<const GradientBoostedTrees*>(any->get());
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->trees().size(), model->trees().size());
  EXPECT_EQ(loaded->num_features(), model->num_features());
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_DOUBLE_EQ(loaded->Predict(ds.row(i)), model->Predict(ds.row(i)));
    EXPECT_DOUBLE_EQ(loaded->PredictMargin(ds.row(i)),
                     model->PredictMargin(ds.row(i)));
  }
  std::remove(path.c_str());
}

TEST(Serialize, LoadedGbdtExplainsIdentically) {
  // The whole point of persistence: explanations after reload match.
  Dataset ds = MakeLoanDataset(600);
  auto model = GradientBoostedTrees::Fit(ds, {.num_rounds = 20});
  ASSERT_TRUE(model.ok());
  const std::string path = "/tmp/xai_model_gbdt2.txt";
  ASSERT_TRUE(SaveModel(*model, path).ok());
  auto any = LoadAnyModel(path);
  ASSERT_TRUE(any.ok());
  const auto* loaded = dynamic_cast<const GradientBoostedTrees*>(any->get());
  ASSERT_NE(loaded, nullptr);
  TreeShapExplainer e1(*model, ds.schema());
  TreeShapExplainer e2(*loaded, ds.schema());
  auto a1 = e1.Explain(ds.row(2));
  auto a2 = e2.Explain(ds.row(2));
  ASSERT_TRUE(a1.ok() && a2.ok());
  for (size_t j = 0; j < ds.d(); ++j)
    EXPECT_DOUBLE_EQ(a1->values[j], a2->values[j]);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsGarbage) {
  const std::string path = "/tmp/xai_model_garbage.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("not a model\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadAnyModel(path).ok());
  EXPECT_FALSE(PeekModelType(path).ok());
  EXPECT_FALSE(LoadAnyModel("/nonexistent/m.txt").ok());
  // Short artifacts whose header counts claim far more numbers than the
  // file holds: each is rejected before the count sizes an allocation
  // (the knn one used to throw std::bad_alloc out of LoadAnyModel).
  const std::vector<std::pair<const char*, const char*>> oversized = {
      {"knn rows x features",
       "xaidb_model v1\ntype knn\nk 3\nnum_rows 10000000\n"
       "num_features 1000000\nschema 0\nlabels\n"},
      {"knn schema size",
       "xaidb_model v1\ntype knn\nk 3\nnum_rows 1\nnum_features 1\n"
       "schema 1000000\nnum a\n"},
      {"knn category count",
       "xaidb_model v1\ntype knn\nk 3\nnum_rows 1\nnum_features 1\n"
       "schema 1\ncat a 1000000 x y\n"},
      {"linear weights",
       "xaidb_model v1\ntype linear\nlambda 0\nintercept 0\n"
       "weights 10000000 1 2\n"},
      {"logistic theta",
       "xaidb_model v1\ntype logistic\nlambda 0\ntheta 10000000 1 2\n"},
      {"nbayes llr",
       "xaidb_model v1\ntype nbayes\nprior_log_odds 0\nllr 10000000 1 2\n"},
  };
  for (const auto& [name, text] : oversized) {
    {
      std::ofstream out(path);
      out << text;
    }
    auto loaded = LoadAnyModel(path);
    EXPECT_FALSE(loaded.ok()) << name;
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
          << name << ": " << loaded.status().ToString();
    }
  }
  // The loaded dynamic type is the kind that was saved.
  Dataset ds = MakeGaussianDataset(100, {.seed = 1, .dims = 2});
  auto model = LogisticRegression::Fit(ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(SaveModel(*model, path).ok());
  auto loaded = LoadAnyModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(dynamic_cast<const GradientBoostedTrees*>(loaded->get()), nullptr);
  EXPECT_NE(dynamic_cast<const LogisticRegression*>(loaded->get()), nullptr);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Corrupt tree artifacts: every edit below once crashed, hung or silently
// changed the model on load. Each must now come back as a non-OK Status.

using Lines = std::vector<std::string>;

Lines ReadLines(const std::string& path) {
  std::ifstream in(path);
  Lines lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void WriteLines(const std::string& path, const Lines& lines) {
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << "\n";
}

std::vector<std::string> Fields(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> fields;
  for (std::string f; in >> f;) fields.push_back(f);
  return fields;
}

void SetField(Lines* lines, size_t i, size_t field, const std::string& value) {
  std::vector<std::string> fields = Fields((*lines)[i]);
  ASSERT_LT(field, fields.size());
  fields[field] = value;
  std::string joined;
  for (size_t k = 0; k < fields.size(); ++k)
    joined += (k == 0 ? "" : " ") + fields[k];
  (*lines)[i] = joined;
}

/// Index of the first line starting with `prefix`.
size_t LineStarting(const Lines& lines, const std::string& prefix) {
  for (size_t i = 0; i < lines.size(); ++i)
    if (lines[i].rfind(prefix, 0) == 0) return i;
  ADD_FAILURE() << "no line starts with '" << prefix << "'";
  return 0;
}

/// Second field of the first line starting with `prefix` ("num_features 8").
std::string HeaderValue(const Lines& lines, const std::string& prefix) {
  return Fields(lines[LineStarting(lines, prefix)])[1];
}

/// Line of the first node of the first tree whose split-feature field
/// satisfies `internal` (node lines read: feature threshold left right
/// value cover).
size_t FirstNodeLine(const Lines& lines, bool internal) {
  for (size_t i = LineStarting(lines, "tree ") + 1; i < lines.size(); ++i)
    if ((Fields(lines[i])[0] != "-1") == internal) return i;
  ADD_FAILURE() << "no " << (internal ? "internal" : "leaf") << " node";
  return 0;
}

struct Corruption {
  const char* name;
  std::function<void(Lines*)> apply;
  /// Artifact kind the edit applies to; nullptr = every tree kind.
  const char* only_kind = nullptr;
};

const std::vector<Corruption>& Corruptions() {
  // The first internal node of the first tree is its root (node 0).
  static const std::vector<Corruption> kTable = {
      {"left child negative",
       [](Lines* l) { SetField(l, FirstNodeLine(*l, true), 2, "-7"); }},
      {"left child far past the end",
       [](Lines* l) { SetField(l, FirstNodeLine(*l, true), 2, "999"); }},
      {"left child is the node count",
       [](Lines* l) {
         SetField(l, FirstNodeLine(*l, true), 2, HeaderValue(*l, "tree "));
       }},
      {"left child cycles back to the root",
       [](Lines* l) { SetField(l, FirstNodeLine(*l, true), 2, "0"); }},
      {"both children are one node",
       [](Lines* l) {
         const size_t i = FirstNodeLine(*l, true);
         SetField(l, i, 3, Fields((*l)[i])[2]);
       }},
      {"split feature equals num_features",
       [](Lines* l) {
         SetField(l, FirstNodeLine(*l, true), 0,
                  HeaderValue(*l, "num_features "));
       }},
      {"leaf feature other than -1",
       [](Lines* l) { SetField(l, FirstNodeLine(*l, false), 0, "-2"); }},
      {"zero-node tree",
       [](Lines* l) { (*l)[LineStarting(*l, "tree ")] = "tree 0"; }},
      {"truncated node list", [](Lines* l) { l->pop_back(); }},
      {"node count far past the body",
       [](Lines* l) { (*l)[LineStarting(*l, "tree ")] = "tree 9999999"; }},
      {"gbdt tree count far past the body",
       [](Lines* l) {
         (*l)[LineStarting(*l, "num_trees ")] = "num_trees 999999";
       },
       "gbdt"},
      {"forest tree count far past the body",
       [](Lines* l) {
         (*l)[LineStarting(*l, "num_trees ")] = "num_trees 999999";
       },
       "forest"},
      {"unknown gbdt loss",
       [](Lines* l) { (*l)[LineStarting(*l, "loss ")] = "loss hinge"; },
       "gbdt"},
  };
  return kTable;
}

TEST(Serialize, CorruptTreeArtifactsReturnInvalidStatus) {
  Dataset ds = MakeLoanDataset(300);
  auto gbdt = GradientBoostedTrees::Fit(
      ds, {.num_rounds = 3, .tree = {.max_depth = 3, .min_samples_leaf = 5}});
  auto dtree = DecisionTree::Fit(ds, {.max_depth = 3, .min_samples_leaf = 5});
  auto forest = RandomForest::Fit(
      ds, {.num_trees = 3, .tree = {.max_depth = 3, .min_samples_leaf = 5}});
  ASSERT_TRUE(gbdt.ok() && dtree.ok() && forest.ok());
  const std::vector<std::pair<std::string, const Model*>> models = {
      {"gbdt", &*gbdt}, {"dtree", &*dtree}, {"forest", &*forest}};

  const std::string dir = ::testing::TempDir();
  for (const auto& [kind, model] : models) {
    const std::string clean = dir + "xai_corrupt_src_" + kind + ".model";
    ASSERT_TRUE(SaveModel(*model, clean).ok());
    ASSERT_TRUE(LoadAnyModel(clean).ok()) << kind;
    const Lines lines = ReadLines(clean);
    for (const Corruption& c : Corruptions()) {
      if (c.only_kind != nullptr && kind != c.only_kind) continue;
      Lines edited = lines;
      c.apply(&edited);
      ASSERT_NE(edited, lines) << kind << ": " << c.name << " changed nothing";
      const std::string path = dir + "xai_corrupt_" + kind + ".model";
      WriteLines(path, edited);
      auto loaded = LoadAnyModel(path);
      EXPECT_FALSE(loaded.ok()) << kind << ": " << c.name;
      if (!loaded.ok()) {
        EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
            << kind << ": " << c.name << ": " << loaded.status().ToString();
      }
      std::remove(path.c_str());
    }
    std::remove(clean.c_str());
  }
}

}  // namespace
}  // namespace xai
