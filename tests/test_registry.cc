// Tests for the versioned model registry and the zero-downtime hot-swap:
// byte-stable artifact round-trips for every model kind through the
// polymorphic SaveModel/LoadAnyModel API, manifest error handling
// (missing files, version collisions, kind/fingerprint mismatches),
// refcounted handles outliving the registry, and swap-under-concurrent-
// load with bit-identical attributions per version, in the responses and
// in the audit ledger (the `registry` ctest label is part of the TSan job
// — budgets are deliberately small).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "feature/explainer_factory.h"
#include "model/knn.h"
#include "model/naive_bayes.h"
#include "model/registry.h"
#include "model/serialize.h"
#include "obs/audit.h"
#include "serve/service.h"

namespace xai {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Fresh per-test scratch directory.
std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "xai_registry_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A tiny non-negative-count dataset for the naive Bayes fits.
Dataset MakeCountDataset() {
  Schema schema({FeatureSpec::Numeric("a"), FeatureSpec::Numeric("b"),
                 FeatureSpec::Numeric("c")});
  Matrix x(8, 3);
  std::vector<double> y(8);
  for (size_t i = 0; i < 8; ++i) {
    y[i] = i % 2 ? 1.0 : 0.0;
    x(i, 0) = static_cast<double>(i % 3);
    x(i, 1) = static_cast<double>((i * 2) % 5);
    x(i, 2) = y[i] > 0.5 ? 3.0 : 1.0;
  }
  return Dataset(std::move(schema), std::move(x), std::move(y));
}

// ---------------------------------------------------------------------------
// Polymorphic artifact API: save -> load -> save is byte-stable for every
// model kind, and LoadAnyModel recovers the exact concrete type.

TEST(Artifact, ByteStableRoundTripEveryKind) {
  const std::string dir = ScratchDir("bytestable");
  Dataset loan = MakeLoanDataset(120, {.seed = 7});
  Dataset counts = MakeCountDataset();

  std::vector<std::pair<std::string, std::unique_ptr<Model>>> models;
  {
    auto m = GradientBoostedTrees::Fit(loan, {.num_rounds = 5});
    ASSERT_TRUE(m.ok());
    models.emplace_back("gbdt", std::make_unique<GradientBoostedTrees>(
                                    std::move(*m)));
  }
  {
    auto m = DecisionTree::Fit(loan, {.max_depth = 4});
    ASSERT_TRUE(m.ok());
    models.emplace_back("dtree",
                        std::make_unique<DecisionTree>(std::move(*m)));
  }
  {
    auto m = RandomForest::Fit(loan, {.num_trees = 4});
    ASSERT_TRUE(m.ok());
    models.emplace_back("forest",
                        std::make_unique<RandomForest>(std::move(*m)));
  }
  {
    std::vector<double> w;
    Dataset lin = MakeLinearRegressionDataset(80, 4, 3, &w);
    auto m = LinearRegression::Fit(lin);
    ASSERT_TRUE(m.ok());
    models.emplace_back("linear",
                        std::make_unique<LinearRegression>(std::move(*m)));
  }
  {
    auto m = LogisticRegression::Fit(loan, {.lambda = 0.01});
    ASSERT_TRUE(m.ok());
    models.emplace_back("logistic", std::make_unique<LogisticRegression>(
                                        std::move(*m)));
  }
  {
    auto m = KnnClassifier::Fit(loan, 3);
    ASSERT_TRUE(m.ok());
    models.emplace_back("knn",
                        std::make_unique<KnnClassifier>(std::move(*m)));
  }
  {
    auto m = MultinomialNaiveBayes::Fit(counts);
    ASSERT_TRUE(m.ok());
    models.emplace_back(
        "nbayes", std::make_unique<MultinomialNaiveBayes>(std::move(*m)));
  }

  for (auto& [kind, model] : models) {
    SCOPED_TRACE(kind);
    ASSERT_EQ(*ModelKindOf(*model), kind);
    const std::string p1 = dir + "/" + kind + ".1.model";
    const std::string p2 = dir + "/" + kind + ".2.model";
    ASSERT_TRUE(SaveModel(*model, p1).ok());
    EXPECT_EQ(*PeekModelType(p1), kind);
    auto loaded = LoadAnyModel(p1);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(SaveModel(**loaded, p2).ok());
    // Full-precision text + deterministic field order = identical bytes.
    EXPECT_EQ(ReadFileBytes(p1), ReadFileBytes(p2));
    // And the reload predicts bit-identically.
    const Dataset& ds = kind == "nbayes" ? counts : loan;
    for (size_t i = 0; i < 5 && i < ds.n(); ++i) {
      std::vector<double> row = ds.row(i);
      row.resize((*loaded)->num_features() != 0 ? (*loaded)->num_features()
                                                : row.size());
      EXPECT_EQ((*loaded)->Predict(row), model->Predict(row));
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(Artifact, AdhocModelsHaveNoArtifactForm) {
  auto lambda = MakeLambdaModel(3, [](const std::vector<double>&) {
    return 0.5;
  });
  EXPECT_FALSE(ModelKindOf(lambda).ok());
  Status st = SaveModel(lambda, ::testing::TempDir() + "lambda.model");
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(Artifact, KnnRoundTripKeepsSchemaAndValuation) {
  const std::string dir = ScratchDir("knnschema");
  Dataset loan = MakeLoanDataset(60, {.seed = 3});
  auto m = KnnClassifier::Fit(loan, 5);
  ASSERT_TRUE(m.ok());
  const std::string path = dir + "/knn.model";
  ASSERT_TRUE(SaveModel(*m, path).ok());
  auto any = LoadAnyModel(path);
  ASSERT_TRUE(any.ok());
  const auto* loaded = dynamic_cast<const KnnClassifier*>(any->get());
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->k(), m->k());
  ASSERT_EQ(loaded->train().n(), m->train().n());
  ASSERT_EQ(loaded->train().schema().num_features(),
            m->train().schema().num_features());
  for (size_t j = 0; j < loan.schema().num_features(); ++j) {
    const FeatureSpec& a = m->train().schema().feature(j);
    const FeatureSpec& b = loaded->train().schema().feature(j);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.is_numeric(), b.is_numeric());
    EXPECT_EQ(a.categories, b.categories);
  }
  // The KNN-Shapley recurrence runs off the stored training set: the
  // neighbor ordering (its input) must survive the round-trip exactly.
  EXPECT_EQ(loaded->NeighborsByDistance(loan.row(0)),
            m->NeighborsByDistance(loan.row(0)));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Registry: versioning, persistence across reopen, and manifest errors.

TEST(Registry, AddGetResolveServingRoundTrip) {
  const std::string dir = ScratchDir("roundtrip");
  Dataset loan = MakeLoanDataset(100, {.seed = 5});
  auto reg = ModelRegistry::OpenOrCreate(dir);
  ASSERT_TRUE(reg.ok());

  auto m1 = GradientBoostedTrees::Fit(loan, {.num_rounds = 3});
  auto m2 = GradientBoostedTrees::Fit(loan, {.num_rounds = 6});
  ASSERT_TRUE(m1.ok() && m2.ok());
  auto a1 = reg->Add(*m1, "gbdt");
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(a1->version, 1);
  EXPECT_EQ(a1->kind, "gbdt");
  auto a2 = reg->Add(*m2, "gbdt");
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a2->version, 2);
  EXPECT_EQ(reg->LatestVersion("gbdt"), 2);

  // Serving defaults to the first registered version until flipped.
  auto serving = reg->Serving("gbdt");
  ASSERT_TRUE(serving.ok());
  EXPECT_EQ(serving->version(), 1);
  ASSERT_TRUE(reg->SetServing("gbdt", 2).ok());
  EXPECT_EQ(reg->Serving("gbdt")->version(), 2);

  // Resolve: bare name -> serving; name@version -> that version.
  EXPECT_EQ(reg->Resolve("gbdt")->version(), 2);
  EXPECT_EQ(reg->Resolve("gbdt@1")->version(), 1);
  EXPECT_FALSE(reg->Resolve("gbdt@9").ok());
  EXPECT_FALSE(reg->Resolve("gbdt@x").ok());
  EXPECT_FALSE(reg->Resolve("nope").ok());

  // Handles to the same version share one loaded instance.
  auto h1 = reg->Get("gbdt", 1);
  auto h1b = reg->Get("gbdt", 1);
  ASSERT_TRUE(h1.ok() && h1b.ok());
  EXPECT_EQ(h1->get(), h1b->get());
  EXPECT_EQ(h1->fingerprint(), h1b->fingerprint());
  EXPECT_NE(h1->fingerprint(), reg->Get("gbdt", 2)->fingerprint());
  EXPECT_EQ(h1->VersionedName(), "gbdt@1");

  // Reopen from disk: same artifacts, same serving version, and the
  // loaded model predicts bit-identically to the pre-reopen handle.
  auto reopened = ModelRegistry::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->List().size(), 2u);
  EXPECT_EQ(reopened->Serving("gbdt")->version(), 2);
  auto h1r = reopened->Get("gbdt", 1);
  ASSERT_TRUE(h1r.ok());
  for (size_t i = 0; i < 5; ++i)
    EXPECT_EQ(h1r->model().Predict(loan.row(i)),
              h1->model().Predict(loan.row(i)));
  std::filesystem::remove_all(dir);
}

TEST(Registry, HandleKeepsModelAliveAfterRegistryIsGone) {
  const std::string dir = ScratchDir("alive");
  Dataset loan = MakeLoanDataset(80, {.seed = 9});
  ModelHandle handle;
  {
    auto reg = ModelRegistry::OpenOrCreate(dir);
    ASSERT_TRUE(reg.ok());
    auto m = LogisticRegression::Fit(loan, {});
    ASSERT_TRUE(m.ok());
    ASSERT_TRUE(reg->Add(*m, "logit").ok());
    auto h = reg->Get("logit", 1);
    ASSERT_TRUE(h.ok());
    handle = std::move(h).value();
  }  // registry destroyed
  EXPECT_TRUE(handle.valid());
  EXPECT_GT(handle.model().Predict(loan.row(0)), 0.0);
  std::filesystem::remove_all(dir);
}

TEST(Registry, ManifestErrors) {
  const std::string dir = ScratchDir("manifest");
  Dataset loan = MakeLoanDataset(80, {.seed = 2});
  {
    auto reg = ModelRegistry::OpenOrCreate(dir);
    ASSERT_TRUE(reg.ok());
    auto m = DecisionTree::Fit(loan, {.max_depth = 3});
    ASSERT_TRUE(m.ok());
    ASSERT_TRUE(reg->Add(*m, "tree").ok());
  }
  const std::string manifest = dir + "/MANIFEST";
  const std::string good = ReadFileBytes(manifest);

  auto rewrite = [&](const std::string& contents) {
    std::ofstream out(manifest);
    out << contents;
  };

  // Open on a non-directory fails cleanly.
  EXPECT_FALSE(ModelRegistry::Open(dir + "/nope").ok());

  // Missing artifact file.
  rewrite("xaidb_registry v1\nmodel tree 1 dtree abc missing.model\n");
  EXPECT_EQ(ModelRegistry::Open(dir).status().code(), StatusCode::kIOError);

  // Version collision: the same name@version listed twice.
  rewrite("xaidb_registry v1\nmodel tree 1 dtree abc tree.v1.model\n" +
          std::string("model tree 1 dtree abc tree.v1.model\n"));
  EXPECT_EQ(ModelRegistry::Open(dir).status().code(),
            StatusCode::kInvalidArgument);

  // Serving line pointing at an unknown version.
  rewrite("xaidb_registry v1\nserving tree 3\n");
  EXPECT_FALSE(ModelRegistry::Open(dir).ok());

  // Bad magic and unknown tags.
  rewrite("not a registry\n");
  EXPECT_FALSE(ModelRegistry::Open(dir).ok());
  rewrite("xaidb_registry v1\nfrobnicate\n");
  EXPECT_FALSE(ModelRegistry::Open(dir).ok());

  // Kind mismatch: manifest says gbdt, file header says dtree.
  rewrite(good);
  {
    auto reg = ModelRegistry::Open(dir);
    ASSERT_TRUE(reg.ok());
    std::string tampered = good;
    const size_t pos = tampered.find(" dtree ");
    ASSERT_NE(pos, std::string::npos);
    tampered.replace(pos, 7, " gbdt ");
    rewrite(tampered);
    auto reg2 = ModelRegistry::Open(dir);
    ASSERT_TRUE(reg2.ok());  // detected lazily, at load time
    auto h = reg2->Get("tree", 1);
    ASSERT_FALSE(h.ok());
    EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument);
  }

  // Fingerprint mismatch: artifact bytes changed after registration.
  rewrite(good);
  {
    std::ofstream out(dir + "/tree.v1.model", std::ios::app);
    out << "tampered\n";
  }
  auto reg = ModelRegistry::Open(dir);
  ASSERT_TRUE(reg.ok());
  auto h = reg->Get("tree", 1);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Coalescing-key contract: the model fingerprint is part of the config
// fingerprint, so two versions can never share a key.

TEST(Registry, ConfigFingerprintSeparatesModelVersions) {
  ExplainerConfig a;
  ExplainerConfig b;
  a.model_fingerprint = 0x1111;
  b.model_fingerprint = 0x2222;
  for (ExplainerKind kind :
       {ExplainerKind::kTreeShap, ExplainerKind::kKernelShap,
        ExplainerKind::kLime, ExplainerKind::kMcShapley}) {
    EXPECT_NE(a.Fingerprint(kind), b.Fingerprint(kind));
    b.model_fingerprint = a.model_fingerprint;
    EXPECT_EQ(a.Fingerprint(kind), b.Fingerprint(kind));
    b.model_fingerprint = 0x2222;
  }
}

// ---------------------------------------------------------------------------
// Hot-swap through the service.

class SwapTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = new Dataset(MakeLoanDataset(200, {.seed = 11}));
    auto m1 = GradientBoostedTrees::Fit(*ds_, {.num_rounds = 4});
    auto m2 = GradientBoostedTrees::Fit(*ds_, {.num_rounds = 8});
    ASSERT_TRUE(m1.ok() && m2.ok());
    v1_ = new GradientBoostedTrees(std::move(*m1));
    v2_ = new GradientBoostedTrees(std::move(*m2));
  }
  static void TearDownTestSuite() {
    delete v1_;
    delete v2_;
    delete ds_;
    v1_ = nullptr;
    v2_ = nullptr;
    ds_ = nullptr;
  }

  static ExplainerConfig FastConfig() {
    ExplainerConfig config;
    config.kernel_shap.max_background = 8;
    config.kernel_shap.num_samples = 64;
    return config;
  }

  /// Solo reference attribution for `row` under `model`, bit-identical to
  /// what the service must return for that version.
  static FeatureAttribution Solo(const GradientBoostedTrees& model,
                                 ExplainerKind kind, size_t row) {
    auto ex = MakeExplainer(kind, ModelHandle::Borrow(model), *ds_,
                            FastConfig());
    EXPECT_TRUE(ex.ok());
    auto attr = (*ex)->Explain(ds_->row(row));
    EXPECT_TRUE(attr.ok());
    return std::move(attr).value();
  }

  static Dataset* ds_;
  static GradientBoostedTrees* v1_;
  static GradientBoostedTrees* v2_;
};

Dataset* SwapTest::ds_ = nullptr;
GradientBoostedTrees* SwapTest::v1_ = nullptr;
GradientBoostedTrees* SwapTest::v2_ = nullptr;

TEST_F(SwapTest, SwapUnderConcurrentLoadIsBitIdenticalPerVersion) {
  constexpr size_t kThreads = 4;
  constexpr size_t kRows = 4;
  // Live traffic straddles the flip: the clients keep submitting until
  // kPreSwapQuota responses came from v1 before the swap starts and
  // kPostSwapQuota from v2 after it lands, however long each phase takes.
  constexpr size_t kPreSwapQuota = 8;
  constexpr size_t kPostSwapQuota = 8;
  const ModelHandle h1 = ModelHandle::Borrow(*v1_, "gbdt", 1);
  const ModelHandle h2 = ModelHandle::Borrow(*v2_, "gbdt", 2);

  std::vector<FeatureAttribution> want1, want2;
  for (size_t r = 0; r < kRows; ++r) {
    want1.push_back(Solo(*v1_, ExplainerKind::kTreeShap, r));
    want2.push_back(Solo(*v2_, ExplainerKind::kTreeShap, r));
  }

  const std::string audit_dir = ScratchDir("swap_audit");
  auto opened = obs::AuditLog::Open(audit_dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const std::shared_ptr<obs::AuditLog> audit = std::move(opened).value();

  ExplanationServiceOptions opts;
  opts.config = FastConfig();
  opts.audit = audit;
  ExplanationService service(h1, *ds_, opts);

  std::atomic<size_t> submitted{0};
  std::atomic<size_t> resolved{0};
  std::atomic<size_t> on_v1{0};
  std::atomic<size_t> on_v2{0};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> unknown_version{0};
  std::atomic<bool> failed{false};
  std::atomic<bool> stop{false};
  auto check = [&](const ExplanationResponse& r, size_t row) {
    resolved.fetch_add(1);
    const std::vector<FeatureAttribution>* want = nullptr;
    if (r.breakdown.model_version == 1) {
      want = &want1;
      on_v1.fetch_add(1);
    } else if (r.breakdown.model_version == 2) {
      want = &want2;
      on_v2.fetch_add(1);
    }
    if (want == nullptr) {
      unknown_version.fetch_add(1);
      return;
    }
    for (size_t j = 0; j < r.attribution.values.size(); ++j)
      if (r.attribution.values[j] != (*want)[row].values[j])
        mismatches.fetch_add(1);
  };

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; !stop.load(); ++i) {
        const size_t row = (t + i) % kRows;
        ExplanationRequest req;
        req.instance = ds_->row(row);
        req.kind = ExplainerKind::kTreeShap;
        submitted.fetch_add(1);
        const Result<ExplanationResponse> r =
            service.Submit(std::move(req)).get();
        if (!r.ok()) {
          failed.store(true);
          return;
        }
        check(*r, row);
      }
    });
  }
  auto wait_for = [&](const std::atomic<size_t>& count, size_t quota) {
    while (count.load() < quota && !failed.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  // Swap mid-load, from a thread that is not a client.
  wait_for(on_v1, kPreSwapQuota);
  auto report = service.SwapModel(h2, {.warm_rows = 8});
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  wait_for(on_v2, kPostSwapQuota);
  stop.store(true);
  for (auto& th : threads) th.join();
  service.Shutdown();
  audit->Flush();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(resolved.load(), submitted.load());  // nothing dropped
  EXPECT_GE(on_v1.load(), kPreSwapQuota);
  EXPECT_GE(on_v2.load(), kPostSwapQuota);
  EXPECT_EQ(unknown_version.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  const ExplanationServiceStats stats = service.stats();
  EXPECT_EQ(stats.swaps, 1u);
  EXPECT_EQ(stats.model_version, 2);
  EXPECT_EQ(service.serving_model().version(), 2);

  // The ledger holds every served response, each bit-identical to the
  // solo reference of the version that served it.
  EXPECT_EQ(audit->stats().dropped, 0u);
  auto reader = obs::AuditReader::Open(audit_dir);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  size_t records = 0;
  size_t logged_v1 = 0;
  size_t logged_v2 = 0;
  const Status scanned = reader->ForEach(
      obs::AuditQuery{}, [&](const obs::AuditRecord& rec) {
        ++records;
        size_t row = kRows;
        for (size_t r = 0; r < kRows; ++r)
          if (rec.instance == ds_->row(r)) row = r;
        ASSERT_LT(row, kRows) << "record " << records;
        const std::vector<FeatureAttribution>* want = nullptr;
        if (rec.model_version == 1) {
          want = &want1;
          ++logged_v1;
        } else if (rec.model_version == 2) {
          want = &want2;
          ++logged_v2;
        }
        ASSERT_NE(want, nullptr) << "version " << rec.model_version;
        EXPECT_EQ(rec.prediction, (*want)[row].prediction);
        EXPECT_EQ(rec.base_value, (*want)[row].base_value);
        ASSERT_FALSE(rec.top_attr.empty());
        for (const obs::AuditTopAttr& a : rec.top_attr) {
          ASSERT_LT(a.index, (*want)[row].values.size());
          EXPECT_EQ(a.value, (*want)[row].values[a.index]);
        }
      });
  ASSERT_TRUE(scanned.ok()) << scanned.ToString();
  EXPECT_EQ(records, resolved.load());
  EXPECT_GT(logged_v1, 0u);
  EXPECT_GT(logged_v2, 0u);
}

TEST_F(SwapTest, SwapWarmsCacheForHotRows) {
  const ModelHandle h1 = ModelHandle::Borrow(*v1_, "gbdt", 1);
  const ModelHandle h2 = ModelHandle::Borrow(*v2_, "gbdt", 2);
  ExplanationServiceOptions opts;
  opts.config = FastConfig();
  ExplanationService service(h1, *ds_, opts);

  // Establish the kernelshap family and its hot rows on v1.
  constexpr size_t kHot = 3;
  for (size_t r = 0; r < kHot; ++r) {
    ExplanationRequest req;
    req.instance = ds_->row(r);
    req.kind = ExplainerKind::kKernelShap;
    ASSERT_TRUE(service.Submit(std::move(req)).get().ok());
  }

  // The swap replays those rows against v2, filling the family cache with
  // new-version entries before the flip.
  auto report = service.SwapModel(h2, {.warm_rows = 16});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->warmed_families, 1u);
  EXPECT_EQ(report->warmed_rows, kHot);
  const ExplanationServiceStats warmed = service.stats();

  // Post-swap, the same hot rows are answered entirely from the warmed
  // cache: hits grow, misses stay flat.
  for (size_t r = 0; r < kHot; ++r) {
    ExplanationRequest req;
    req.instance = ds_->row(r);
    req.kind = ExplainerKind::kKernelShap;
    auto resp = service.Submit(std::move(req)).get();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->breakdown.model_version, 2);
  }
  service.Shutdown();
  const ExplanationServiceStats after = service.stats();
  EXPECT_GT(after.cache_hits, warmed.cache_hits);
  EXPECT_EQ(after.cache_misses, warmed.cache_misses);
}

TEST_F(SwapTest, SwapRejectsIncompatibleModel) {
  auto logit = LogisticRegression::Fit(*ds_, {});
  ASSERT_TRUE(logit.ok());
  const ModelHandle h1 = ModelHandle::Borrow(*v1_, "gbdt", 1);
  const ModelHandle bad = ModelHandle::Borrow(*logit, "logit", 2);

  ExplanationServiceOptions opts;
  opts.config = FastConfig();
  ExplanationService service(h1, *ds_, opts);
  ExplanationRequest req;
  req.instance = ds_->row(0);
  req.kind = ExplainerKind::kTreeShap;
  ASSERT_TRUE(service.Submit(std::move(req)).get().ok());

  // The treeshap family cannot be rebuilt over a logistic model: the swap
  // is rejected atomically, before anything changes.
  auto report = service.SwapModel(bad);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.serving_model().version(), 1);
  EXPECT_EQ(service.stats().swaps, 0u);

  // And the service keeps serving v1 as if nothing happened.
  ExplanationRequest again;
  again.instance = ds_->row(1);
  again.kind = ExplainerKind::kTreeShap;
  auto resp = service.Submit(std::move(again)).get();
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->breakdown.model_version, 1);
  service.Shutdown();
}

TEST_F(SwapTest, SwapRejectsArityMismatch) {
  Dataset narrow = MakeGaussianDataset(50, {.seed = 1, .dims = 2});
  auto m = LogisticRegression::Fit(narrow, {});
  ASSERT_TRUE(m.ok());
  ExplanationService service(ModelHandle::Borrow(*v1_, "gbdt", 1), *ds_, {});
  auto report = service.SwapModel(ModelHandle::Borrow(*m, "narrow", 2));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  service.Shutdown();
}

}  // namespace
}  // namespace xai
