// Tests for the batched evaluation pipeline and its determinism contract:
// the ThreadPool itself (coverage, exceptions, nesting, shutdown), the
// counter-based chunk seeding, batch-vs-scalar model equivalence, and the
// headline guarantee — explainer output is bit-identical for any thread
// count at a fixed seed. Build with -DXAIDB_SANITIZE=thread and run
// `ctest -L parallel` to prove the sweeps race-free under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/game.h"
#include "data/synthetic.h"
#include "feature/kernel_shap.h"
#include "feature/lime.h"
#include "feature/shapley.h"
#include "model/decision_tree.h"
#include "model/gbdt.h"
#include "model/logistic_regression.h"

namespace xai {
namespace {

/// Restores the env/hardware thread default when a test body returns, so
/// no test leaks its SetGlobalThreads override into the rest of the run.
struct ThreadCountGuard {
  ~ThreadCountGuard() { SetGlobalThreads(0); }
};

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, hits.size(), 7,
                   [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SizeOneRunsInlineWithoutWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  int sum = 0;
  // Inline execution: plain int accumulation is safe by construction.
  pool.ParallelFor(0, 100, 10, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, SubmitAndWaitDrains) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) pool.Submit([&] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, DestructorDrainsQueuedWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) pool.Submit([&] { count.fetch_add(1); });
    // No Wait(): shutdown itself must drain and join.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForRethrowsFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(0, 100, 5,
                                [&](size_t i) {
                                  if (i == 42)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool must stay usable after an exceptional sweep.
  std::atomic<int> count{0};
  pool.ParallelFor(0, 10, 1, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, NestedParallelForRunsInlineNoDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.ParallelFor(0, 8, 1, [&](size_t) {
    // A worker re-entering ParallelFor must not block on its own pool.
    GlobalPool();  // touching the global pool from a worker is also fine
    ThreadPool& self = pool;
    self.ParallelFor(0, 8, 1, [&](size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, GlobalThreadOverride) {
  ThreadCountGuard guard;
  SetGlobalThreads(3);
  EXPECT_EQ(GlobalThreadCount(), 3u);
  EXPECT_EQ(GlobalPool().num_threads(), 3u);
  SetGlobalThreads(1);
  EXPECT_EQ(GlobalThreadCount(), 1u);
  EXPECT_EQ(GlobalPool().num_threads(), 1u);
}

TEST(ThreadPool, GlobalThreadCountIsCapped) {
  // Only GlobalThreadCount() is read: no pool of the requested size is
  // ever built.
  ThreadCountGuard guard;
  SetGlobalThreads(1'000'000);
  EXPECT_EQ(GlobalThreadCount(), kMaxThreads);
  SetGlobalThreads(kMaxThreads);
  EXPECT_EQ(GlobalThreadCount(), kMaxThreads);

  const char* old_env = std::getenv("XAIDB_THREADS");
  const std::string saved = old_env != nullptr ? old_env : "";
  SetGlobalThreads(0);
  setenv("XAIDB_THREADS", "1000000", 1);
  EXPECT_EQ(GlobalThreadCount(), kMaxThreads);
  setenv("XAIDB_THREADS", "3", 1);
  EXPECT_EQ(GlobalThreadCount(), 3u);
  if (old_env != nullptr)
    setenv("XAIDB_THREADS", saved.c_str(), 1);
  else
    unsetenv("XAIDB_THREADS");
}

TEST(ChunkSeed, DeterministicAndDecorrelated) {
  EXPECT_EQ(ChunkSeed(7, 0), ChunkSeed(7, 0));
  EXPECT_NE(ChunkSeed(7, 0), ChunkSeed(7, 1));
  EXPECT_NE(ChunkSeed(7, 0), ChunkSeed(8, 0));
  // Streams from consecutive chunk indices should differ in many bits.
  const uint64_t diff = ChunkSeed(123, 4) ^ ChunkSeed(123, 5);
  EXPECT_GT(__builtin_popcountll(diff), 8);
}

// ---- batch-vs-scalar model equivalence (exact, not approximate) ----

TEST(PredictBatch, MatchesScalarBitForBit) {
  Dataset ds = MakeLoanDataset(300);
  auto gbdt = GradientBoostedTrees::Fit(ds, {.num_rounds = 25});
  ASSERT_TRUE(gbdt.ok());
  auto logistic = LogisticRegression::Fit(ds, {.lambda = 1e-3});
  ASSERT_TRUE(logistic.ok());
  auto forest = RandomForest::Fit(ds, {.num_trees = 15});
  ASSERT_TRUE(forest.ok());

  const Model* models[] = {&*gbdt, &*logistic, &*forest};
  for (const Model* m : models) {
    const std::vector<double> batch = m->PredictBatch(ds.x());
    ASSERT_EQ(batch.size(), ds.n());
    for (size_t i = 0; i < ds.n(); ++i)
      EXPECT_EQ(batch[i], m->Predict(ds.row(i))) << "row " << i;
  }
}

TEST(ValueBatch, MarginalGameMatchesValueBitForBit) {
  Dataset ds = MakeLoanDataset(200);
  auto gbdt = GradientBoostedTrees::Fit(ds, {.num_rounds = 15});
  ASSERT_TRUE(gbdt.ok());
  MarginalFeatureGame game(*gbdt, ds.x(), ds.row(0), 25);

  std::vector<std::vector<bool>> coalitions;
  Rng rng(11);
  for (int c = 0; c < 20; ++c) {
    std::vector<bool> s(game.num_players());
    for (size_t j = 0; j < s.size(); ++j) s[j] = rng.Next() & 1;
    coalitions.push_back(s);
  }
  const std::vector<double> batch = game.ValueBatch(coalitions);
  ASSERT_EQ(batch.size(), coalitions.size());
  for (size_t c = 0; c < coalitions.size(); ++c)
    EXPECT_EQ(batch[c], game.Value(coalitions[c])) << "coalition " << c;
}

TEST(ValueBatch, ConditionalGaussianGameMatchesValueBitForBit) {
  Dataset ds = MakeGaussianDataset(300, {.seed = 5, .dims = 6});
  auto logistic = LogisticRegression::Fit(ds, {.lambda = 1e-3});
  ASSERT_TRUE(logistic.ok());
  auto game = ConditionalGaussianGame::Create(*logistic, ds.x(), ds.row(3),
                                              /*samples_per_eval=*/16,
                                              /*seed=*/77);
  ASSERT_TRUE(game.ok());

  std::vector<std::vector<bool>> coalitions;
  Rng rng(13);
  for (int c = 0; c < 12; ++c) {
    std::vector<bool> s(game->num_players());
    for (size_t j = 0; j < s.size(); ++j) s[j] = rng.Next() & 1;
    coalitions.push_back(s);
  }
  coalitions.push_back(std::vector<bool>(game->num_players(), true));
  coalitions.push_back(std::vector<bool>(game->num_players(), false));

  const std::vector<double> batch = game->ValueBatch(coalitions);
  ASSERT_EQ(batch.size(), coalitions.size());
  // Per-coalition counter-derived RNG streams: batch order must not leak
  // into any coalition's draws.
  for (size_t c = 0; c < coalitions.size(); ++c)
    EXPECT_EQ(batch[c], game->Value(coalitions[c])) << "coalition " << c;
}

// ---- thread-count invariance: the headline determinism guarantee ----

class ParallelDeterminism : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = MakeLoanDataset(400);
    auto gbdt = GradientBoostedTrees::Fit(ds_, {.num_rounds = 20});
    ASSERT_TRUE(gbdt.ok());
    gbdt_ = std::make_unique<GradientBoostedTrees>(std::move(*gbdt));
  }
  void TearDown() override { SetGlobalThreads(0); }

  Dataset ds_;
  std::unique_ptr<GradientBoostedTrees> gbdt_;
};

TEST_F(ParallelDeterminism, McShapleyBitIdenticalAcrossThreadCounts) {
  auto run = [&] {
    MarginalFeatureGame game(*gbdt_, ds_.x(), ds_.row(0), 30);
    Rng rng(99);
    return PermutationShapley(game, 40, &rng);
  };
  SetGlobalThreads(1);
  const std::vector<double> serial = run();
  SetGlobalThreads(8);
  const std::vector<double> parallel = run();
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t j = 0; j < serial.size(); ++j)
    EXPECT_EQ(serial[j], parallel[j]) << "feature " << j;
}

TEST_F(ParallelDeterminism, ExactShapleyBitIdenticalAcrossThreadCounts) {
  auto run = [&] {
    MarginalFeatureGame game(*gbdt_, ds_.x(), ds_.row(1), 20);
    auto phi = ExactShapley(game, 20);
    EXPECT_TRUE(phi.ok());
    return *phi;
  };
  SetGlobalThreads(1);
  const std::vector<double> serial = run();
  SetGlobalThreads(8);
  const std::vector<double> parallel = run();
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t j = 0; j < serial.size(); ++j)
    EXPECT_EQ(serial[j], parallel[j]) << "feature " << j;
}

TEST_F(ParallelDeterminism, KernelShapBitIdenticalAcrossThreadCounts) {
  KernelShapOptions opts;
  opts.exact_up_to = 0;  // Force the sampled path (the parallel sweep).
  opts.num_samples = 256;
  opts.max_background = 25;
  opts.seed = 4321;
  auto run = [&] {
    KernelShapExplainer ks(*gbdt_, ds_, opts);
    auto attr = ks.Explain(ds_.row(2));
    EXPECT_TRUE(attr.ok());
    return attr->values;
  };
  SetGlobalThreads(1);
  const std::vector<double> serial = run();
  SetGlobalThreads(8);
  const std::vector<double> parallel = run();
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t j = 0; j < serial.size(); ++j)
    EXPECT_EQ(serial[j], parallel[j]) << "feature " << j;
}

TEST_F(ParallelDeterminism, LimeBitIdenticalAcrossThreadCounts) {
  auto run = [&] {
    LimeExplainer lime(*gbdt_, ds_, {.num_samples = 600, .seed = 31});
    auto attr = lime.Explain(ds_.row(4));
    EXPECT_TRUE(attr.ok());
    return attr->values;
  };
  SetGlobalThreads(1);
  const std::vector<double> serial = run();
  SetGlobalThreads(8);
  const std::vector<double> parallel = run();
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t j = 0; j < serial.size(); ++j)
    EXPECT_EQ(serial[j], parallel[j]) << "feature " << j;
}

}  // namespace
}  // namespace xai
