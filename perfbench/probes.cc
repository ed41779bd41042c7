// Standalone layer calls of a traced run. Each one calls a single public
// function of one layer on the workload's own model and rows, after the
// measured phase, so the per-layer numbers of the data, model, core, math
// and common layers exist on every workload even where the measured phase
// never reaches that layer.
#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"
#include "core/eval_engine.h"
#include "data/binned.h"
#include "feature/kernel_shap.h"
#include "feature/tree_shap.h"
#include "model/flat_tree.h"
#include "model/hist_learner.h"

namespace perfbench {

namespace {

constexpr size_t kMaxBackground = 32;
constexpr size_t kCacheEntries = size_t{1} << 15;
constexpr int kDesignPlayers = 8;  // 2^8 - 2 = 254 proper coalitions

/// The 254-coalition KernelSHAP design of an 8-feature model: every proper
/// non-empty subset of the first 8 features, in the enumeration order
/// KernelShapExplainer uses. Wider models keep their remaining features in
/// every coalition, so the design size stays 254 on every workload.
struct Design {
  std::vector<std::vector<bool>> coalitions;
  std::vector<std::vector<uint8_t>> masks;
  std::vector<double> weights;
};

Design MakeDesign(size_t d) {
  Design out;
  for (uint32_t m = 1; m + 1 < (1u << kDesignPlayers); ++m) {
    std::vector<bool> c(d, true);
    std::vector<uint8_t> mask(d, 1);
    int size = static_cast<int>(d) - kDesignPlayers;
    for (int j = 0; j < kDesignPlayers; ++j) {
      const bool in = (m >> j) & 1u;
      c[static_cast<size_t>(j)] = in;
      mask[static_cast<size_t>(j)] = in ? 1 : 0;
      size += in ? 1 : 0;
    }
    out.coalitions.push_back(std::move(c));
    out.masks.push_back(std::move(mask));
    out.weights.push_back(xai::ShapleyKernelWeight(static_cast<int>(d), size));
  }
  return out;
}

void ProbeCoreAndMath(const ProbeInputs& in, Report* report) {
  const xai::Matrix& bg = in.background->x();
  const size_t d = bg.cols();
  const Design design = MakeDesign(d);
  const size_t hot_rows = std::min<size_t>(64, in.rows->rows());

  // Warm cache: every probed row's coalitions are resident, so each call
  // is probes and copies only.
  auto warm = std::make_shared<xai::CoalitionValueCache>(kCacheEntries);
  xai::CoalitionEvaluator hit_engine(*in.gbdt, bg, kMaxBackground, warm);
  for (size_t r = 0; r < hot_rows; ++r)
    hit_engine.Bind(in.rows->Row(r)).ValueBatch(design.coalitions);
  std::vector<double> hit_us;
  for (int pass = 0; pass < 16; ++pass)
    for (size_t r = 0; r < hot_rows; ++r) {
      std::vector<double> row = in.rows->Row(r);
      const Clock::time_point t0 = Clock::now();
      hit_engine.Bind(std::move(row)).ValueBatch(design.coalitions);
      hit_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
    }
  report->Metric("core.value_batch_hit_us", Quantile(hit_us, 0.5), "us",
                 std::to_string(hit_us.size()) + " calls x " +
                     std::to_string(design.coalitions.size()) + " coalitions");

  // Cold cache at capacity (so inserts evict) against a null cache on the
  // same unseen rows: the paired difference is the cache's own cost of a
  // miss (probe, insert, evict); the model evaluations cancel.
  const xai::Matrix& pool = in.train->x();
  constexpr size_t kFillRows = 160;  // 160 * 254 > 2^15 entries
  constexpr size_t kMissRows = 48;
  auto cold = std::make_shared<xai::CoalitionValueCache>(kCacheEntries);
  xai::CoalitionEvaluator cold_engine(*in.gbdt, bg, kMaxBackground, cold);
  xai::CoalitionEvaluator null_engine(*in.gbdt, bg, kMaxBackground, nullptr);
  for (size_t r = 0; r < kFillRows; ++r)
    cold_engine.Bind(pool.Row(r)).ValueBatch(design.coalitions);
  std::vector<double> miss_delta_us;
  for (size_t r = kFillRows; r < kFillRows + kMissRows; ++r) {
    const std::vector<double> row = pool.Row(r);
    double cached = 0.0, bare = 0.0;
    for (int k = 0; k < 2; ++k) {
      const bool cached_turn = (k == 0) == (r % 2 == 0);
      const xai::CoalitionEvaluator& e = cached_turn ? cold_engine : null_engine;
      const Clock::time_point t0 = Clock::now();
      e.Bind(row).ValueBatch(design.coalitions);
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      (cached_turn ? cached : bare) = us;
    }
    miss_delta_us.push_back(cached - bare);
  }
  const xai::EvalCacheStats cs = cold->stats();
  report->Metric("core.value_batch_miss_us", Quantile(miss_delta_us, 0.5),
                 "us",
                 std::to_string(kMissRows) + " paired calls, " +
                     std::to_string(cs.evictions) + " evictions");

  // The solver on real game values of one row.
  const xai::CoalitionEvaluator::BoundGame game =
      null_engine.Bind(in.rows->Row(0));
  const std::vector<double> values = game.ValueBatch(design.coalitions);
  const double base = game.BaseValue();
  const double full = game.Value(std::vector<bool>(d, true));
  size_t solve_failures = 0;
  const double solve_us = MedianCallUs(100, 20, [&] {
    if (!xai::SolveKernelShap(design.masks, values, design.weights, base, full,
                              1e-9)
             .ok())
      ++solve_failures;
  });
  if (solve_failures != 0) report->Fail("SolveKernelShap probe failed");
  report->Metric("math.kernel_solve_us", solve_us, "us",
                 "100 blocks of 20 calls, " +
                     std::to_string(design.masks.size()) +
                     " x " + std::to_string(d) + " design");
}

}  // namespace

void ProbeLayers(const ProbeInputs& in, Report* report) {
  // Data layer: quantizing the workload's training rows.
  const Clock::time_point b0 = Clock::now();
  auto binned = xai::BinnedDataset::Build(in.train->x(), 256);
  const double bin_s = Seconds(b0, Clock::now());
  if (!binned.ok()) {
    report->Fail("BinnedDataset::Build probe: " + binned.status().message());
    return;
  }
  report->Metric("data.bin_build_s", bin_s, "s",
                 std::to_string(in.train->n()) + " x " +
                     std::to_string(in.train->d()) + " rows");

  // Model layer: one histogram tree on the first boosting round's
  // gradients (logistic loss from the base rate), as GBDT::Fit grows it.
  const std::vector<double>& y = in.train->y();
  double p = 0.0;
  for (double v : y) p += v;
  p = std::clamp(p / static_cast<double>(y.size()), 1e-6, 1.0 - 1e-6);
  std::vector<double> residual(y.size()), hess(y.size(), p * (1.0 - p));
  for (size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - p;
  std::vector<double> fit_ms;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    const xai::Tree tree =
        xai::FitRegressionTreeHist(*binned, residual, in.tree, &hess);
    fit_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
    if (tree.nodes.empty()) report->Fail("FitRegressionTreeHist probe");
  }
  report->Metric("model.fit_tree_ms", Quantile(fit_ms, 0.5), "ms",
                 "median of 3 single-tree fits, depth " +
                     std::to_string(in.tree.max_depth));

  const double compile_us = MedianCallUs(
      21, 10, [&] { xai::FlatEnsemble::Compile(in.gbdt->trees()); });
  report->Metric("model.flat_compile_ms", compile_us * 1e-3, "ms",
                 std::to_string(in.gbdt->trees().size()) + " trees");

  if (in.treeshap) {
    xai::TreeShapExplainer explainer(*in.gbdt, in.train->schema());
    const double batch_us =
        MedianCallUs(5, 1, [&] { (void)explainer.ExplainBatch(*in.rows); });
    report->Metric("feature.treeshap_us_per_row",
                   batch_us / static_cast<double>(in.rows->rows()), "us",
                   "median of 5 batches of " +
                       std::to_string(in.rows->rows()) + " rows");
  }

  ProbeCoreAndMath(in, report);

  xai::ThreadPool& pool = xai::GlobalPool();
  const double pf_us = MedianCallUs(
      200, 20, [&] { pool.ParallelFor(0, 4, 1, [](size_t) {}); });
  report->Metric("common.parallel_for_us", pf_us, "us",
                 "200 blocks of 20 calls, pool of " +
                     std::to_string(pool.num_threads()));
}

}  // namespace perfbench
