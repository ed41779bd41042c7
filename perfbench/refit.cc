// refit: offline drift response. A histogram GBDT is fitted on 1M x 16
// correlated Gaussian rows, published as the next version of a temporary
// registry, reopened, fingerprint-verified and loaded, and the loaded
// version explains a fixed batch of 16,384 rows with TreeSHAP in
// ExplainBatch requests of 256 rows. Cycles repeat until the measured time
// is used up. The library pool has two workers: fits on 1M rows repeat
// within a few percent at that size, smaller fits did not.
//
// This drives the layers serving never touches: the data layer's bin build
// (about half of the fit), histogram tree training, the registry, and
// TreeSHAP.
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "feature/explainer_factory.h"
#include "model/registry.h"

namespace perfbench {

namespace {

constexpr size_t kRows = 1'000'000;
constexpr size_t kDims = 16;
constexpr size_t kExplainRows = 16'384;
constexpr size_t kExplainChunk = 256;
constexpr size_t kPredictChecks = 4'096;
constexpr size_t kBackgroundRows = 1'000;
constexpr size_t kPoolWorkers = 2;
constexpr int kSetupRepeats = 5;
constexpr size_t kServeProbeRequests = 64;
constexpr size_t kRateWindow = 8;  // requests per throughput sub-window
constexpr size_t kP90Window = 32;  // requests per latency_p90_ms window

xai::GbdtOptions RefitOptions() {
  xai::GbdtOptions o;
  o.num_rounds = 16;
  o.tree = {.max_depth = 6, .min_samples_leaf = 20, .max_features = 0};
  return o;
}

/// The rows one refit works on, generated from the seed alone.
struct RefitInputs {
  xai::Dataset train;
  xai::Matrix explain;              // the fixed TreeSHAP batch
  std::vector<xai::Matrix> chunks;  // explain, split into requests
};

std::unique_ptr<RefitInputs> MakeInputs(uint64_t seed) {
  auto in = std::make_unique<RefitInputs>();
  in->train = xai::MakeGaussianDataset(
      kRows, {.seed = xai::ChunkSeed(seed, 0), .dims = kDims, .rho = 0.25});
  in->explain = xai::MakeGaussianDataset(kExplainRows,
                                         {.seed = xai::ChunkSeed(seed, 1),
                                          .dims = kDims,
                                          .rho = 0.25})
                    .x();
  for (size_t r = 0; r < kExplainRows; r += kExplainChunk) {
    std::vector<size_t> idx;
    for (size_t i = r; i < r + kExplainChunk && i < kExplainRows; ++i)
      idx.push_back(i);
    in->chunks.push_back(in->explain.SelectRows(idx));
  }
  return in;
}

struct CycleResult {
  double refit_s = 0.0, publish_ms = 0.0, explain_s = 0.0;
  std::vector<double> request_ms;  // one per ExplainBatch request
  uint64_t steps = 0, steps_failed = 0;
  uint64_t rows_checked = 0, rows_failed = 0;
  xai::ModelHandle handle;  // the loaded version
};

/// One refit: Fit -> Add -> fresh Open -> Get, then TreeSHAP over the
/// fixed batch on the loaded version, then the correctness gates. With a
/// span log, every call into a layer is recorded as a span.
CycleResult RunCycle(const RefitInputs& in, xai::ModelRegistry& registry,
                     SpanLog* log, Report* report) {
  CycleResult out;
  const Clock::time_point t0 = Clock::now();
  auto fit = xai::GradientBoostedTrees::Fit(in.train, RefitOptions());
  const Clock::time_point t1 = Clock::now();
  auto art = fit.ok() ? registry.Add(*fit, "refit")
                      : xai::Result<xai::ModelArtifact>(fit.status());
  const Clock::time_point t2 = Clock::now();
  auto reopened = art.ok() ? xai::ModelRegistry::Open(registry.dir())
                           : xai::Result<xai::ModelRegistry>(art.status());
  const Clock::time_point t3 = Clock::now();
  auto handle = reopened.ok()
                    ? reopened->Get("refit", art->version)
                    : xai::Result<xai::ModelHandle>(reopened.status());
  const Clock::time_point t4 = Clock::now();
  out.steps = 4;
  if (!handle.ok()) {
    out.steps_failed = 1;
    report->Fail("refit pipeline: " + handle.status().message());
    return out;
  }
  out.refit_s = Seconds(t0, t4);
  out.publish_ms = Seconds(t1, t4) * 1e3;
  out.handle = *handle;
  const auto* loaded =
      dynamic_cast<const xai::GradientBoostedTrees*>(&out.handle.model());
  auto ex = xai::MakeExplainer(xai::ExplainerKind::kTreeShap, out.handle,
                               in.train);
  if (loaded == nullptr || !ex.ok()) {
    out.steps_failed = 1;
    report->Fail("loaded version cannot be explained with TreeSHAP");
    return out;
  }

  // Efficiency gate: sum(phi) + base == margin of the loaded version on
  // every explained row, margins taken from the model, not the explainer.
  const std::vector<double> margins = loaded->PredictMarginBatch(in.explain);
  size_t row = 0;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> requests;
  for (const xai::Matrix& chunk : in.chunks) {
    const Clock::time_point c0 = Clock::now();
    auto res = (*ex)->ExplainBatch(chunk);
    const Clock::time_point c1 = Clock::now();
    requests.emplace_back(c0, c1);
    ++out.steps;
    out.request_ms.push_back(Seconds(c0, c1) * 1e3);
    out.explain_s += Seconds(c0, c1);
    if (!res.ok() || res->size() != chunk.rows()) {
      ++out.steps_failed;
      report->Fail("TreeSHAP ExplainBatch request failed");
      row += chunk.rows();
      continue;
    }
    for (const xai::FeatureAttribution& a : *res) {
      double sum = a.base_value;
      for (double v : a.values) sum += v;
      const double m = margins[row++];
      ++out.rows_checked;
      if (!(std::fabs(sum - m) <= 1e-9 * (1.0 + std::fabs(m)))) ++out.rows_failed;
    }
  }

  if (log != nullptr) {
    const uint64_t cycle =
        log->Add("refit.cycle", 0, t0, requests.back().second);
    log->Add("model.fit", cycle, t0, t1);
    log->Add("model.registry_add", cycle, t1, t2);
    log->Add("model.registry_open", cycle, t2, t3);
    log->Add("model.registry_get", cycle, t3, t4);
    for (const auto& [c0, c1] : requests)
      log->Add("feature.explain_batch", cycle, c0, c1);
  }

  // Publish gate: the reloaded version predicts bit-identically to the
  // in-memory fit.
  std::vector<size_t> sample(kPredictChecks);
  for (size_t i = 0; i < sample.size(); ++i) sample[i] = i;
  const xai::Matrix x = in.explain.SelectRows(sample);
  const std::vector<double> a = fit->PredictMarginBatch(x);
  const std::vector<double> b = loaded->PredictMarginBatch(x);
  const std::vector<double> pa = fit->PredictBatch(x);
  const std::vector<double> pb = loaded->PredictBatch(x);
  for (size_t i = 0; i < sample.size(); ++i) {
    ++out.rows_checked;
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0 ||
        std::memcmp(&pa[i], &pb[i], sizeof(double)) != 0)
      ++out.rows_failed;
  }
  return out;
}

}  // namespace

void RunRefit(const RunOptions& opts, Report* report) {
  xai::SetGlobalThreads(kPoolWorkers);
  report->Context("pool_workers", static_cast<double>(kPoolWorkers));
  report->Context("train_rows", static_cast<double>(kRows));
  report->Context("explain_rows", static_cast<double>(kExplainRows));
  report->Context("request_rows", static_cast<double>(kExplainChunk));

  // Setup: the training rows and the explain batch in memory. Repeated,
  // median reported; each repeat frees the previous inputs first.
  std::vector<double> setup_s;
  std::unique_ptr<RefitInputs> in;
  for (int k = 0; k < kSetupRepeats; ++k) {
    in.reset();
    const Clock::time_point t0 = Clock::now();
    in = MakeInputs(opts.seed);
    setup_s.push_back(Seconds(t0, Clock::now()));
  }
  const std::string dir = opts.work_dir + "/registry-refit";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  auto registry = xai::ModelRegistry::OpenOrCreate(dir);
  if (!registry.ok()) {
    report->Fail("registry create: " + registry.status().message());
    return;
  }

  // Measured phase: whole cycles until the time is used up. A traced run
  // alternates plain and traced cycles (at least one of each).
  const Clock::time_point start = Clock::now();
  SpanLog log(start);
  std::vector<CycleResult> plain, traced;
  for (int k = 0;; ++k) {
    const bool is_traced = opts.trace && k % 2 == 1;
    CycleResult c = RunCycle(*in, *registry, is_traced ? &log : nullptr, report);
    if (c.steps_failed != 0) return;
    (is_traced ? traced : plain).push_back(std::move(c));
    const bool enough = opts.trace ? !traced.empty() : true;
    if (enough && Seconds(start, Clock::now()) >= opts.seconds) break;
  }
  std::filesystem::remove_all(dir, ec);  // the loaded versions stay in memory

  std::vector<CycleResult> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  uint64_t steps = 0, steps_failed = 0, rows = 0, rows_failed = 0;
  std::vector<double> publish_ms;
  for (const CycleResult& c : all) {
    steps += c.steps;
    steps_failed += c.steps_failed;
    rows += c.rows_checked;
    rows_failed += c.rows_failed;
    publish_ms.push_back(c.publish_ms);
  }
  report->Ops("pipeline steps", steps, steps_failed);
  report->Ops("row checks", rows, rows_failed);
  report->Context("cycles", static_cast<double>(all.size()));

  const auto median = [](const std::vector<CycleResult>& cs, auto f) {
    std::vector<double> v;
    for (const CycleResult& c : cs) v.push_back(f(c));
    return Quantile(v, 0.5);
  };
  const auto refit_s = [](const CycleResult& c) { return c.refit_s; };
  if (!opts.trace) {
    std::vector<double> request_ms;
    for (const CycleResult& c : plain)
      request_ms.insert(request_ms.end(), c.request_ms.begin(),
                        c.request_ms.end());
    const std::string cycles = std::to_string(plain.size()) + " cycles";
    report->Metric("setup_s", Quantile(setup_s, 0.5), "s",
                   "median of " + std::to_string(kSetupRepeats) + " setups");
    // Throughput over sub-windows of kRateWindow consecutive requests, so a
    // short host burst moves one window, not the run.
    std::vector<double> rates;
    for (const CycleResult& c : plain)
      for (size_t i = 0; i + kRateWindow <= c.request_ms.size();
           i += kRateWindow) {
        double ms = 0.0;
        for (size_t k = i; k < i + kRateWindow; ++k) ms += c.request_ms[k];
        rates.push_back(1e3 * static_cast<double>(kRateWindow) / ms);
      }
    report->Metric("throughput_rps", Quantile(rates, 0.5), "req/s",
                   "ExplainBatch requests of 256 rows, median of " +
                       std::to_string(rates.size()) + " windows of " +
                       std::to_string(kRateWindow));
    report->Metric("latency_p50_ms", Quantile(request_ms, 0.5), "ms",
                   std::to_string(request_ms.size()) + " requests");
    // p90 within each window of kP90Window consecutive requests (about 1 s,
    // as on serve_*), then the median over windows.
    std::vector<double> p90s;
    for (const CycleResult& c : plain)
      for (size_t i = 0; i + kP90Window <= c.request_ms.size(); i += kP90Window)
        p90s.push_back(Quantile(
            std::vector<double>(c.request_ms.begin() + static_cast<long>(i),
                                c.request_ms.begin() +
                                    static_cast<long>(i + kP90Window)),
            0.9));
    report->Metric("latency_p90_ms", Quantile(p90s, 0.5), "ms",
                   "median over " + std::to_string(p90s.size()) +
                       " windows of " + std::to_string(kP90Window) +
                       " requests of the window's p90");
    report->Context("latency_p90_all_ms", Quantile(request_ms, 0.9));
    report->Metric("refit_s", median(plain, refit_s), "s",
                   "fit, Add, Open, Get; median of " + cycles);
    report->Metric("explain_rows_per_s", median(plain, [](const CycleResult& c) {
                     return static_cast<double>(kExplainRows) / c.explain_s;
                   }),
                   "rows/s", "TreeSHAP, median of " + cycles);
    report->Metric("peak_rss_mib", PeakRssMiB(), "MiB");
    return;
  }

  const double plain_s = median(plain, refit_s);
  const double traced_s = median(traced, refit_s);
  report->Metric("model.publish_ms", Quantile(publish_ms, 0.5), "ms",
                 "Add + Open + Get, median of " + std::to_string(all.size()) +
                     " cycles");
  double explain_s = 0.0;
  for (const CycleResult& c : traced) explain_s += c.explain_s;
  report->Metric("feature.treeshap_us_per_row",
                 explain_s * 1e6 /
                     static_cast<double>(kExplainRows * traced.size()),
                 "us", std::to_string(kExplainRows * traced.size()) + " rows");
  report->Metric("bench.trace_overhead_pct",
                 100.0 * (traced_s - plain_s) / plain_s, "%",
                 "refit_s untraced " + std::to_string(plain_s) + " vs traced " +
                     std::to_string(traced_s));

  const auto* gbdt = dynamic_cast<const xai::GradientBoostedTrees*>(
      &all.back().handle.model());
  std::vector<size_t> bg(kBackgroundRows);
  for (size_t i = 0; i < bg.size(); ++i) bg[i] = i;
  const xai::Dataset background = in->train.Select(bg);
  std::vector<size_t> first(64);
  for (size_t i = 0; i < first.size(); ++i) first[i] = i;
  const xai::Matrix probe_rows = in->explain.SelectRows(first);
  ProbeInputs probe;
  probe.gbdt = gbdt;
  probe.train = &in->train;
  probe.background = &background;
  probe.rows = &probe_rows;
  probe.tree = RefitOptions().tree;
  probe.treeshap = false;
  ProbeLayers(probe, report);
  ProbeServeLayers(*gbdt, background, probe_rows, kServeProbeRequests,
                   report);

  const std::string path = opts.work_dir + "/spans-refit.json";
  if (!log.Write(path, log.size())) report->Fail("cannot write " + path);
  report->Context("spans_file", path);
  report->Context("spans", static_cast<double>(log.size()));
}

}  // namespace perfbench
