// xaidb_cli — explain any CSV from the command line.
//
// Usage:
//   xaidb_cli <data.csv> [--model gbdt|logistic|forest] [--row N]
//             [--explainer treeshap|kernelshap|lime|mcshapley|anchors|
//                          counterfactual|all]
//             [--serve-demo] [--swap-demo]
//             [--registry-dir <dir>] [--model-version N]
//             [--max-bins N] [--threads N] [--cache-size N]
//             [--metrics] [--metrics-json <path>]
//             [--trace-json <path>]
//             [--monitor-port N] [--monitor-period-ms N]
//             [--monitor-snapshot <path>] [--monitor-scrape <path>]
//             [--audit-dir <dir>]
//   xaidb_cli --audit-query <dir>
//   xaidb_cli --audit-replay <dir> [--registry-dir <dir>] [--model-version N]
//
// The CSV format is WriteCsv's: header row, last column = binary target.
// A NaN cell fails every tree fit (gbdt, forest) with InvalidArgument.
// With no arguments the tool writes a demo CSV to /tmp and explains it —
// so `xaidb_cli` alone always produces output. An unknown --flag, a value
// flag with no value after it, or a second positional argument is an
// error (exit 1).
//
// --max-bins N sets the histogram resolution of the gbdt and forest fits
// (default 256); a value outside [2, 65536] fails the fit.
//
// --serve-demo runs the async ExplanationService instead of a one-shot
// explanation: a burst of requests (with repeated hot rows) is submitted
// to the bounded queue, the dispatcher coalesces compatible requests into
// single ExplainBatch sweeps, and the tool reports the coalescing stats.
// Attributions are bit-identical to serving each request alone.
//
// --registry-dir points at a versioned model registry (created if
// absent). A freshly-trained model is registered as the next version of
// its kind; --model-version N instead loads version N of --model from the
// registry and skips training. All other modes then run against the
// registry-backed handle.
//
// --swap-demo demonstrates the zero-downtime hot-swap: it registers two
// GBDT versions (30 and 60 boosting rounds) in the registry, serves a
// burst against v1, swaps to v2 while requests are still in flight —
// warming v2's caches behind v1 before the atomic flip — then serves a
// second burst and reports per-version counts and latency. Honors the
// monitor flags, so a --monitor-scrape shows the serve.model_version
// gauge flipping.
//
// --metrics prints the library's internal counters and span timings
// (model evals, samples drawn, coalitions enumerated) after the run;
// --metrics-json writes the same data as JSON. Either flag — or the
// XAIDB_METRICS env var — turns instrumentation on.
//
// --trace-json turns on the flight recorder (like XAIDB_TRACE=1) and, at
// exit, writes every recorded event as Chrome trace-event JSON — open the
// file at https://ui.perfetto.dev to see the request timeline across the
// dispatcher and worker threads.
//
// --threads N caps the worker pool behind the batched explainer sweeps
// (overrides the XAIDB_THREADS env var; default = hardware concurrency).
// N must be in [1, 256] (kMaxThreads); anything else exits 1 before a
// pool is built. Attributions are bit-identical for every N at a fixed
// seed.
//
// --cache-size N sets the coalition-value memo cache capacity (overrides
// the XAIDB_CACHE env var; 0 disables). One-shot modes default to off;
// --serve-demo defaults to on — repeated hot rows then skip their model
// evaluations entirely. Caching never changes attribution bits; the
// evalengine.* counters in --metrics / --metrics-json show hits, misses
// and evictions.
//
// --monitor-port N turns on the continuous monitoring pipeline: a
// MetricsSampler thread snapshots the registry every --monitor-period-ms
// (default 200) into time series, an SloTracker evaluates burn rates on
// the serving latency/deadline objectives, and a Prometheus-text endpoint
// serves http://127.0.0.1:N/metrics (N=0 picks a free port, printed at
// startup) — `curl` it, or point a prometheus scrape_config at it. In
// --serve-demo the attribution-drift watchdog also rides the service's
// response observer and exports drift.* gauges. --monitor-snapshot writes
// the sampler's time series (plus any alerts) as JSON at exit for
// headless runs; --monitor-scrape performs one self-scrape of /metrics at
// exit and writes the exposition to a file (implies an ephemeral
// endpoint when --monitor-port is absent).
//
// --audit-dir <dir> (with --serve-demo / --swap-demo) writes every served
// explanation into the crash-safe audit ledger at <dir>: who asked (row
// hash + full instance), what answered (model name/version/fingerprint,
// explainer-config fingerprint), what came back (prediction, base value,
// top-k attributions) and how long it took. The ledger is flushed and
// summarized at exit.
//
// --audit-query <dir> reads a ledger standalone (no model, no CSV): a
// per-(model@version, explainer) digest table of counts, latency
// quantiles and mean top-attribution magnitude, plus a CRC integrity
// summary (corrupt frames / torn tail bytes).
//
// --audit-replay <dir> re-executes every logged request against the
// model named by --registry-dir/--model-version (or a freshly trained
// one) using the CLI's serving config, and reports the max absolute
// difference between replayed and logged values. Against the same model
// version and config the diff is exactly 0 — the grep-able
// "max_abs_diff 0" line is the determinism proof. Records whose model
// fingerprint differs from the loaded model are reported but skipped.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include <vector>

#include "cf/dice.h"
#include "common/thread_pool.h"
#include "data/csv.h"
#include "eval/drift.h"
#include "data/synthetic.h"
#include "feature/explainer_factory.h"
#include "feature/lime.h"
#include "model/decision_tree.h"
#include "model/gbdt.h"
#include "model/logistic_regression.h"
#include "model/metrics.h"
#include "model/registry.h"
#include "obs/audit.h"
#include "obs/obs.h"
#include "rule/anchors.h"
#include "serve/service.h"

using namespace xai;

namespace {

int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t i = std::min(
      v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  return v[i];
}

const char* KindName(uint8_t kind) {
  switch (static_cast<ExplainerKind>(kind)) {
    case ExplainerKind::kTreeShap: return "treeshap";
    case ExplainerKind::kKernelShap: return "kernelshap";
    case ExplainerKind::kLime: return "lime";
    case ExplainerKind::kMcShapley: return "mcshapley";
  }
  return "unknown";
}

/// --audit-query: standalone ledger inspection — per-(model@version, kind)
/// digests plus a CRC integrity summary. Needs neither model nor CSV.
int RunAuditQuery(const std::string& dir) {
  auto reader = obs::AuditReader::Open(dir);
  if (!reader.ok()) return Fail(reader.status());

  struct Digest {
    std::vector<double> total_ms;
    double queue_sum = 0.0, sweep_sum = 0.0, top1_sum = 0.0;
    uint64_t first_ms = 0, last_ms = 0;
  };
  std::map<std::string, Digest> by_key;
  obs::AuditScanStats scan;
  Status st = reader->ForEach(
      obs::AuditQuery{},
      [&](const obs::AuditRecord& r) {
        char key[320];
        std::snprintf(key, sizeof key, "%s@v%d %s", r.model_name.c_str(),
                      r.model_version, KindName(r.kind));
        Digest& d = by_key[key];
        d.total_ms.push_back(r.total_ms);
        d.queue_sum += r.queue_ms;
        d.sweep_sum += r.sweep_ms;
        if (!r.top_attr.empty()) d.top1_sum += std::fabs(r.top_attr[0].value);
        if (d.first_ms == 0 || r.unix_ms < d.first_ms) d.first_ms = r.unix_ms;
        d.last_ms = std::max(d.last_ms, r.unix_ms);
      },
      &scan);
  if (!st.ok()) return Fail(st);

  std::printf("audit-query: %s — %zu segments, %" PRIu64 " records, %" PRIu64
              " bytes\n",
              dir.c_str(), reader->segments().size(), scan.records,
              scan.bytes);
  std::printf("%-28s %8s %9s %9s %9s %11s\n", "model@version explainer",
              "count", "p50_ms", "p99_ms", "sweep_ms", "mean|top1|");
  for (const auto& [key, d] : by_key) {
    const double n = static_cast<double>(d.total_ms.size());
    std::printf("%-28s %8zu %9.3f %9.3f %9.3f %11.4f\n", key.c_str(),
                d.total_ms.size(), Quantile(d.total_ms, 0.50),
                Quantile(d.total_ms, 0.99), d.sweep_sum / n, d.top1_sum / n);
  }
  if (scan.corrupt_frames != 0 || scan.corrupt_segments != 0 ||
      scan.torn_tail_bytes != 0) {
    std::printf("audit-query: integrity — %" PRIu64 " corrupt frames, %" PRIu64
                " corrupt segments, %" PRIu64 " torn tail bytes\n",
                scan.corrupt_frames, scan.corrupt_segments,
                scan.torn_tail_bytes);
  } else {
    std::printf("audit-query: integrity — clean (every frame "
                "CRC-verified)\n");
  }
  return 0;
}

/// --audit-replay: re-executes every logged request against the loaded
/// model through a fresh ExplanationService and diffs the results against
/// the ledger. Same model version + serving config => max_abs_diff 0.
int RunAuditReplay(const std::string& dir, const ModelHandle& handle,
                   const Dataset& ds, const ExplainerConfig& config) {
  auto reader = obs::AuditReader::Open(dir);
  if (!reader.ok()) return Fail(reader.status());
  obs::AuditScanStats scan;
  auto records = reader->ReadAll(obs::AuditQuery{}, &scan);
  if (!records.ok()) return Fail(records.status());
  std::printf("audit-replay: %s — %zu records to replay against %s "
              "(fingerprint %016" PRIx64 ")\n",
              dir.c_str(), records->size(), handle.VersionedName().c_str(),
              handle.fingerprint());

  ExplanationServiceOptions sopts;
  sopts.config = config;
  ExplanationService service(handle, ds, sopts);

  // Identical (kind, budget, row) requests are deterministic, so each
  // distinct tuple is re-executed once and compared against every record
  // that logged it.
  std::map<std::tuple<uint8_t, int32_t, std::vector<double>>,
           FeatureAttribution> memo;
  size_t replayed = 0, skipped_model = 0;
  double max_abs_diff = 0.0;
  for (const obs::AuditRecord& rec : records.value()) {
    if (rec.model_fingerprint != handle.fingerprint()) {
      ++skipped_model;
      continue;
    }
    auto key = std::make_tuple(rec.kind, rec.budget, rec.instance);
    auto it = memo.find(key);
    if (it == memo.end()) {
      ExplanationRequest req;
      req.instance = rec.instance;
      req.kind = static_cast<ExplainerKind>(rec.kind);
      req.budget = rec.budget;
      Result<ExplanationResponse> r = service.Submit(std::move(req)).get();
      if (!r.ok()) return Fail(r.status());
      it = memo.emplace(std::move(key), std::move(r).value().attribution)
               .first;
    }
    const FeatureAttribution& fa = it->second;
    double d = std::fabs(fa.prediction - rec.prediction);
    d = std::max(d, std::fabs(fa.base_value - rec.base_value));
    for (const obs::AuditTopAttr& a : rec.top_attr) {
      // An out-of-range index means the model arity changed under the
      // ledger — count it as a full-scale divergence, not a crash.
      if (a.index < fa.values.size())
        d = std::max(d, std::fabs(fa.values[a.index] - a.value));
      else
        d = std::max(d, 1.0);
    }
    max_abs_diff = std::max(max_abs_diff, d);
    ++replayed;
  }
  service.Shutdown();

  std::printf("audit-replay: replayed %zu records (%zu unique sweeps, "
              "%zu skipped: different model fingerprint)\n",
              replayed, memo.size(), skipped_model);
  if (scan.corrupt_frames != 0 || scan.torn_tail_bytes != 0)
    std::printf("audit-replay: ledger had %" PRIu64 " corrupt frames, %" PRIu64
                " torn tail bytes\n",
                scan.corrupt_frames, scan.torn_tail_bytes);
  std::printf("audit-replay: max_abs_diff %g\n", max_abs_diff);
  if (replayed > 0 && max_abs_diff != 0.0) {
    std::fprintf(stderr,
                 "FAIL: replayed attributions diverge from the ledger\n");
    return 1;
  }
  return 0;
}

/// Writes the flight-recorder buffers out when --trace-json was given.
int FlushTrace(const std::string& path) {
  if (path.empty()) return 0;
  Status st = obs::WriteTraceJson(path);
  if (!st.ok()) return Fail(st);
  std::printf("\ntrace written to %s (%llu events, %llu dropped) — open it "
              "at https://ui.perfetto.dev\n",
              path.c_str(),
              static_cast<unsigned long long>(obs::TraceEventCount()),
              static_cast<unsigned long long>(obs::TraceDroppedCount()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string csv_path;
  std::string model_kind = "gbdt";
  std::string explainer_kind = "treeshap";
  std::string metrics_json_path;
  std::string trace_json_path;
  bool print_metrics = false;
  bool serve_demo = false;
  bool swap_demo = false;
  std::string registry_dir;
  int model_version = 0;  // 0 = train fresh (and register if --registry-dir)
  size_t row = 0;
  long long cache_size = -1;  // -1 = not given; keep per-mode defaults
  long long monitor_port = -1;  // -1 = no endpoint
  long long monitor_period_ms = 200;
  std::string monitor_snapshot_path;
  std::string monitor_scrape_path;
  std::string audit_dir;
  std::string audit_query_dir;
  std::string audit_replay_dir;
  TrainOptions train_opts;  // --max-bins
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--model" && i + 1 < argc) {
      model_kind = argv[++i];
    } else if (arg == "--explainer" && i + 1 < argc) {
      explainer_kind = argv[++i];
    } else if (arg == "--row" && i + 1 < argc) {
      row = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (arg == "--serve-demo") {
      serve_demo = true;
    } else if (arg == "--swap-demo") {
      swap_demo = true;
    } else if (arg == "--registry-dir" && i + 1 < argc) {
      registry_dir = argv[++i];
    } else if (arg == "--model-version" && i + 1 < argc) {
      model_version = static_cast<int>(std::atoll(argv[++i]));
    } else if (arg == "--metrics") {
      print_metrics = true;
    } else if (arg == "--metrics-json" && i + 1 < argc) {
      metrics_json_path = argv[++i];
    } else if (arg == "--trace-json" && i + 1 < argc) {
      trace_json_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      const char* value = argv[++i];
      char* end = nullptr;
      errno = 0;
      const long long n = std::strtoll(value, &end, 10);
      if (end == value || *end != '\0' || errno != 0 || n < 1 ||
          n > static_cast<long long>(kMaxThreads)) {
        std::fprintf(stderr,
                     "error: --threads must be an integer in [1, %zu], "
                     "got '%s'\n",
                     kMaxThreads, value);
        return 1;
      }
      SetGlobalThreads(static_cast<size_t>(n));
    } else if (arg == "--cache-size" && i + 1 < argc) {
      cache_size = std::atoll(argv[++i]);
      if (cache_size < 0) cache_size = 0;
    } else if (arg == "--monitor-port" && i + 1 < argc) {
      monitor_port = std::atoll(argv[++i]);
    } else if (arg == "--monitor-period-ms" && i + 1 < argc) {
      monitor_period_ms = std::max(1LL, std::atoll(argv[++i]));
    } else if (arg == "--monitor-snapshot" && i + 1 < argc) {
      monitor_snapshot_path = argv[++i];
    } else if (arg == "--monitor-scrape" && i + 1 < argc) {
      monitor_scrape_path = argv[++i];
    } else if (arg == "--audit-dir" && i + 1 < argc) {
      audit_dir = argv[++i];
    } else if (arg == "--audit-query" && i + 1 < argc) {
      audit_query_dir = argv[++i];
    } else if (arg == "--audit-replay" && i + 1 < argc) {
      audit_replay_dir = argv[++i];
    } else if (arg == "--max-bins" && i + 1 < argc) {
      // Saturated to int only: the fit rejects values outside [2, 65536].
      train_opts.max_bins = static_cast<int>(
          std::clamp(std::atoll(argv[++i]),
                     static_cast<long long>(std::numeric_limits<int>::min()),
                     static_cast<long long>(std::numeric_limits<int>::max())));
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s <data.csv> [--model gbdt|logistic|forest] "
                  "[--row N] [--explainer "
                  "treeshap|kernelshap|lime|mcshapley|anchors|"
                  "counterfactual|all] [--serve-demo] [--swap-demo] "
                  "[--registry-dir <dir>] [--model-version N] "
                  "[--max-bins N] "
                  "[--threads N] [--cache-size N] "
                  "[--metrics] [--metrics-json <path>] "
                  "[--trace-json <path>] "
                  "[--monitor-port N] [--monitor-period-ms N] "
                  "[--monitor-snapshot <path>] [--monitor-scrape <path>] "
                  "[--audit-dir <dir>] | "
                  "--audit-query <dir> | "
                  "--audit-replay <dir> [--registry-dir <dir>] "
                  "[--model-version N]\n",
                  argv[0]);
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      // An unknown flag, or a value flag given as the last argument.
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return 1;
    } else if (csv_path.empty()) {
      csv_path = arg;
    } else {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", arg.c_str());
      return 1;
    }
  }
  // Ledger inspection is fully standalone: no model, no CSV, no monitor.
  if (!audit_query_dir.empty()) return RunAuditQuery(audit_query_dir);

  // A scrape file without an explicit port still needs an endpoint to
  // scrape — use an ephemeral one.
  if (!monitor_scrape_path.empty() && monitor_port < 0) monitor_port = 0;
  const bool monitor_on = monitor_port >= 0 || !monitor_snapshot_path.empty();

  if (print_metrics || !metrics_json_path.empty() || monitor_on)
    obs::SetEnabled(true);
  if (!trace_json_path.empty()) obs::SetTraceEnabled(true);

  // Continuous monitoring: sampler thread + SLO burn-rate tracker, plus
  // the Prometheus endpoint when a port was requested. Declared SLOs are
  // demo-scale production objectives over the serving-path metrics.
  std::unique_ptr<obs::MetricsSampler> sampler;
  std::unique_ptr<obs::SloTracker> slo;
  std::unique_ptr<obs::MonitorServer> monitor_server;
  if (monitor_on) {
    sampler = std::make_unique<obs::MetricsSampler>(obs::MonitorOptions{
        std::chrono::milliseconds(monitor_period_ms), 512});
    std::vector<obs::SloObjective> objectives;
    // <=1% of requests may wait more than 50ms in the queue...
    objectives.push_back({"queue_wait", "serve.queue_wait_us", 50e3, "", "",
                          0.01});
    // ...and <=5% may ride a sweep longer than 500ms.
    objectives.push_back({"sweep", "serve.sweep_us", 500e3, "", "", 0.05});
    // Deadline misses are an error-budget ratio over everything batched.
    objectives.push_back({"deadline_miss", "", 0.0, "serve.expired",
                          "serve.batched_requests", 0.001});
    slo = std::make_unique<obs::SloTracker>(std::move(objectives));
    sampler->AddTickObserver(slo->Observer());
    sampler->Start();
    if (monitor_port >= 0) {
      monitor_server = std::make_unique<obs::MonitorServer>(sampler.get());
      Status st = monitor_server->Start(static_cast<int>(monitor_port));
      if (!st.ok()) return Fail(st);
      std::printf("monitor: serving Prometheus text format on "
                  "http://127.0.0.1:%d/metrics (also /json, /series)\n",
                  monitor_server->port());
    }
  }

  // Shared exit path for both serve-demo and one-shot modes: flush the
  // last sampler window, self-scrape the endpoint if asked, persist the
  // time-series snapshot, and report any alerts the run fired.
  auto finish_monitor = [&]() -> int {
    if (!monitor_on) return 0;
    sampler->TickNow();  // capture the tail window before exporting
    if (!monitor_scrape_path.empty()) {
      Result<std::string> scrape =
          obs::HttpGetLocal(monitor_server->port(), "/metrics");
      if (!scrape.ok()) return Fail(scrape.status());
      std::FILE* f = std::fopen(monitor_scrape_path.c_str(), "w");
      if (f == nullptr || std::fwrite(scrape.value().data(), 1,
                                      scrape.value().size(),
                                      f) != scrape.value().size()) {
        if (f != nullptr) std::fclose(f);
        return Fail(Status::IOError("cannot write scrape file: " +
                                    monitor_scrape_path));
      }
      std::fclose(f);
      std::printf("monitor: wrote /metrics scrape to %s\n",
                  monitor_scrape_path.c_str());
    }
    if (!monitor_snapshot_path.empty()) {
      Status st =
          obs::WriteSnapshotJson(*sampler, monitor_snapshot_path, slo.get());
      if (!st.ok()) return Fail(st);
      std::printf("monitor: wrote time-series snapshot to %s (%llu ticks)\n",
                  monitor_snapshot_path.c_str(),
                  static_cast<unsigned long long>(sampler->ticks()));
    }
    for (const obs::Alert& a : slo->alerts())
      std::printf("monitor: ALERT [%s] objective=%s window=%s "
                  "burn_rate=%.2f\n",
                  a.severity.c_str(), a.objective.c_str(), a.window.c_str(),
                  a.burn_rate);
    if (monitor_server) monitor_server->Stop();
    sampler->Stop();
    return 0;
  };
  // One-shot modes route coalition values through the process-global memo
  // cache (off unless --cache-size / XAIDB_CACHE says otherwise); the
  // serve demo uses the service's per-key caches instead, below.
  if (cache_size >= 0)
    SetGlobalEvalCacheCapacity(static_cast<size_t>(cache_size));

  if (csv_path.empty()) {
    csv_path = "/tmp/xaidb_demo.csv";
    std::printf("no CSV given; writing a demo loan dataset to %s\n\n",
                csv_path.c_str());
    Status st = WriteCsv(MakeLoanDataset(1500), csv_path);
    if (!st.ok()) return Fail(st);
  }

  auto data = ReadCsv(csv_path);
  if (!data.ok()) return Fail(data.status());
  Dataset ds = std::move(data).value();
  std::printf("loaded %zu rows x %zu features from %s\n", ds.n(), ds.d(),
              csv_path.c_str());
  if (row >= ds.n()) {
    std::fprintf(stderr, "error: --row %zu out of range\n", row);
    return 1;
  }

  if (swap_demo) {
    // Zero-downtime hot-swap, end to end: two registered GBDT versions,
    // live traffic through the flip, per-version accounting after.
    if (registry_dir.empty()) registry_dir = "/tmp/xaidb_registry_demo";
    auto reg = ModelRegistry::OpenOrCreate(registry_dir);
    if (!reg.ok()) return Fail(reg.status());
    ModelRegistry registry = std::move(reg).value();
    auto m1 = GradientBoostedTrees::Fit(ds, {.num_rounds = 30});
    if (!m1.ok()) return Fail(m1.status());
    auto m2 = GradientBoostedTrees::Fit(ds, {.num_rounds = 60});
    if (!m2.ok()) return Fail(m2.status());
    auto a1 = registry.Add(*m1, "gbdt");
    if (!a1.ok()) return Fail(a1.status());
    auto a2 = registry.Add(*m2, "gbdt");
    if (!a2.ok()) return Fail(a2.status());
    auto h1 = registry.Get("gbdt", a1->version);
    if (!h1.ok()) return Fail(h1.status());
    auto h2 = registry.Get("gbdt", a2->version);
    if (!h2.ok()) return Fail(h2.status());
    std::printf("registry %s: registered %s (30 rounds) and %s (60 "
                "rounds)\n",
                registry.dir().c_str(), h1->VersionedName().c_str(),
                h2->VersionedName().c_str());

    ExplanationServiceOptions sopts;
    ExplainerConfig sconfig;
    sconfig.kernel_shap.max_background = 20;
    sopts.config = sconfig;
    if (cache_size >= 0) sopts.cache_size = static_cast<size_t>(cache_size);
    std::shared_ptr<obs::AuditLog> audit;
    if (!audit_dir.empty()) {
      auto a = obs::AuditLog::Open(audit_dir);
      if (!a.ok()) return Fail(a.status());
      audit = std::move(a).value();
      sopts.audit = audit;
      std::printf("audit: writing every served explanation to the ledger "
                  "at %s\n",
                  audit_dir.c_str());
    }
    ExplanationService service(*h1, ds, sopts);

    const size_t kPhase = 40;
    const size_t kDistinct = std::min<size_t>(8, ds.n());
    auto submit_burst = [&](std::vector<std::future<
                                Result<ExplanationResponse>>>* futures) {
      for (size_t i = 0; i < kPhase; ++i) {
        ExplanationRequest req;
        req.instance = ds.row(i % kDistinct);
        req.kind = ExplainerKind::kKernelShap;
        futures->push_back(service.Submit(std::move(req)));
      }
    };
    std::vector<std::future<Result<ExplanationResponse>>> futures;
    // Phase 1 is queued against v1; the swap lands while those requests
    // are still being served. They finish on v1 — the handle each one
    // captured at Submit — while the flip warms and switches to v2.
    submit_burst(&futures);
    auto report = service.SwapModel(*h2, {.warm_rows = 32});
    if (!report.ok()) return Fail(report.status());
    std::printf("swap %s -> %s: warmed %zu families / %zu rows in %.1f "
                "ms\n",
                report->from.c_str(), report->to.c_str(),
                report->warmed_families, report->warmed_rows,
                report->warm_ms);
    submit_burst(&futures);

    size_t v1_count = 0, v2_count = 0, failures = 0;
    std::vector<double> total_ms;
    for (auto& f : futures) {
      const Result<ExplanationResponse> r = f.get();
      if (!r.ok()) {
        ++failures;
        continue;
      }
      total_ms.push_back(r->breakdown.total_ms);
      if (r->breakdown.model_version == h1->version()) ++v1_count;
      if (r->breakdown.model_version == h2->version()) ++v2_count;
    }
    service.Shutdown();
    if (audit) {
      audit->Flush();
      const obs::AuditLogStats as = audit->stats();
      std::printf("audit: %" PRIu64 " records (%" PRIu64 " dropped) in %"
                  PRIu64 " segments, %" PRIu64 " bytes, %" PRIu64
                  " fsyncs — records span both versions; --audit-query "
                  "shows the per-version split\n",
                  as.written, as.dropped, as.segments, as.bytes, as.fsyncs);
    }
    const ExplanationServiceStats stats = service.stats();
    if (Status st = registry.SetServing("gbdt", h2->version()); !st.ok())
      return Fail(st);
    std::printf("swap-demo: %zu requests served on %s, %zu on %s, %zu "
                "failed/dropped\n",
                v1_count, h1->VersionedName().c_str(), v2_count,
                h2->VersionedName().c_str(), failures);
    std::printf("  latency total_ms: p50=%.3f p99=%.3f   swaps=%llu  "
                "serving version=%d\n",
                Quantile(total_ms, 0.50), Quantile(total_ms, 0.99),
                static_cast<unsigned long long>(stats.swaps),
                stats.model_version);
    std::printf("  registry now serves %s by default\n",
                h2->VersionedName().c_str());
    if (failures != 0) return 1;
    if (const int rc = finish_monitor(); rc != 0) return rc;
    if (obs::Enabled()) {
      if (print_metrics) std::printf("\n%s", obs::MetricsToTable().c_str());
      if (!metrics_json_path.empty()) {
        Status st = obs::WriteMetricsJson(metrics_json_path);
        if (!st.ok()) return Fail(st);
        std::printf("\nmetrics written to %s\n", metrics_json_path.c_str());
      }
    }
    return FlushTrace(trace_json_path);
  }

  // Model source: a registry-backed versioned handle, or a borrowed
  // handle around a freshly-trained in-memory model.
  ModelRegistry registry;
  if (!registry_dir.empty()) {
    auto reg = ModelRegistry::OpenOrCreate(registry_dir);
    if (!reg.ok()) return Fail(reg.status());
    registry = std::move(reg).value();
  }

  std::unique_ptr<Model> model;  // owned only when trained locally
  ModelHandle handle;
  if (registry.valid() && model_version > 0) {
    auto h = registry.Get(model_kind, model_version);
    if (!h.ok()) return Fail(h.status());
    handle = std::move(h).value();
    std::printf("registry: loaded %s (kind=%s) from %s\n",
                handle.VersionedName().c_str(), handle.kind().c_str(),
                registry.dir().c_str());
  } else {
    obs::Stopwatch fit_watch;
    if (model_kind == "gbdt") {
      GbdtOptions gopts{.num_rounds = 60};
      gopts.tree.train = train_opts;
      auto m = GradientBoostedTrees::Fit(ds, gopts);
      if (!m.ok()) return Fail(m.status());
      model = std::make_unique<GradientBoostedTrees>(std::move(*m));
    } else if (model_kind == "logistic") {
      auto m = LogisticRegression::Fit(ds, {.lambda = 1e-3});
      if (!m.ok()) return Fail(m.status());
      model = std::make_unique<LogisticRegression>(std::move(*m));
    } else if (model_kind == "forest") {
      RandomForestOptions fopts{.num_trees = 60};
      fopts.tree.train = train_opts;
      auto m = RandomForest::Fit(ds, fopts);
      if (!m.ok()) return Fail(m.status());
      model = std::make_unique<RandomForest>(std::move(*m));
    } else {
      std::fprintf(stderr, "error: unknown model '%s'\n", model_kind.c_str());
      return 1;
    }
    if (model_kind == "gbdt" || model_kind == "forest") {
      std::printf("train: max_bins=%d fit_ms=%.1f\n", train_opts.max_bins,
                  fit_watch.ElapsedMs());
    }
    if (registry.valid()) {
      // Persist the fresh fit as the next version and serve the
      // registry-loaded copy, so what runs is exactly what's on disk.
      auto art = registry.Add(*model, model_kind);
      if (!art.ok()) return Fail(art.status());
      auto h = registry.Get(model_kind, art->version);
      if (!h.ok()) return Fail(h.status());
      handle = std::move(h).value();
      model.reset();
      std::printf("registry: registered %s -> %s/%s\n",
                  handle.VersionedName().c_str(), registry.dir().c_str(),
                  art->path.c_str());
    } else {
      handle = ModelHandle::Borrow(*model, model_kind, 1);
    }
  }
  const Model& mdl = handle.model();
  std::printf("model=%s  train accuracy=%.3f  AUC=%.3f\n\n",
              model_kind.c_str(), EvaluateAccuracy(mdl, ds),
              EvaluateAuc(mdl, ds));

  // The per-family explainer options every mode below shares — one config
  // object, forwarded to the factory (and to the service in --serve-demo).
  ExplainerConfig config;
  config.kernel_shap.max_background = 50;
  config.lime.num_samples = 3000;

  if (!audit_replay_dir.empty())
    return RunAuditReplay(audit_replay_dir, handle, ds, config);

  if (serve_demo) {
    // Submit a burst with hot-row repetition: 60 requests over 12 distinct
    // rows, two explainer families. The dispatcher coalesces compatible
    // requests into single ExplainBatch sweeps and answers duplicate
    // instances from one computation — attributions stay bit-identical to
    // serving each request alone.
    ExplanationServiceOptions sopts;
    sopts.config = config;
    // Default on: the demo's hot-row repetition is exactly the workload
    // the coalition-value cache exists for.
    if (cache_size >= 0) sopts.cache_size = static_cast<size_t>(cache_size);
    std::shared_ptr<obs::AuditLog> audit;
    if (!audit_dir.empty()) {
      auto a = obs::AuditLog::Open(audit_dir);
      if (!a.ok()) return Fail(a.status());
      audit = std::move(a).value();
      sopts.audit = audit;
      std::printf("audit: writing every served explanation to the ledger "
                  "at %s\n",
                  audit_dir.c_str());
    }
    // With monitoring on, the drift watchdog rides the response observer:
    // every served attribution feeds its sliding mean-|phi| windows, and
    // drift.* gauges flow into the sampler and the scrape endpoint.
    std::unique_ptr<AttributionDriftWatchdog> watchdog;
    if (monitor_on) {
      DriftWatchdogOptions dopts;
      dopts.reference_window = 24;
      dopts.window = 24;
      dopts.min_window = 12;
      dopts.check_every = 4;
      watchdog = std::make_unique<AttributionDriftWatchdog>(dopts);
      sopts.response_observer = [&watchdog](const ExplanationRequest&,
                                            const ExplanationResponse& r) {
        watchdog->Observe(r.attribution);
      };
    }
    ExplanationService service(handle, ds, sopts);
    const size_t kRequests = 60;
    const size_t kDistinct = std::min<size_t>(12, ds.n());
    std::vector<std::future<Result<ExplanationResponse>>> futures;
    for (size_t i = 0; i < kRequests; ++i) {
      ExplanationRequest req;
      req.instance = ds.row(i % kDistinct);
      req.kind = i % 3 == 0 ? ExplainerKind::kMcShapley
                            : ExplainerKind::kKernelShap;
      futures.push_back(service.Submit(std::move(req)));
    }
    std::vector<double> queue_ms, sweep_ms, total_ms;
    size_t max_batch = 0;
    for (auto& f : futures) {
      const Result<ExplanationResponse> r = f.get();
      if (!r.ok()) return Fail(r.status());
      const ExplanationBreakdown& b = r.value().breakdown;
      queue_ms.push_back(b.queue_ms);
      sweep_ms.push_back(b.sweep_ms);
      total_ms.push_back(b.total_ms);
      max_batch = std::max(max_batch, b.coalesce_batch_size);
    }
    const ExplanationServiceStats stats = service.stats();
    std::printf("serve-demo: %llu requests served in %llu coalesced "
                "batches (%llu answered from a duplicate's computation)\n",
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.batches),
                static_cast<unsigned long long>(stats.coalesced_duplicates));
    // Where each request's time went, from the per-request breakdowns the
    // service now returns alongside every attribution.
    std::printf("per-request breakdown (ms):\n");
    std::printf("  %-12s %8s %8s\n", "stage", "p50", "p99");
    std::printf("  %-12s %8.3f %8.3f\n", "queue_wait",
                Quantile(queue_ms, 0.50), Quantile(queue_ms, 0.99));
    std::printf("  %-12s %8.3f %8.3f\n", "sweep", Quantile(sweep_ms, 0.50),
                Quantile(sweep_ms, 0.99));
    std::printf("  %-12s %8.3f %8.3f\n", "total", Quantile(total_ms, 0.50),
                Quantile(total_ms, 0.99));
    std::printf("  largest coalesced batch: %zu requests\n", max_batch);
    std::printf("  queue depth at shutdown: %llu\n",
                static_cast<unsigned long long>(stats.queue_depth));
    if (stats.cache_hits + stats.cache_misses > 0) {
      std::printf("eval cache: %llu hits / %llu misses (%.1f%% hit rate), "
                  "%llu entries, %llu evictions\n",
                  static_cast<unsigned long long>(stats.cache_hits),
                  static_cast<unsigned long long>(stats.cache_misses),
                  100.0 * static_cast<double>(stats.cache_hits) /
                      static_cast<double>(stats.cache_hits +
                                          stats.cache_misses),
                  static_cast<unsigned long long>(stats.cache_entries),
                  static_cast<unsigned long long>(stats.cache_evictions));
    }
    service.Shutdown();
    if (audit) {
      // Drain + fsync before the monitor self-scrape so the
      // xaidb_audit_* counters in the exposition cover the whole burst.
      audit->Flush();
      const obs::AuditLogStats as = audit->stats();
      std::printf("audit: %" PRIu64 " records (%" PRIu64 " dropped) in %"
                  PRIu64 " segments, %" PRIu64 " bytes, %" PRIu64
                  " fsyncs\n",
                  as.written, as.dropped, as.segments, as.bytes, as.fsyncs);
    }
    if (watchdog) {
      const DriftReport dr = watchdog->Report();
      std::printf("drift watchdog: %llu responses observed, reference %s, "
                  "L1 shift %.4f, PSI %.4f%s\n",
                  static_cast<unsigned long long>(dr.observed),
                  dr.reference_pinned ? "pinned" : "not pinned", dr.l1,
                  dr.psi, dr.alerting ? "  ** DRIFT ALERT **" : "");
    }
    if (const int rc = finish_monitor(); rc != 0) return rc;
    if (obs::Enabled()) {
      if (print_metrics) std::printf("\n%s", obs::MetricsToTable().c_str());
      if (!metrics_json_path.empty()) {
        Status st = obs::WriteMetricsJson(metrics_json_path);
        if (!st.ok()) return Fail(st);
        std::printf("\nmetrics written to %s\n", metrics_json_path.c_str());
      }
    }
    return FlushTrace(trace_json_path);
  }

  const std::vector<double> x = ds.row(row);
  std::printf("explaining row %zu (prediction = %.3f):\n", row,
              mdl.Predict(x));
  for (size_t j = 0; j < ds.d(); ++j)
    std::printf("  %s\n", ds.schema().FormatValue(j, x[j]).c_str());
  std::printf("\n");

  auto run_one = [&](const std::string& kind) -> int {
    // The four attribution families all go through the shared factory;
    // anchors / counterfactuals return different explanation types and
    // keep their bespoke paths.
    if (auto parsed = ParseExplainerKind(kind); parsed.ok()) {
      auto explainer = MakeExplainer(*parsed, handle, ds, config);
      if (!explainer.ok()) return Fail(explainer.status());
      auto attr = (*explainer)->Explain(x);
      if (!attr.ok()) return Fail(attr.status());
      switch (*parsed) {
        case ExplainerKind::kTreeShap:
          std::printf("TreeSHAP (log-odds units):\n%s",
                      attr->ToString().c_str());
          break;
        case ExplainerKind::kKernelShap:
          std::printf("KernelSHAP:\n%s", attr->ToString().c_str());
          break;
        case ExplainerKind::kLime: {
          const auto* lime =
              dynamic_cast<const LimeExplainer*>(explainer->get());
          std::printf("LIME (local R^2 = %.3f):\n%s",
                      lime ? lime->last_local_r2() : 0.0,
                      attr->ToString().c_str());
          break;
        }
        case ExplainerKind::kMcShapley:
          std::printf("MC-Shapley (%d permutations, marginal game):\n%s",
                      config.mc_shapley.num_permutations,
                      attr->ToString().c_str());
          break;
      }
    } else if (kind == "anchors") {
      AnchorsExplainer explainer(mdl, ds, {});
      auto rule = explainer.Explain(x);
      if (!rule.ok()) return Fail(rule.status());
      std::printf("Anchor:\n%s\n", rule->ToString(ds.schema()).c_str());
    } else if (kind == "counterfactual") {
      FeatureSpace space = FeatureSpace::FromDataset(ds);
      const int desired = mdl.Predict(x) >= 0.5 ? 0 : 1;
      auto cfs = DiceCounterfactuals(mdl, space, x, desired,
                                     {.num_counterfactuals = 3});
      if (!cfs.ok()) return Fail(cfs.status());
      std::printf("counterfactuals toward class %d:\n%s", desired,
                  cfs->ToString(ds.schema(), x).c_str());
    } else {
      std::fprintf(stderr, "error: unknown explainer '%s'\n", kind.c_str());
      return 1;
    }
    return 0;
  };

  if (explainer_kind == "all") {
    // One instrumented pass over every explainer family — with
    // --metrics-json this produces a single JSON covering KernelSHAP,
    // LIME, TreeSHAP, MC-Shapley and a counterfactual search.
    for (const char* kind :
         {"treeshap", "kernelshap", "lime", "mcshapley", "counterfactual"}) {
      // TreeSHAP needs a tree model; the factory would reject logistic.
      if (std::string(kind) == "treeshap" && model_kind == "logistic")
        continue;
      std::printf("--- %s ---\n", kind);
      const int rc = run_one(kind);
      if (rc != 0) return rc;
      std::printf("\n");
    }
  } else {
    const int rc = run_one(explainer_kind);
    if (rc != 0) return rc;
  }

  if (std::shared_ptr<CoalitionValueCache> cache = GlobalEvalCache()) {
    const EvalCacheStats cs = cache->stats();
    std::printf("\neval cache (capacity %zu): %llu hits / %llu misses "
                "(%.1f%% hit rate), %llu entries, %llu evictions\n",
                cache->capacity(),
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses),
                100.0 * cs.HitRate(),
                static_cast<unsigned long long>(cs.entries),
                static_cast<unsigned long long>(cs.evictions));
  }

  if (const int rc = finish_monitor(); rc != 0) return rc;
  if (obs::Enabled()) {
    if (print_metrics) std::printf("\n%s", obs::MetricsToTable().c_str());
    if (!metrics_json_path.empty()) {
      Status st = obs::WriteMetricsJson(metrics_json_path);
      if (!st.ok()) return Fail(st);
      std::printf("\nmetrics written to %s\n", metrics_json_path.c_str());
    }
  }
  return FlushTrace(trace_json_path);
}
