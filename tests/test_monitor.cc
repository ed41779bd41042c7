// Tests for the continuous-monitoring pipeline: Prometheus exposition,
// the sampler's time-series rings, SLO burn-rate alerting, the
// attribution-drift watchdog (alone and fed by a live service's response
// observer), the scrape endpoint, and the snapshot export — plus a
// scrape-while-writing hammer for TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/explanation.h"
#include "data/synthetic.h"
#include "eval/drift.h"
#include "model/gbdt.h"
#include "obs/obs.h"
#include "serve/service.h"

namespace xai {
namespace {

using obs::MetricsRegistry;
using obs::MetricsSampler;
using obs::MonitorOptions;
using obs::MonitorServer;
using obs::SeriesPoint;
using obs::SeriesRing;
using obs::SloObjective;
using obs::SloTracker;
using obs::SloTrackerOptions;

// Runs FIRST in this binary, before anything registers a metric: an
// empty registry must render to a valid exposition carrying only the
// build-identity preamble (build_info + uptime — always present so any
// scrape identifies the binary) and an empty snapshot JSON, not crash
// or emit partial families.
TEST(MonitorEmptyRegistry, ScrapeAndJsonAreValid) {
  obs::SetEnabled(true);
  const std::string prom = obs::MetricsToProm();
  EXPECT_NE(prom.find("xaidb_build_info{"), std::string::npos);
  EXPECT_NE(prom.find("xaidb_uptime_seconds "), std::string::npos);
  // ...and nothing else: no registry-derived families on an empty registry.
  EXPECT_EQ(prom.find("_total"), std::string::npos);
  EXPECT_EQ(prom.find("_bucket"), std::string::npos);
  const std::string json = obs::MetricsToJson();
  EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(json.find("\"snapshot_unix_ms\""), std::string::npos);
  obs::SetEnabled(false);
}

class MonitorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    MetricsRegistry::Global().ResetAll();
  }
  void TearDown() override {
    MetricsRegistry::Global().ResetAll();
    obs::SetEnabled(false);
  }
};

TEST_F(MonitorTest, SeriesRingDropsOldest) {
  SeriesRing ring(4);
  for (uint64_t i = 0; i < 10; ++i)
    ring.Push(SeriesPoint{i, static_cast<double>(i)});
  EXPECT_EQ(ring.size(), 4u);
  const std::vector<SeriesPoint> pts = ring.Points();
  ASSERT_EQ(pts.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(pts[i].unix_ms, 6u + i);  // oldest → newest, 6..9 survive
    EXPECT_DOUBLE_EQ(pts[i].value, 6.0 + static_cast<double>(i));
  }
}

TEST_F(MonitorTest, PromExpositionFormat) {
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("mon.test.requests")->Add(7);
  reg.GetGauge("mon.test.depth")->Set(3.5);
  obs::Histogram* h = reg.GetHistogram("mon.test.lat_us");
  h->Observe(1.0);
  h->Observe(3.0);
  h->Observe(1000.0);

  const std::string prom = obs::MetricsToProm();
  // Names are sanitized (dots → underscores) and prefixed.
  EXPECT_NE(prom.find("# TYPE xaidb_mon_test_requests_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("xaidb_mon_test_requests_total 7"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE xaidb_mon_test_depth gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("xaidb_mon_test_depth 3.5"), std::string::npos);
  // Histogram: cumulative buckets ending in +Inf, plus _sum and _count.
  EXPECT_NE(prom.find("# TYPE xaidb_mon_test_lat_us histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("xaidb_mon_test_lat_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("xaidb_mon_test_lat_us_sum 1004"), std::string::npos);
  EXPECT_NE(prom.find("xaidb_mon_test_lat_us_count 3"), std::string::npos);
  // Cumulative monotonicity: the le="1" bucket holds exactly the 1.0 obs.
  EXPECT_NE(prom.find("xaidb_mon_test_lat_us_bucket{le=\"1\"} 1"),
            std::string::npos);
}

TEST_F(MonitorTest, SamplerCounterRatesAndGaugeSeries) {
  auto& reg = MetricsRegistry::Global();
  obs::Counter* c = reg.GetCounter("mon.samp.events");
  obs::Gauge* g = reg.GetGauge("mon.samp.level");

  MetricsSampler sampler(MonitorOptions{std::chrono::milliseconds(1000), 16});
  g->Set(1.0);
  sampler.TickNow();  // first tick: gauges only, no derived series yet
  EXPECT_TRUE(sampler.Series("mon.samp.events.rate").empty());
  EXPECT_EQ(sampler.Series("mon.samp.level").size(), 1u);

  c->Add(50);
  g->Set(2.0);
  sampler.TickNow();
  const auto rate = sampler.Series("mon.samp.events.rate");
  ASSERT_EQ(rate.size(), 1u);
  EXPECT_GT(rate[0].value, 0.0);  // 50 events over a tiny positive dt
  const auto level = sampler.Series("mon.samp.level");
  ASSERT_EQ(level.size(), 2u);
  EXPECT_DOUBLE_EQ(level[1].value, 2.0);
  EXPECT_EQ(sampler.ticks(), 2u);
}

TEST_F(MonitorTest, SamplerRingWraparound) {
  auto& reg = MetricsRegistry::Global();
  obs::Gauge* g = reg.GetGauge("mon.wrap.g");
  MetricsSampler sampler(MonitorOptions{std::chrono::milliseconds(1000), 4});
  for (int i = 0; i < 10; ++i) {
    g->Set(static_cast<double>(i));
    sampler.TickNow();
  }
  const auto pts = sampler.Series("mon.wrap.g");
  ASSERT_EQ(pts.size(), 4u);  // capacity, not tick count
  EXPECT_DOUBLE_EQ(pts[0].value, 6.0);
  EXPECT_DOUBLE_EQ(pts[3].value, 9.0);
  EXPECT_EQ(sampler.ticks(), 10u);
}

TEST_F(MonitorTest, SamplerHistogramWindowPercentiles) {
  auto& reg = MetricsRegistry::Global();
  obs::Histogram* h = reg.GetHistogram("mon.samp.h");
  MetricsSampler sampler(MonitorOptions{std::chrono::milliseconds(1000), 16});
  sampler.TickNow();
  // Window of observations all equal to 100 → p50 and p99 land in the
  // (64, 128] bucket regardless of interpolation details.
  for (int i = 0; i < 64; ++i) h->Observe(100.0);
  sampler.TickNow();
  const auto p50 = sampler.Series("mon.samp.h.p50");
  const auto p99 = sampler.Series("mon.samp.h.p99");
  ASSERT_EQ(p50.size(), 1u);
  ASSERT_EQ(p99.size(), 1u);
  EXPECT_GT(p50[0].value, 64.0);
  EXPECT_LE(p50[0].value, 128.0);
  EXPECT_GT(p99[0].value, 64.0);
  EXPECT_LE(p99[0].value, 128.0);
  // An empty window (no new observations) adds no percentile point.
  sampler.TickNow();
  EXPECT_EQ(sampler.Series("mon.samp.h.p50").size(), 1u);
}

TEST_F(MonitorTest, SloZeroTrafficNeverAlerts) {
  MetricsSampler sampler(MonitorOptions{std::chrono::milliseconds(1000), 16});
  SloTracker slo({{"lat", "mon.slo.quiet_us", 1000.0, "", "", 0.01}});
  sampler.AddTickObserver(slo.Observer());
  for (int i = 0; i < 20; ++i) sampler.TickNow();
  EXPECT_EQ(slo.alert_count(), 0u);
  EXPECT_DOUBLE_EQ(slo.BurnRate("lat", "5s"), 0.0);
  EXPECT_DOUBLE_EQ(slo.BurnRate("lat", "60s"), 0.0);
}

TEST_F(MonitorTest, SloBurnRateFiresOnBadTraffic) {
  auto& reg = MetricsRegistry::Global();
  obs::Histogram* h = reg.GetHistogram("mon.slo.lat_us");
  MetricsSampler sampler(MonitorOptions{std::chrono::milliseconds(1000), 16});
  SloTracker slo({{"lat", "mon.slo.lat_us", 1000.0, "", "", 0.01}});
  sampler.AddTickObserver(slo.Observer());

  sampler.TickNow();  // baseline reading
  // Every observation blows the 1ms objective: bad fraction 1.0 against a
  // 1% budget → burn rate 100, far over both windows' thresholds.
  for (int i = 0; i < 100; ++i) h->Observe(1e6);
  sampler.TickNow();
  EXPECT_GE(slo.BurnRate("lat", "5s"), 10.0);
  const uint64_t fired = slo.alert_count();
  EXPECT_GE(fired, 1u);
  const std::vector<obs::Alert> alerts = slo.alerts();
  ASSERT_FALSE(alerts.empty());
  EXPECT_EQ(alerts[0].objective, "lat");
  EXPECT_FALSE(alerts[0].severity.empty());
  EXPECT_GT(alerts[0].burn_rate, 1.0);
  // Edge-triggered: staying in violation does not re-fire per tick.
  sampler.TickNow();
  sampler.TickNow();
  EXPECT_EQ(slo.alert_count(), fired);
}

TEST_F(MonitorTest, SloRatioObjective) {
  auto& reg = MetricsRegistry::Global();
  obs::Counter* bad = reg.GetCounter("mon.slo.miss");
  obs::Counter* total = reg.GetCounter("mon.slo.all");
  MetricsSampler sampler(MonitorOptions{std::chrono::milliseconds(1000), 16});
  SloTracker slo({{"miss", "", 0.0, "mon.slo.miss", "mon.slo.all", 0.1}});
  sampler.AddTickObserver(slo.Observer());

  sampler.TickNow();
  total->Add(100);  // zero misses: burn 0
  sampler.TickNow();
  EXPECT_DOUBLE_EQ(slo.BurnRate("miss", "5s"), 0.0);
  EXPECT_EQ(slo.alert_count(), 0u);
  bad->Add(50);
  total->Add(50);  // 50/150 in-window bad → burn well over budget
  sampler.TickNow();
  EXPECT_GT(slo.BurnRate("miss", "5s"), 1.0);
  EXPECT_GE(slo.alert_count(), 1u);
}

FeatureAttribution MakeAttr(std::vector<double> values) {
  FeatureAttribution a;
  a.values = std::move(values);
  return a;
}

TEST_F(MonitorTest, DriftConstantStreamNeverAlerts) {
  DriftWatchdogOptions opts;
  opts.reference_window = 16;
  opts.window = 16;
  opts.min_window = 8;
  opts.check_every = 1;
  AttributionDriftWatchdog wd(opts);
  for (int i = 0; i < 200; ++i) wd.Observe(MakeAttr({1.0, 2.0, 3.0}));
  const DriftReport r = wd.Report();
  EXPECT_TRUE(r.reference_pinned);
  EXPECT_FALSE(r.alerting);
  EXPECT_EQ(wd.alert_count(), 0u);
  EXPECT_NEAR(r.l1, 0.0, 1e-12);
  EXPECT_NEAR(r.psi, 0.0, 1e-12);
}

TEST_F(MonitorTest, DriftDetectsMassShift) {
  DriftWatchdogOptions opts;
  opts.reference_window = 16;
  opts.window = 16;
  opts.min_window = 8;
  opts.check_every = 1;
  AttributionDriftWatchdog wd(opts);
  // Reference: mass concentrated on feature 0.
  for (int i = 0; i < 16; ++i) wd.Observe(MakeAttr({10.0, 1.0, 1.0}));
  EXPECT_TRUE(wd.Report().reference_pinned);
  // Shift: mass moves to feature 2.
  for (int i = 0; i < 32; ++i) wd.Observe(MakeAttr({1.0, 1.0, 10.0}));
  const DriftReport r = wd.Report();
  EXPECT_TRUE(r.alerting);
  EXPECT_GE(wd.alert_count(), 1u);
  EXPECT_GT(r.l1, opts.l1_threshold);
  const std::vector<obs::Alert> alerts = wd.alerts();
  ASSERT_FALSE(alerts.empty());
  EXPECT_EQ(alerts[0].objective, "attribution_drift");
  // Signs don't matter, only mass: a sign-flipped but same-|phi| stream
  // is not additional drift.
  const double l1_before = r.l1;
  for (int i = 0; i < 16; ++i) wd.Observe(MakeAttr({-1.0, 1.0, -10.0}));
  EXPECT_NEAR(wd.Report().l1, l1_before, 1e-9);
}

TEST_F(MonitorTest, DriftZeroMassNeverDividesOrAlerts) {
  DriftWatchdogOptions opts;
  opts.reference_window = 8;
  opts.window = 8;
  opts.min_window = 4;
  opts.check_every = 1;
  AttributionDriftWatchdog wd(opts);
  for (int i = 0; i < 64; ++i) wd.Observe(MakeAttr({0.0, 0.0, 0.0}));
  const DriftReport r = wd.Report();
  // All-zero mass: profile undefined → reference never pins, no alert,
  // no NaN anywhere.
  EXPECT_FALSE(r.reference_pinned);
  EXPECT_FALSE(r.alerting);
  EXPECT_EQ(wd.alert_count(), 0u);
  EXPECT_EQ(r.l1, r.l1);  // not NaN
  EXPECT_EQ(r.psi, r.psi);
}

TEST_F(MonitorTest, DriftArityMismatchIsSkipped) {
  DriftWatchdogOptions opts;
  opts.reference_window = 4;
  opts.min_window = 2;
  opts.check_every = 1;
  AttributionDriftWatchdog wd(opts);
  wd.Observe(MakeAttr({1.0, 2.0}));           // latches arity 2
  wd.Observe(MakeAttr({1.0, 2.0, 3.0}));      // skipped
  wd.Observe(MakeAttr({1.0, 2.0}));
  EXPECT_EQ(wd.Report().observed, 2u);
}

TEST_F(MonitorTest, ServiceObserverFeedsDriftWatchdog) {
  // The watchdog rides the service's response observer. Baseline rows pin
  // the reference; then the whole population collapses to deep-subprime
  // applicants (no income, bottom-of-scale credit score, heavy debt), an
  // upstream covariate shift that moves attribution mass between features
  // without any change to the model.
  Dataset ds = MakeLoanDataset(2000);
  auto model = GradientBoostedTrees::Fit(ds, {.num_rounds = 40});
  ASSERT_TRUE(model.ok());
  constexpr size_t kDistinct = 64;
  std::vector<std::vector<double>> base_rows, shifted_rows;
  for (size_t i = 0; i < kDistinct; ++i) {
    std::vector<double> r = ds.row(i);
    base_rows.push_back(r);
    r[0] = 19.0;               // age at the bottom of the range
    r[1] = 8.0;                // income floor
    r[2] = 400.0;              // credit score far below the generator's
    r[3] = r[3] * 4.0 + 60.0;  // debt balloons
    r[4] = 0.0;                // no employment history
    r[5] = 0.0;                // no education
    shifted_rows.push_back(r);
  }

  DriftWatchdogOptions dopts;
  dopts.reference_window = kDistinct;
  dopts.window = kDistinct;
  dopts.min_window = kDistinct / 2;
  dopts.check_every = 8;
  AttributionDriftWatchdog watchdog(dopts);
  std::atomic<size_t> observed{0};
  ExplanationServiceOptions sopts;
  sopts.response_observer = [&](const ExplanationRequest&,
                                const ExplanationResponse& r) {
    observed.fetch_add(1);
    watchdog.Observe(r.attribution);
  };
  ExplanationService service(ModelHandle::Borrow(*model), ds, sopts);

  size_t served = 0;
  auto run_wave = [&](const std::vector<std::vector<double>>& rows) {
    std::vector<std::future<Result<ExplanationResponse>>> futures;
    for (const std::vector<double>& row : rows) {
      ExplanationRequest req;
      req.instance = row;
      req.kind = ExplainerKind::kTreeShap;
      futures.push_back(service.Submit(std::move(req)));
    }
    for (auto& f : futures) {
      EXPECT_TRUE(f.get().ok());
      ++served;
    }
  };

  run_wave(base_rows);
  run_wave(base_rows);
  EXPECT_TRUE(watchdog.Report().reference_pinned);
  EXPECT_EQ(watchdog.alert_count(), 0u);

  // Detection within a bounded number of shifted responses.
  constexpr size_t kMaxShiftedWaves = 4;
  size_t shifted_waves = 0;
  while (watchdog.alert_count() == 0 && shifted_waves < kMaxShiftedWaves) {
    run_wave(shifted_rows);
    ++shifted_waves;
  }
  const DriftReport report = watchdog.Report();
  EXPECT_GE(watchdog.alert_count(), 1u)
      << "no alert after " << shifted_waves * kDistinct
      << " shifted responses (L1 " << report.l1 << ", PSI " << report.psi
      << ")";
  EXPECT_TRUE(report.alerting);
  service.Shutdown();

  // Exactly one observer call per completed response.
  EXPECT_EQ(observed.load(), served);
  EXPECT_EQ(service.stats().completed, served);
  EXPECT_EQ(report.observed, served);
}

TEST_F(MonitorTest, MonitorServerScrapeRoundtrip) {
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("mon.http.hits")->Add(3);
  MetricsSampler sampler(MonitorOptions{std::chrono::milliseconds(1000), 8});
  sampler.TickNow();

  MonitorServer server(&sampler);
  const Status st = server.Start(0);
  if (!st.ok()) GTEST_SKIP() << "cannot bind a local socket: "
                             << st.ToString();
  ASSERT_GT(server.port(), 0);

  const Result<std::string> prom = obs::HttpGetLocal(server.port(),
                                                     "/metrics");
  ASSERT_TRUE(prom.ok()) << prom.status().ToString();
  EXPECT_NE(prom.value().find("xaidb_mon_http_hits_total 3"),
            std::string::npos);

  const Result<std::string> json = obs::HttpGetLocal(server.port(), "/json");
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json.value().find("\"schema_version\""), std::string::npos);

  const Result<std::string> series = obs::HttpGetLocal(server.port(),
                                                       "/series");
  ASSERT_TRUE(series.ok());
  EXPECT_NE(series.value().find("\"series\""), std::string::npos);

  const Result<std::string> missing = obs::HttpGetLocal(server.port(),
                                                        "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_NE(missing.value().find("not found"), std::string::npos);

  EXPECT_EQ(server.requests_served(), 4u);
  server.Stop();
}

TEST_F(MonitorTest, ExpositionCarriesBuildInfoAndUptime) {
  // Build identity and uptime lead every exposition — even one over an
  // otherwise-quiet registry — so any scrape can tell which binary it hit.
  const std::string prom = obs::MetricsToProm();
  EXPECT_NE(prom.find("xaidb_build_info{version=\""), std::string::npos);
  EXPECT_NE(prom.find("git_sha=\""), std::string::npos);
  EXPECT_NE(prom.find("xaidb_uptime_seconds "), std::string::npos);
  EXPECT_NE(std::string(obs::BuildVersion()).find('.'), std::string::npos);
  EXPECT_GT(obs::UptimeSeconds(), 0.0);
}

TEST_F(MonitorTest, HealthzReportsQueueDepthAndServingVersion) {
  auto& reg = MetricsRegistry::Global();
  reg.GetGauge("serve.queue_depth")->Set(7.0);
  reg.GetGauge("serve.model_version")->Set(3.0);
  MetricsSampler sampler(MonitorOptions{std::chrono::milliseconds(1000), 8});
  MonitorServer server(&sampler);
  const Status st = server.Start(0);
  if (!st.ok()) GTEST_SKIP() << "cannot bind a local socket: "
                             << st.ToString();

  const Result<std::string> health = obs::HttpGetLocal(server.port(),
                                                       "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_NE(health.value().find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(health.value().find("\"queue_depth\": 7"), std::string::npos);
  EXPECT_NE(health.value().find("\"serving_model_version\": 3"),
            std::string::npos);
  EXPECT_NE(health.value().find("\"uptime_seconds\""), std::string::npos);
  server.Stop();
}

TEST_F(MonitorTest, WriteSnapshotJsonSchema) {
  auto& reg = MetricsRegistry::Global();
  obs::Gauge* g = reg.GetGauge("mon.snap.g");
  MetricsSampler sampler(MonitorOptions{std::chrono::milliseconds(1000), 8});
  SloTracker slo({{"lat", "mon.snap.h", 1000.0, "", "", 0.01}});
  sampler.AddTickObserver(slo.Observer());
  g->Set(42.0);
  sampler.TickNow();
  sampler.TickNow();

  const std::string path =
      ::testing::TempDir() + "/xaidb_monitor_snapshot.json";
  ASSERT_TRUE(obs::WriteSnapshotJson(sampler, path, &slo).ok());
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"snapshot_unix_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ticks\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"mon.snap.g\""), std::string::npos);
  EXPECT_NE(json.find("\"alerts\""), std::string::npos);
  std::remove(path.c_str());
}

// TSan target: writers hammer the registry while scrapes, sampler ticks,
// and series reads run concurrently — the monitoring read path must never
// race the hot write path.
TEST_F(MonitorTest, ConcurrentScrapeWhileWriting) {
  auto& reg = MetricsRegistry::Global();
  MetricsSampler sampler(MonitorOptions{std::chrono::milliseconds(1), 32});
  SloTracker slo({{"lat", "mon.hammer.h", 100.0, "", "", 0.01}});
  sampler.AddTickObserver(slo.Observer());
  sampler.Start();

  constexpr int kWriters = 4, kReaders = 4, kIters = 2000;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&reg, w] {
      obs::Counter* c = reg.GetCounter("mon.hammer.c");
      obs::Gauge* g = reg.GetGauge("mon.hammer.g");
      obs::Histogram* h = reg.GetHistogram("mon.hammer.h");
      for (int i = 0; i < kIters; ++i) {
        c->Increment();
        g->Set(static_cast<double>(i));
        h->Observe(static_cast<double>((w + 1) * i % 2048));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&sampler, r] {
      for (int i = 0; i < 50; ++i) {
        if (r % 2 == 0) {
          (void)obs::MetricsToProm();
        } else {
          (void)sampler.SeriesSnapshot();
          (void)sampler.Series("mon.hammer.c.rate");
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  sampler.Stop();

  EXPECT_EQ(reg.GetCounter("mon.hammer.c")->Value(),
            static_cast<uint64_t>(kWriters) * kIters);
  EXPECT_GE(sampler.ticks(), 1u);
}

}  // namespace
}  // namespace xai
