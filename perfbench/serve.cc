// serve_hot and serve_fresh: a closed loop in which one client thread keeps
// kWindow KernelSHAP requests outstanding against an ExplanationService over
// a GBDT that setup fits, publishes through a temporary registry, reopens
// and loads.
//
//   serve_hot    instances drawn Zipf(1) from 64 hot rows whose coalition
//                values (64 x 254) fit the default cache and are warmed in
//                setup: coalescing, dedup and cache hits do the work.
//   serve_fresh  every instance is an unseen row of a pool far larger than
//                the cache: PredictBatch does the work and the cache only
//                misses and evicts.
//
// A closed loop is used because open-loop latency at partial utilization
// depends on how fast idle threads wake, which this benchmark cannot hold
// steady; the library pool is one worker for the same reason. The loop keeps
// twice max_batch requests outstanding, so one full batch sweeps while the
// next waits full in the queue: with exactly max_batch outstanding, the
// dispatcher drafts whatever the client has resubmitted when it wakes, and
// batch sizes (and the latency tail) followed thread wake-up timing.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "feature/explainer_factory.h"
#include "model/registry.h"
#include "serve/service.h"

namespace perfbench {

namespace {

constexpr size_t kTrainRows = 200'000;  // about 1 s of fitting per setup
constexpr size_t kBackgroundRows = 1'000;
constexpr size_t kHotRows = 64;
constexpr size_t kFreshPool = size_t{1} << 16;
constexpr size_t kFreshWarmRows = 160;  // fills the 2^15-entry cache
constexpr size_t kFreshChecks = 128;     // pool rows 0, 37, 74, ...
constexpr size_t kFreshCheckStride = 37;
constexpr size_t kMaxBatch = 32;
constexpr size_t kWindow = 2 * kMaxBatch;
constexpr int kSetupRepeats = 3;
constexpr double kRampSeconds = 0.5;
constexpr double kRateWindowSeconds = 1.0;
constexpr size_t kMinWindowSamples = 50;  // a window's p90 has 5 beyond it
constexpr size_t kLatencyCap = size_t{1} << 21;  // 30 s at up to 69k req/s
constexpr size_t kBatchCap = size_t{1} << 18;
constexpr size_t kMaxSpansWritten = 40'000;

xai::ExplainerConfig ServeConfig() {
  xai::ExplainerConfig cfg;
  cfg.kernel_shap.max_background = 32;
  return cfg;
}

xai::ExplanationServiceOptions ServiceOptions() {
  xai::ExplanationServiceOptions o;
  o.max_batch = kMaxBatch;
  o.config = ServeConfig();
  return o;
}

xai::GbdtOptions ServeModelOptions() {
  xai::GbdtOptions o;
  o.num_rounds = 100;
  o.tree.max_depth = 4;
  return o;
}

/// Request i's instance: Zipf(1) draws over `n` rows, or rows 0, 1, 2, ...
/// in order (wrapping), from the workload seed alone.
class RequestSequence {
 public:
  RequestSequence(size_t n, bool zipf, uint64_t seed) : n_(n), rng_(seed) {
    if (!zipf) return;
    double total = 0.0;
    for (size_t k = 0; k < n; ++k) total += 1.0 / static_cast<double>(k + 1);
    double acc = 0.0;
    for (size_t k = 0; k < n; ++k) {
      acc += 1.0 / static_cast<double>(k + 1) / total;
      cdf_.push_back(acc);
    }
  }

  uint32_t Next() {
    if (cdf_.empty()) {
      if (next_ == n_) {
        next_ = 0;
        ++wraps_;
      }
      return static_cast<uint32_t>(next_++);
    }
    const double u = rng_.NextDouble();
    const size_t k = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return static_cast<uint32_t>(std::min(k, n_ - 1));
  }
  uint64_t wraps() const { return wraps_; }

 private:
  size_t n_;
  xai::Rng rng_;
  std::vector<double> cdf_;
  size_t next_ = 0;
  uint64_t wraps_ = 0;
};

/// A solo ExplainBatch answer a served response must equal bit for bit.
struct Reference {
  std::vector<double> values;
  double base_value = 0.0;
  double prediction = 0.0;
};

bool SameBits(const Reference& ref, const xai::FeatureAttribution& a) {
  return ref.values.size() == a.values.size() &&
         std::memcmp(ref.values.data(), a.values.data(),
                     a.values.size() * sizeof(double)) == 0 &&
         std::memcmp(&ref.base_value, &a.base_value, sizeof(double)) == 0 &&
         std::memcmp(&ref.prediction, &a.prediction, sizeof(double)) == 0;
}

struct BatchDone {
  Clock::time_point done;
  uint32_t size = 0;
};

struct TracedRequest {
  uint32_t idx = 0;
  uint32_t instance = 0;
  Clock::time_point t0, done;
  xai::ExplanationBreakdown bd;
};

/// One measured request: its latency and when it completed, in seconds
/// after the start of the measured interval.
struct LatencySample {
  float ms = 0.0f;
  float done_s = 0.0f;
};

/// Fixed-capacity sample buffers, touched once before the measured phase so
/// peak RSS does not grow with the number of requests a run completes.
struct SampleBuffers {
  std::vector<LatencySample> latency = std::vector<LatencySample>(kLatencyCap);
  std::vector<BatchDone> batches = std::vector<BatchDone>(kBatchCap);
};

struct LoopSpec {
  double ramp_s = 0.0;
  double measure_s = 0.0;   // time mode when max_requests == 0
  size_t max_requests = 0;  // count mode otherwise
  bool traced = false;
};

/// What one closed loop produced. Latency samples and batch completions
/// live in the caller's SampleBuffers (first n_latency / n_batches slots).
struct LoopOutcome {
  Clock::time_point begin, end;            // measured interval
  Clock::time_point loop_start, loop_end;  // including ramp and drain
  uint64_t submitted = 0, failed = 0;
  uint64_t checked = 0, mismatched = 0;
  size_t n_latency = 0, n_batches = 0;
  uint64_t latency_dropped = 0;
  std::vector<TracedRequest> traced;
  std::vector<double> submit_us;  // traced: time inside Submit, per request
  xai::ExplanationServiceStats before, after;
};

/// State shared by the client thread and the service's completion
/// callbacks, which all run on the single dispatcher thread.
class LoopState {
 public:
  LoopState(const std::vector<const Reference*>& refs, SampleBuffers* buf,
            bool traced)
      : refs_(refs), buf_(buf), traced_(traced) {}

  void OnDone(uint32_t idx, uint32_t inst, Clock::time_point t0,
              const xai::Result<xai::ExplanationResponse>& r) {
    const Clock::time_point now = Clock::now();
    if (!r.ok()) {
      ++failed_;
    } else {
      const xai::ExplanationResponse& resp = r.value();
      if (const Reference* ref = refs_[inst]) {
        ++checked_;
        if (!SameBits(*ref, resp.attribution)) ++mismatched_;
      }
      const xai::ExplanationBreakdown& bd = resp.breakdown;
      // Completions of one sweep arrive back to back on the dispatcher
      // thread, coalesce_batch_size of them: that groups them by batch.
      if (batch_left_ == 0) batch_left_ = std::max<size_t>(1, bd.coalesce_batch_size);
      if (--batch_left_ == 0) {
        if (n_batches_ < buf_->batches.size())
          buf_->batches[n_batches_++] = {now, static_cast<uint32_t>(bd.coalesce_batch_size)};
      }
      if (t0 >= begin && t0 < end) {
        if (n_latency_ < buf_->latency.size())
          buf_->latency[n_latency_++] = {
              std::chrono::duration<float, std::milli>(now - t0).count(),
              std::chrono::duration<float>(now - begin).count()};
        else
          ++latency_dropped_;
      }
      if (traced_) traced_records_.push_back({idx, inst, t0, now, bd});
    }
    // Notify under the lock: once the client can take mu_ after the last
    // completion it destroys this object, so nothing here may touch it
    // after the lock is released.
    std::lock_guard<std::mutex> lock(mu_);
    ++done_;
    cv_.notify_one();
  }

  uint64_t WaitBeyond(uint64_t seen) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_ > seen; });
    return done_;
  }

  /// Moves the dispatcher-side results into `out`; call after the drain.
  void Collect(LoopOutcome* out) {
    std::lock_guard<std::mutex> lock(mu_);
    out->failed = failed_;
    out->checked = checked_;
    out->mismatched = mismatched_;
    out->n_latency = n_latency_;
    out->n_batches = n_batches_;
    out->latency_dropped = latency_dropped_;
    out->traced = std::move(traced_records_);
  }

  Clock::time_point begin, end;

 private:
  const std::vector<const Reference*>& refs_;
  SampleBuffers* buf_;
  const bool traced_;
  // Dispatcher thread only (read by the client after the drain, under mu_).
  size_t batch_left_ = 0, n_batches_ = 0, n_latency_ = 0;
  uint64_t failed_ = 0, checked_ = 0, mismatched_ = 0, latency_dropped_ = 0;
  std::vector<TracedRequest> traced_records_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t done_ = 0;  // guarded by mu_
};

/// One client thread keeping kWindow requests in flight until the measured
/// interval ends (or max_requests were sent), then draining.
LoopOutcome RunLoop(xai::ExplanationService& svc, const xai::Matrix& instances,
                    RequestSequence& seq,
                    const std::vector<const Reference*>& refs,
                    const LoopSpec& spec, SampleBuffers* buf) {
  LoopOutcome out;
  LoopState st(refs, buf, spec.traced);
  out.before = svc.stats();
  out.loop_start = Clock::now();
  st.begin = out.loop_start +
             std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(spec.ramp_s));
  st.end = spec.max_requests != 0
               ? Clock::time_point::max()
               : st.begin + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(spec.measure_s));
  LoopState* state = &st;
  uint64_t in_flight = 0;
  auto submit_one = [&] {
    const uint32_t idx = static_cast<uint32_t>(out.submitted++);
    const uint32_t inst = seq.Next();
    xai::ExplanationRequest req;
    req.instance = instances.Row(inst);
    const Clock::time_point t0 = Clock::now();
    svc.Submit(std::move(req),
               [state, idx, inst, t0](
                   const xai::Result<xai::ExplanationResponse>& r) {
                 state->OnDone(idx, inst, t0, r);
               });
    if (spec.traced)
      out.submit_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
    ++in_flight;
  };
  auto done_sending = [&] {
    return spec.max_requests != 0 ? out.submitted >= spec.max_requests
                                  : Clock::now() >= st.end;
  };

  for (size_t i = 0; i < kWindow && !done_sending(); ++i) submit_one();
  uint64_t seen = 0;
  while (in_flight > 0) {
    const uint64_t done = st.WaitBeyond(seen);
    in_flight -= done - seen;
    for (uint64_t k = seen; k < done && !done_sending(); ++k) submit_one();
    seen = done;
  }
  out.loop_end = Clock::now();
  out.after = svc.stats();
  st.Collect(&out);
  out.begin = st.begin;
  out.end = spec.max_requests != 0 ? out.loop_end : st.end;
  return out;
}

/// Completions per second over consecutive batch-aligned windows of about
/// kRateWindowSeconds inside [begin, end]: each window runs from one batch's
/// completion to a later one's and counts the requests in between, so a
/// window never splits a batch.
std::vector<double> WindowRates(const LoopOutcome& o, const SampleBuffers& buf) {
  std::vector<double> rates;
  bool open = false;
  Clock::time_point start;
  uint64_t count = 0;
  for (size_t i = 0; i < o.n_batches; ++i) {
    const BatchDone& b = buf.batches[i];
    if (b.done < o.begin || b.done > o.end) continue;
    if (!open) {
      open = true;
      start = b.done;
      count = 0;
      continue;
    }
    count += b.size;
    const double span = Seconds(start, b.done);
    if (span >= kRateWindowSeconds) {
      rates.push_back(static_cast<double>(count) / span);
      start = b.done;
      count = 0;
    }
  }
  return rates;
}

/// The same batch-aligned rate over the whole measured interval: requests
/// in the batches after the first one completing inside [begin, end],
/// divided by the time from that first completion to the last.
double IntervalRate(const LoopOutcome& o, const SampleBuffers& buf) {
  bool open = false;
  Clock::time_point first, last;
  uint64_t count = 0;
  for (size_t i = 0; i < o.n_batches; ++i) {
    const BatchDone& b = buf.batches[i];
    if (b.done < o.begin || b.done > o.end) continue;
    if (open) count += b.size;
    if (!open) first = b.done;
    open = true;
    last = b.done;
  }
  return count == 0 ? 0.0 : static_cast<double>(count) / Seconds(first, last);
}

std::vector<double> Latencies(const LoopOutcome& o, const SampleBuffers& buf) {
  std::vector<double> v(o.n_latency);
  for (size_t i = 0; i < o.n_latency; ++i) v[i] = buf.latency[i].ms;
  return v;
}

/// The q-quantile of latency within each kRateWindowSeconds window of
/// completion time, then the median over windows: a host stall raises the
/// tail of the window it falls in, not of the run. Returns the window count
/// through `windows`.
double WindowedQuantile(const LoopOutcome& o, const SampleBuffers& buf,
                        double q, size_t* windows) {
  std::vector<std::vector<double>> by_window;
  for (size_t i = 0; i < o.n_latency; ++i) {
    const size_t w = static_cast<size_t>(buf.latency[i].done_s / kRateWindowSeconds);
    if (w >= by_window.size()) by_window.resize(w + 1);
    by_window[w].push_back(buf.latency[i].ms);
  }
  std::vector<double> per_window;
  for (std::vector<double>& v : by_window)
    if (v.size() >= kMinWindowSamples) per_window.push_back(Quantile(std::move(v), q));
  *windows = per_window.size();
  return Quantile(per_window, 0.5);
}

/// The per-layer serve, feature, core and model metrics of traced loops.
/// `calls` are the TimedModel calls made while they ran.
void ReportServeLayers(const std::vector<LoopOutcome>& loops,
                       const std::vector<TimedModel::Call>& calls,
                       Report* report) {
  std::vector<double> submit_us, queue_ms, sweep_ms, dispatch_ms, batch_size;
  double sweep_total_ms = 0.0, wall_s = 0.0;
  uint64_t unique_rows = 0, sweeps = 0;
  uint64_t completed = 0, duplicates = 0, hits = 0, misses = 0, evictions = 0;
  for (const LoopOutcome& o : loops) {
    submit_us.insert(submit_us.end(), o.submit_us.begin(), o.submit_us.end());
    wall_s += Seconds(o.loop_start, o.loop_end);
    completed += o.after.completed - o.before.completed;
    duplicates += o.after.coalesced_duplicates - o.before.coalesced_duplicates;
    hits += o.after.cache_hits - o.before.cache_hits;
    misses += o.after.cache_misses - o.before.cache_misses;
    evictions += o.after.cache_evictions - o.before.cache_evictions;
    size_t left = 0;
    std::set<uint32_t> rows;
    for (const TracedRequest& t : o.traced) {
      const xai::ExplanationBreakdown& bd = t.bd;
      queue_ms.push_back(bd.queue_ms);
      sweep_ms.push_back(bd.sweep_ms);
      dispatch_ms.push_back(bd.total_ms - bd.queue_ms - bd.sweep_ms);
      batch_size.push_back(static_cast<double>(bd.coalesce_batch_size));
      if (left == 0) {
        left = std::max<size_t>(1, bd.coalesce_batch_size);
        rows.clear();
        sweep_total_ms += bd.sweep_ms;
        ++sweeps;
      }
      rows.insert(t.instance);
      if (--left == 0) unique_rows += rows.size();
    }
  }
  // Busy time is the union of call intervals: with a pool of more than one
  // worker, PredictBatch calls overlap.
  std::vector<TimedModel::Call> sorted = calls;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.t0 < b.t0; });
  double busy_s = 0.0;
  uint64_t model_rows = 0;
  Clock::time_point covered_to{};
  for (const TimedModel::Call& c : sorted) {
    model_rows += c.rows;
    const Clock::time_point from = std::max(c.t0, covered_to);
    if (c.t1 > from) busy_s += Seconds(from, c.t1);
    covered_to = std::max(covered_to, c.t1);
  }
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const std::string req_base = std::to_string(queue_ms.size()) + " requests";
  // Submit takes a few hundred clock nanoseconds, so many calls tie: the
  // grouped median keeps the value from sticking to one whole nanosecond.
  report->Metric("serve.submit_us_p50", GroupedMedian(submit_us, 1e-3), "us",
                 std::to_string(submit_us.size()) + " Submit calls");
  // queue_ms is whole microseconds (the breakdown truncates Submit ->
  // drafted to microseconds).
  report->Metric("serve.queue_ms_p50", GroupedMedian(queue_ms, 1e-3), "ms",
                 req_base);
  report->Metric("serve.sweep_ms_p50", Quantile(sweep_ms, 0.5), "ms", req_base);
  report->Metric("serve.dispatch_ms_p50", Quantile(dispatch_ms, 0.5), "ms",
                 req_base);
  report->Metric("serve.batch_size_mean", Mean(batch_size), "count",
                 req_base + " in " + std::to_string(sweeps) + " sweeps");
  report->Metric("serve.dedup_ratio", ratio(duplicates, completed), "ratio",
                 Base(duplicates, completed) + " duplicates/completed");
  const double sweep_us = sweep_total_ms * 1e3;
  report->Metric("feature.kernelshap_us_per_row",
                 ratio(sweep_us, static_cast<double>(unique_rows)), "us",
                 std::to_string(unique_rows) + " unique rows in " +
                     std::to_string(sweeps) + " sweeps");
  report->Metric("feature.kernelshap_self_us_per_row",
                 ratio(sweep_us - busy_s * 1e6, static_cast<double>(unique_rows)),
                 "us", "sweep minus model busy time");
  report->Metric("core.cache_hit_ratio", ratio(hits, hits + misses), "ratio",
                 Base(hits, hits + misses) + " hits/lookups");
  report->Metric("core.evictions_per_request", ratio(evictions, completed),
                 "count", Base(evictions, completed) + " evictions/completed");
  report->Metric("model.predict_rows_per_s", ratio(model_rows, busy_s), "rows/s",
                 std::to_string(model_rows) + " rows in " +
                     std::to_string(calls.size()) + " calls");
  report->Metric("model.predict_busy_share", ratio(busy_s, wall_s), "ratio",
                 "PredictBatch busy s / wall s of the traced loops");
  report->Metric("model.rows_per_request", ratio(model_rows, completed),
                 "count", Base(model_rows, completed) + " rows/completed");
}

/// Spans of traced loops: each request with its Submit call and queue
/// wait, each batch's sweep under the request that led it, and each
/// PredictBatch under the sweep it ran in. Queue and sweep intervals are
/// rebuilt from the request's ExplanationBreakdown.
void AddServeSpans(const std::vector<LoopOutcome>& loops,
                   std::vector<TimedModel::Call> calls, SpanLog* log) {
  struct Sweep {
    int64_t t0, t1;
    uint64_t id;
  };
  std::vector<Sweep> sweeps;
  for (const LoopOutcome& o : loops) {
    size_t left = 0;
    for (const TracedRequest& t : o.traced) {
      const int64_t t0 = log->Ns(t.t0);
      const uint64_t req = log->Add("serve.request", 0, t0, log->Ns(t.done));
      if (t.idx < o.submit_us.size())
        log->Add("serve.submit", req, t0,
                 t0 + static_cast<int64_t>(o.submit_us[t.idx] * 1e3));
      const int64_t q1 = t0 + static_cast<int64_t>(t.bd.queue_ms * 1e6);
      log->Add("serve.queue", req, t0, q1);
      if (left == 0) {
        left = std::max<size_t>(1, t.bd.coalesce_batch_size);
        const int64_t s1 = q1 + static_cast<int64_t>(t.bd.sweep_ms * 1e6);
        sweeps.push_back({q1, s1, log->Add("serve.sweep", req, q1, s1)});
      }
      --left;
    }
  }
  std::sort(calls.begin(), calls.end(),
            [](const auto& a, const auto& b) { return a.t0 < b.t0; });
  size_t s = 0;
  for (const TimedModel::Call& c : calls) {
    const int64_t t0 = log->Ns(c.t0);
    while (s < sweeps.size() && sweeps[s].t1 < t0) ++s;
    const uint64_t parent =
        s < sweeps.size() && sweeps[s].t0 <= t0 ? sweeps[s].id : 0;
    log->Add(c.rows == 1 ? "model.predict" : "model.predict_batch", parent, t0,
             log->Ns(c.t1));
  }
}

/// Everything one setup builds. Destroying it stops the service and
/// removes the temporary registry.
struct ServeStack {
  ServeStack() = default;
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
  ~ServeStack() {
    service.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }

  xai::Dataset train, background;
  xai::Matrix instances;  // hot rows, or the fresh pool
  std::string dir;
  xai::ModelHandle handle;  // loaded from the reopened registry
  std::unique_ptr<xai::ExplanationService> service;
  double setup_s = 0.0, refit_s = 0.0, publish_ms = 0.0;
};

/// Submits `rows` and waits for every answer; returns the failures.
size_t WarmService(xai::ExplanationService& svc, const xai::Matrix& rows,
                   size_t begin, size_t end) {
  std::vector<std::future<xai::Result<xai::ExplanationResponse>>> futs;
  for (size_t r = begin; r < end; ++r) {
    xai::ExplanationRequest req;
    req.instance = rows.Row(r);
    futs.push_back(svc.Submit(std::move(req)));
  }
  size_t failed = 0;
  for (auto& f : futs) failed += f.get().ok() ? 0 : 1;
  return failed;
}

/// Warm rows: all hot rows, or the tail of the fresh pool, which the
/// measured sequence reaches only after wrapping.
std::pair<size_t, size_t> WarmRange(bool hot) {
  return hot ? std::make_pair(size_t{0}, kHotRows)
             : std::make_pair(kFreshPool - kFreshWarmRows, kFreshPool);
}

/// One full setup: inputs from the seed, fit, publish, reopen, load, build
/// the service, warm its cache.
std::unique_ptr<ServeStack> BuildStack(bool hot, uint64_t seed,
                                       const std::string& dir,
                                       Report* report) {
  auto st = std::make_unique<ServeStack>();
  const Clock::time_point t0 = Clock::now();
  st->train = xai::MakeLoanDataset(kTrainRows, {.seed = xai::ChunkSeed(seed, 0)});
  std::vector<size_t> bg(kBackgroundRows);
  for (size_t i = 0; i < bg.size(); ++i) bg[i] = i;
  st->background = st->train.Select(bg);
  xai::Dataset instances = xai::MakeLoanDataset(
      hot ? kHotRows : kFreshPool, {.seed = xai::ChunkSeed(seed, 1)});
  st->instances = std::move(instances.mutable_x());

  const Clock::time_point f0 = Clock::now();
  auto fit = xai::GradientBoostedTrees::Fit(st->train, ServeModelOptions());
  if (!fit.ok()) {
    report->Fail("serve fit: " + fit.status().message());
    return nullptr;
  }
  const Clock::time_point f1 = Clock::now();
  st->dir = dir;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  auto reg = xai::ModelRegistry::OpenOrCreate(dir);
  if (!reg.ok()) {
    report->Fail("registry create: " + reg.status().message());
    return nullptr;
  }
  auto art = reg->Add(*fit, "loan");
  auto reopened =
      art.ok() ? xai::ModelRegistry::Open(dir)
               : xai::Result<xai::ModelRegistry>(art.status());
  auto handle = reopened.ok() ? reopened->Get("loan", art->version)
                              : xai::Result<xai::ModelHandle>(reopened.status());
  if (!handle.ok()) {
    report->Fail("publish: " + handle.status().message());
    return nullptr;
  }
  const Clock::time_point f2 = Clock::now();
  st->handle = *handle;
  st->service = std::make_unique<xai::ExplanationService>(
      st->handle, st->background, ServiceOptions());
  const auto [w0, w1] = WarmRange(hot);
  if (WarmService(*st->service, st->instances, w0, w1) != 0)
    report->Fail("warm-up request failed");
  const Clock::time_point t1 = Clock::now();
  st->setup_s = Seconds(t0, t1);
  st->refit_s = Seconds(f0, f2);
  st->publish_ms = Seconds(f1, f2) * 1e3;
  return st;
}

/// Solo ExplainBatch answers for the rows the gates check: every hot row,
/// or a fixed sample of the fresh pool. Built outside the measured phase.
std::vector<Reference> BuildReferences(const ServeStack& st, bool hot,
                                       std::vector<const Reference*>* by_row,
                                       Report* report) {
  std::vector<size_t> rows;
  if (hot) {
    for (size_t r = 0; r < kHotRows; ++r) rows.push_back(r);
  } else {
    for (size_t k = 0; k < kFreshChecks; ++k) rows.push_back(k * kFreshCheckStride);
  }
  std::vector<Reference> refs(rows.size());
  by_row->assign(st.instances.rows(), nullptr);
  auto ex = xai::MakeExplainer(xai::ExplainerKind::kKernelShap, st.handle,
                               st.background, ServeConfig());
  if (!ex.ok()) {
    report->Fail("reference explainer: " + ex.status().message());
    return refs;
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    xai::Matrix one(1, st.instances.cols());
    one.SetRow(0, st.instances.Row(rows[i]));
    auto res = (*ex)->ExplainBatch(one);
    if (!res.ok() || res->size() != 1) {
      report->Fail("reference ExplainBatch failed");
      continue;
    }
    refs[i] = {(*res)[0].values, (*res)[0].base_value, (*res)[0].prediction};
    (*by_row)[rows[i]] = &refs[i];
  }
  return refs;
}

void ReportLoopOps(const std::vector<const LoopOutcome*>& loops,
                   Report* report) {
  uint64_t sent = 0, failed = 0, checked = 0, mismatched = 0;
  for (const LoopOutcome* o : loops) {
    sent += o->submitted;
    failed += o->failed;
    checked += o->checked;
    mismatched += o->mismatched;
  }
  report->Ops("requests", sent, failed);
  report->Ops("bit-identity checks", checked, mismatched);
  if (checked == 0) report->Fail("no served response was checked");
}

}  // namespace

void RunServe(const RunOptions& opts, Report* report) {
  const bool hot = opts.workload == "serve_hot";
  xai::SetGlobalThreads(1);
  report->Context("pool_workers", 1.0);
  report->Context("window", static_cast<double>(kWindow));
  report->Context("max_batch", static_cast<double>(kMaxBatch));
  report->Context("train_rows", static_cast<double>(kTrainRows));
  report->Context("instances", static_cast<double>(hot ? kHotRows : kFreshPool));

  const std::string dir = opts.work_dir + "/registry-" + opts.workload;
  std::vector<double> setup_s, refit_s, publish_ms;
  std::unique_ptr<ServeStack> st;
  for (int k = 0; k < kSetupRepeats; ++k) {
    st.reset();  // the previous setup is gone before the next one starts
    st = BuildStack(hot, opts.seed, dir, report);
    if (!st) return;
    setup_s.push_back(st->setup_s);
    refit_s.push_back(st->refit_s);
    publish_ms.push_back(st->publish_ms);
  }
  std::vector<const Reference*> ref_by_row;
  const std::vector<Reference> refs = BuildReferences(*st, hot, &ref_by_row, report);
  SampleBuffers buf;
  RequestSequence seq(hot ? kHotRows : kFreshPool - kFreshWarmRows, hot,
                      xai::ChunkSeed(opts.seed, 2));

  if (!opts.trace) {
    const LoopOutcome o =
        RunLoop(*st->service, st->instances, seq, ref_by_row,
                {.ramp_s = kRampSeconds, .measure_s = opts.seconds}, &buf);
    ReportLoopOps({&o}, report);
    const std::vector<double> lat = Latencies(o, buf);
    const std::vector<double> rates = WindowRates(o, buf);
    report->Metric("setup_s", Quantile(setup_s, 0.5), "s",
                   "median of " + std::to_string(kSetupRepeats) + " setups");
    report->Metric("throughput_rps", Quantile(rates, 0.5), "req/s",
                   "median of " + std::to_string(rates.size()) + " windows");
    report->Metric("latency_p50_ms", Quantile(lat, 0.5), "ms",
                   std::to_string(lat.size()) + " requests");
    size_t windows = 0;
    const double p90 = WindowedQuantile(o, buf, 0.9, &windows);
    report->Metric("latency_p90_ms", p90, "ms",
                   "median over " + std::to_string(windows) +
                       " 1 s windows of the window's p90");
    report->Context("latency_p90_all_ms", Quantile(lat, 0.9));
    report->Metric("refit_s", Quantile(refit_s, 0.5), "s",
                   "served model: fit, Add, Open, Get; median of " +
                       std::to_string(kSetupRepeats));
    report->Metric("explain_rows_per_s", IntervalRate(o, buf), "rows/s",
                   "one row per request, over the whole measured interval");
    report->Metric("peak_rss_mib", PeakRssMiB(), "MiB");
    const double ln = static_cast<double>(lat.size());
    report->Context("latency_p99_ms", Quantile(lat, 0.99));
    report->Context("latency_p99_samples_beyond", std::floor(ln * 0.01));
    report->Context("latency_p999_ms", Quantile(lat, 0.999));
    report->Context("latency_p999_samples_beyond", std::floor(ln * 0.001));
    report->Context("latency_samples_dropped", static_cast<double>(o.latency_dropped));
    const auto d = [&](uint64_t xai::ExplanationServiceStats::*f) {
      return static_cast<double>(o.after.*f - o.before.*f);
    };
    report->Context("completed", d(&xai::ExplanationServiceStats::completed));
    report->Context("duplicates", d(&xai::ExplanationServiceStats::coalesced_duplicates));
    report->Context("batches", d(&xai::ExplanationServiceStats::batches));
    report->Context("cache_hits", d(&xai::ExplanationServiceStats::cache_hits));
    report->Context("cache_misses", d(&xai::ExplanationServiceStats::cache_misses));
    report->Context("cache_evictions", d(&xai::ExplanationServiceStats::cache_evictions));
    report->Context("pool_wraps", static_cast<double>(seq.wraps()));
    return;
  }

  // Traced run: the plain service and one over a TimedModel wrapper of the
  // same loaded model alternate in quarter phases, so tracing overhead is
  // measured under the same host conditions.
  TimedModel timed(st->handle.model());
  xai::ExplanationService traced_svc(
      xai::ModelHandle::Borrow(timed, "loan-traced", st->handle.version()),
      st->background, ServiceOptions());
  const auto [w0, w1] = WarmRange(hot);
  if (WarmService(traced_svc, st->instances, w0, w1) != 0)
    report->Fail("traced warm-up request failed");
  timed.TakeCalls();
  std::vector<LoopOutcome> plain_loops, traced_loops;
  std::vector<double> plain_rates, traced_rates;  // one per quarter phase
  for (int phase = 0; phase < 4; ++phase) {
    const bool is_traced = phase % 2 == 1;
    LoopOutcome o = RunLoop(is_traced ? traced_svc : *st->service,
                            st->instances, seq, ref_by_row,
                            {.ramp_s = kRampSeconds,
                             .measure_s = opts.seconds / 4.0,
                             .traced = is_traced},
                            &buf);
    (is_traced ? traced_rates : plain_rates).push_back(IntervalRate(o, buf));
    (is_traced ? traced_loops : plain_loops).push_back(std::move(o));
  }
  std::vector<const LoopOutcome*> all;
  for (const LoopOutcome& o : plain_loops) all.push_back(&o);
  for (const LoopOutcome& o : traced_loops) all.push_back(&o);
  ReportLoopOps(all, report);
  const std::vector<TimedModel::Call> calls = timed.TakeCalls();
  ReportServeLayers(traced_loops, calls, report);
  report->Metric("model.publish_ms", Quantile(publish_ms, 0.5), "ms",
                 "Add + Open + Get, median of " + std::to_string(kSetupRepeats));
  const double plain = Mean(plain_rates);
  const double traced = Mean(traced_rates);
  report->Metric("bench.trace_overhead_pct",
                 plain > 0.0 ? 100.0 * (plain - traced) / plain : 0.0, "%",
                 "throughput_rps untraced " + std::to_string(plain) +
                     " vs traced " + std::to_string(traced));

  ProbeInputs in;
  in.gbdt = dynamic_cast<const xai::GradientBoostedTrees*>(&st->handle.model());
  in.train = &st->train;
  in.background = &st->background;
  xai::Matrix probe_rows = st->instances;
  if (!hot) {
    std::vector<size_t> idx(1024);
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    probe_rows = st->instances.SelectRows(idx);
  }
  in.rows = &probe_rows;
  in.tree = ServeModelOptions().tree;
  if (in.gbdt == nullptr) {
    report->Fail("served model is not a GBDT");
    return;
  }
  ProbeLayers(in, report);

  SpanLog log(plain_loops.front().loop_start);
  AddServeSpans(traced_loops, calls, &log);
  const std::string path = opts.work_dir + "/spans-" + opts.workload + ".json";
  if (!log.Write(path, kMaxSpansWritten)) report->Fail("cannot write " + path);
  report->Context("spans_file", path);
  report->Context("spans", static_cast<double>(log.size()));
}

/// Serve-layer metrics of a short count-mode closed loop over `model`, for
/// workloads whose measured phase does not serve (refit): every per-layer
/// name is then measured on every workload.
void ProbeServeLayers(const xai::Model& model, const xai::Dataset& background,
                      const xai::Matrix& rows, size_t requests,
                      Report* report) {
  TimedModel timed(model);
  xai::ExplanationService svc(xai::ModelHandle::Borrow(timed, "probe", 1),
                              background, ServiceOptions());
  RequestSequence seq(rows.rows(), false, 0);
  const std::vector<const Reference*> no_refs(rows.rows(), nullptr);
  SampleBuffers buf;
  std::vector<LoopOutcome> loops;
  loops.push_back(RunLoop(svc, rows, seq, no_refs,
                          {.max_requests = requests, .traced = true}, &buf));
  report->Ops("serve probe requests", loops[0].submitted, loops[0].failed);
  ReportServeLayers(loops, timed.TakeCalls(), report);
}

}  // namespace perfbench
