// Shared pieces of the repository benchmark: run options, the report that
// becomes the one-line JSON result, the benchmark-side span log, and the
// forwarding model wrapper that times PredictBatch from outside the library.
//
// Everything here lives in the benchmark. Layer timings are taken around
// calls into the library's public functions; nothing under src/ is
// instrumented for the benchmark, and the library's own metrics registry and
// flight recorder stay off in every run.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "math/matrix.h"
#include "model/gbdt.h"
#include "model/model.h"
#include "model/tree.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  /// Scratch directory inside the checkout (temporary registries, spans).
  std::string work_dir = ".";
};

/// Metrics and operation accounting of one run. Print() writes a readable
/// table (every metric with its unit and base counts) followed, as the last
/// line of stdout, by the JSON object the benchmark contract asks for.
class Report {
 public:
  void Context(const std::string& key, const std::string& value);
  void Context(const std::string& key, double value);
  /// `base` states the counts a ratio or rate was computed from.
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& base = "");
  /// One class of operations: requests, pipeline steps or correctness
  /// checks. A failed check is a failed operation.
  void Ops(const std::string& what, uint64_t attempted, uint64_t failed);
  /// A failed correctness gate, with a message naming it.
  void Fail(const std::string& why);

  bool correct() const { return failures_.empty() && failed_ == 0; }
  /// Returns the process exit code: 0 only when every gate passed.
  int Print(const RunOptions& opts) const;

 private:
  struct Entry {
    std::string name, unit, base;
    double value = 0.0;
  };
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<Entry> metrics_;
  std::vector<std::string> ops_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// q-quantile (0..1) with linear interpolation between order statistics.
double Quantile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);
/// Peak resident set size of this process, in MiB.
double PeakRssMiB();
/// "a/b" base-count label for a ratio.
std::string Base(uint64_t num, uint64_t den);

/// Median of values the library reports in whole multiples of `step`,
/// treating each value as spread evenly over [value, value + step): the
/// grouped-data median, which does not stick to one quantization step.
double GroupedMedian(std::vector<double> v, double step);

/// Times `blocks` blocks of `per_block` calls of `fn` and returns the median
/// over blocks of the mean time of one call, in microseconds. Blocks keep
/// calls far shorter than the clock's resolution measurable.
template <typename Fn>
double MedianCallUs(int blocks, int per_block, Fn&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(blocks));
  for (int b = 0; b < blocks; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < per_block; ++i) fn();
    us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0)
                     .count() /
                 per_block);
  }
  return Quantile(std::move(us), 0.5);
}

/// One span recorded by the benchmark around a call into a layer. Times are
/// nanoseconds since the log's origin; `parent` 0 marks a root.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  int64_t t0_ns = 0;
  int64_t t1_ns = 0;
};

/// In-memory span store, written out once at the end of a traced run.
/// Not thread-safe: callers record from one thread, or merge afterwards.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  uint64_t Add(const char* name, uint64_t parent, int64_t t0_ns,
               int64_t t1_ns);
  uint64_t Add(const char* name, uint64_t parent, Clock::time_point t0,
               Clock::time_point t1) {
    return Add(name, parent, Ns(t0), Ns(t1));
  }
  size_t size() const { return spans_.size(); }

  /// Per span name: total duration and total self time (duration minus the
  /// part of the interval its child spans cover), in milliseconds.
  struct NameTotals {
    std::string name;
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::vector<NameTotals> Totals() const;

  /// Writes the spans (at most `max_spans`, in recording order) and the
  /// per-name totals over all spans as JSON.
  bool Write(const std::string& path, size_t max_spans) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Forwarding Model that records the interval and row count of every
/// Predict / PredictBatch call. Output is the wrapped model's, bit for bit.
/// Serves the traced runs only; untraced runs use the model directly.
class TimedModel : public xai::Model {
 public:
  struct Call {
    Clock::time_point t0, t1;
    uint64_t rows = 0;
  };

  explicit TimedModel(const xai::Model& inner) : inner_(inner) {}

  double Predict(const std::vector<double>& x) const override;
  std::vector<double> PredictBatch(const xai::Matrix& x) const override;
  size_t num_features() const override { return inner_.num_features(); }

  /// Moves out the calls recorded so far.
  std::vector<Call> TakeCalls() const;

 private:
  void Record(Clock::time_point t0, Clock::time_point t1,
              uint64_t rows) const;

  const xai::Model& inner_;
  mutable std::mutex mu_;
  mutable std::vector<Call> calls_;  // guarded by mu_
};

/// Inputs of the standalone layer calls a traced run makes after its
/// measured phase, on the workload's own model and rows.
struct ProbeInputs {
  const xai::GradientBoostedTrees* gbdt = nullptr;  // served or refitted
  const xai::Dataset* train = nullptr;       // rows the workload fits on
  const xai::Dataset* background = nullptr;  // KernelSHAP background
  const xai::Matrix* rows = nullptr;         // rows the workload explains
  xai::TreeConfig tree;                      // tree config of its fits
  /// serve_* time TreeSHAP here; refit reports it from its measured phase.
  bool treeshap = true;
};

/// data.bin_build_s, model.fit_tree_ms, model.flat_compile_ms,
/// core.value_batch_{hit,miss}_us, math.kernel_solve_us,
/// common.parallel_for_us and (when asked) feature.treeshap_us_per_row.
void ProbeLayers(const ProbeInputs& in, Report* report);

/// The serve.*, feature.kernelshap_*, core ratio and model.predict_*
/// metrics of a short closed loop of `requests` KernelSHAP requests over
/// `model`, for the workload (refit) whose measured phase does not serve.
void ProbeServeLayers(const xai::Model& model, const xai::Dataset& background,
                      const xai::Matrix& rows, size_t requests,
                      Report* report);

/// Entry points of the three workloads.
void RunServe(const RunOptions& opts, Report* report);
void RunRefit(const RunOptions& opts, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
