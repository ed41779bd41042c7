// xaidb_perfbench --workload serve_hot|serve_fresh|refit --seed N
//                 --seconds S --trace 0|1 [--work-dir DIR] [--git-sha SHA]
//
// Runs one workload in this process and prints a readable report followed,
// as the last line, by the JSON result: end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1. Exits non-zero when a correctness gate
// fails. perfbench/run.py builds this binary and is the command to use.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "core/eval_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

/// Wall time of a fixed single-thread integer loop, in milliseconds. Host
/// CPU speed drifts by over 10% within minutes on shared machines; this
/// number lets runs made at different times be compared.
double HostSpinMs() {
  const perfbench::Clock::time_point t0 = perfbench::Clock::now();
  volatile uint64_t x = 1;
  for (uint64_t i = 0; i < 50'000'000; ++i)
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return perfbench::Seconds(t0, perfbench::Clock::now()) * 1e3;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: xaidb_perfbench --workload serve_hot|serve_fresh|"
               "refit --seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--git-sha SHA]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opts.seconds > 0.0) || opts.seconds > 600.0)
        return Usage("--seconds takes a number in (0, 600]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      opts.trace = value == "1";
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else if (flag == "--git-sha") {
      opts.git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  std::error_code ec;
  std::filesystem::create_directories(opts.work_dir, ec);
  if (ec) return Usage(("cannot create " + opts.work_dir).c_str());

  // The library's own metrics registry, flight recorder and process-wide
  // coalition cache stay off in every run, whatever the environment says.
  xai::obs::SetEnabled(false);
  xai::obs::SetTraceEnabled(false);
  xai::SetGlobalEvalCacheCapacity(0);

  perfbench::Report report;
  report.Context("workload", opts.workload);
  report.Context("seed", static_cast<double>(opts.seed));
  report.Context("seconds", opts.seconds);
  report.Context("trace", opts.trace ? 1.0 : 0.0);
  report.Context("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.Context("git_sha", opts.git_sha);
  report.Context("host_spin_ms", HostSpinMs());
  if (opts.workload == "serve_hot" || opts.workload == "serve_fresh") {
    perfbench::RunServe(opts, &report);
  } else if (opts.workload == "refit") {
    perfbench::RunRefit(opts, &report);
  } else {
    return Usage(("unknown workload " + opts.workload).c_str());
  }
  return report.Print(opts);
}
