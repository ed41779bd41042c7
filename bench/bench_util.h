#ifndef XAIDB_BENCH_BENCH_UTIL_H_
#define XAIDB_BENCH_BENCH_UTIL_H_

#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace xai::bench {

/// Wall-clock stopwatch in milliseconds — the library's own obs::Stopwatch,
/// so benches and internal instrumentation share one timing primitive.
using Timer = ::xai::obs::Stopwatch;

/// Prints an experiment banner: id, claim, and the series/rows to expect.
inline void Banner(const char* experiment_id, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment_id);
  std::printf("claim: %s\n", claim);
  std::printf("==============================================================\n");
}

/// printf-style row helper so every bench prints aligned CSV-ish tables.
inline void Row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
  std::printf("\n");
}

/// When XAIDB_METRICS is on, prints the library's internal counters and
/// span timings accumulated so far (model evals, samples drawn, coalitions
/// enumerated) so a bench reports observed internal cost next to its
/// wall-clock table. When the flight recorder is on, also prints its event
/// and ring-overflow drop counts (even with metrics off, so a tracing run
/// always reports whether its ring was big enough). No-op — and no output
/// — when both are off, keeping default bench output diff-stable.
inline void ReportMetrics() {
  if (::xai::obs::Enabled())
    std::fputs(::xai::obs::MetricsToTable().c_str(), stdout);
  else if (::xai::obs::TraceEnabled())
    std::printf("trace: %llu events recorded, %llu dropped by ring overflow\n",
                static_cast<unsigned long long>(::xai::obs::TraceEventCount()),
                static_cast<unsigned long long>(
                    ::xai::obs::TraceDroppedCount()));
}

}  // namespace xai::bench

#endif  // XAIDB_BENCH_BENCH_UTIL_H_
