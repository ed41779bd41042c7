#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Context(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  quoted += JsonEscape(value);
  quoted += '"';
  context_.emplace_back(key, std::move(quoted));
}

void Report::Context(const std::string& key, double value) {
  context_.emplace_back(key, Num(value));
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, const std::string& base) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, unit, base, value});
}

void Report::Ops(const std::string& what, uint64_t attempted,
                 uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%-22s attempted %10llu  succeeded %10llu  failed %llu",
                what.c_str(), static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(attempted - failed),
                static_cast<unsigned long long>(failed));
  ops_.push_back(buf);
}

void Report::Fail(const std::string& why) { failures_.push_back(why); }

int Report::Print(const RunOptions& opts) const {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  std::string ctx = "{";
  for (size_t i = 0; i < context_.size(); ++i)
    ctx += (i ? ", \"" : "\"") + context_[i].first + "\": " +
           context_[i].second;
  std::printf("# context %s}\n", ctx.c_str());
  for (const std::string& line : ops_) std::printf("# ops %s\n", line.c_str());
  for (const std::string& f : failures_) std::printf("# FAILED %s\n", f.c_str());
  std::printf("# %-36s %18s  %-8s %s\n", "metric", "value", "unit", "base");
  for (const Entry& m : metrics_)
    std::printf("# %-36s %18.6f  %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());

  // Failed gates count as failed operations on top of the per-class counts.
  const uint64_t failed = failed_ + failures_.size();
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_ + failures_.size());
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " +
            Num(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double GroupedMedian(std::vector<double> v, double step) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double mid = v[v.size() / 2];
  const auto lo = std::lower_bound(v.begin(), v.end(), mid);
  const auto hi = std::upper_bound(v.begin(), v.end(), mid);
  const double below = static_cast<double>(lo - v.begin());
  const double in_bin = static_cast<double>(hi - lo);
  return mid + (0.5 * static_cast<double>(v.size()) - below) / in_bin * step;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double PeakRssMiB() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string Base(uint64_t num, uint64_t den) {
  return std::to_string(num) + "/" + std::to_string(den);
}

uint64_t SpanLog::Add(const char* name, uint64_t parent, int64_t t0_ns,
                      int64_t t1_ns) {
  const uint64_t id = spans_.size() + 1;
  spans_.push_back({id, parent, name, t0_ns, std::max(t0_ns, t1_ns)});
  return id;
}

std::vector<SpanLog::NameTotals> SpanLog::Totals() const {
  // Children grouped under their parent; self time is the parent's
  // duration minus the union of its children's intervals clipped to it.
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  for (const Span& s : spans_)
    if (s.parent != 0) kids[s.parent].emplace_back(s.t0_ns, s.t1_ns);
  std::map<std::string, NameTotals> by_name;
  for (const Span& s : spans_) {
    int64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.t0_ns);
        hi = std::min(hi, s.t1_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    NameTotals& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_ms += static_cast<double>(s.t1_ns - s.t0_ns) * 1e-6;
    t.self_ms += static_cast<double>(s.t1_ns - s.t0_ns - covered) * 1e-6;
  }
  std::vector<NameTotals> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

bool SpanLog::Write(const std::string& path, size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"span_count\": %zu, \"written\": %zu,\n \"totals\": [",
               spans_.size(), std::min(max_spans, spans_.size()));
  const std::vector<NameTotals> totals = Totals();
  for (size_t i = 0; i < totals.size(); ++i)
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"count\": %llu, \"total_ms\": "
                 "%.6f, \"self_ms\": %.6f}",
                 i ? "," : "", totals[i].name.c_str(),
                 static_cast<unsigned long long>(totals[i].count),
                 totals[i].total_ms, totals[i].self_ms);
  std::fprintf(f, "],\n \"fields\": [\"id\", \"parent\", \"name\", "
                  "\"t0_us\", \"t1_us\"],\n \"spans\": [");
  for (size_t i = 0; i < spans_.size() && i < max_spans; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n  [%llu, %llu, \"%s\", %.3f, %.3f]", i ? "," : "",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<double>(s.t0_ns) * 1e-3,
                 static_cast<double>(s.t1_ns) * 1e-3);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double TimedModel::Predict(const std::vector<double>& x) const {
  const Clock::time_point t0 = Clock::now();
  const double y = inner_.Predict(x);
  Record(t0, Clock::now(), 1);
  return y;
}

std::vector<double> TimedModel::PredictBatch(const xai::Matrix& x) const {
  const Clock::time_point t0 = Clock::now();
  std::vector<double> y = inner_.PredictBatch(x);
  Record(t0, Clock::now(), x.rows());
  return y;
}

std::vector<TimedModel::Call> TimedModel::TakeCalls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(calls_, {});
}

void TimedModel::Record(Clock::time_point t0, Clock::time_point t1,
                        uint64_t rows) const {
  std::lock_guard<std::mutex> lock(mu_);
  calls_.push_back({t0, t1, rows});
}

}  // namespace perfbench
