#include "reference/sorted_binning.h"

#include <algorithm>

namespace xai::reference {

namespace {

/// Midpoint between two consecutive distinct raw values, falling back to
/// the left value when it rounds onto a neighbor.
double Midpoint(double lo, double hi) {
  const double mid = 0.5 * (lo + hi);
  if (mid >= hi) return lo;
  return mid < lo ? lo : mid;
}

}  // namespace

std::vector<double> SortedBinBounds(const double* values, size_t n,
                                    int max_bins) {
  std::vector<double> bounds;
  if (n == 0) return bounds;

  std::vector<double> sorted(values, values + n);
  std::sort(sorted.begin(), sorted.end());

  // Distinct values with their multiplicities, ascending.
  std::vector<double> distinct;
  std::vector<size_t> count;
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && sorted[j] == sorted[i]) ++j;
    distinct.push_back(sorted[i]);
    count.push_back(j - i);
    i = j;
  }
  const size_t num_distinct = distinct.size();
  if (num_distinct <= 1) return bounds;  // Constant column: one bin.

  if (num_distinct <= static_cast<size_t>(max_bins)) {
    // Exact mode: one bin per distinct value.
    bounds.reserve(num_distinct - 1);
    for (size_t i = 0; i + 1 < num_distinct; ++i)
      bounds.push_back(Midpoint(distinct[i], distinct[i + 1]));
  } else {
    // Quantile mode: close a bin after the distinct value that carries the
    // sample at rank k*n/max_bins, k = 1..max_bins-1.
    bounds.reserve(static_cast<size_t>(max_bins) - 1);
    size_t cum = count[0];  // Samples in distinct[0..j].
    size_t j = 0;           // Current distinct value.
    for (int k = 1; k < max_bins; ++k) {
      const size_t rank =
          (static_cast<size_t>(k) * n) / static_cast<size_t>(max_bins);
      while (cum <= rank && j + 1 < num_distinct) cum += count[++j];
      if (j + 1 >= num_distinct) break;  // Tail fits in the last bin.
      const double b = Midpoint(distinct[j], distinct[j + 1]);
      if (bounds.empty() || b > bounds.back()) bounds.push_back(b);
    }
  }
  return bounds;
}

uint32_t LowerBoundCode(const std::vector<double>& bounds, double v) {
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
  return static_cast<uint32_t>(it - bounds.begin());
}

}  // namespace xai::reference
