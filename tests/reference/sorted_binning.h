#ifndef XAIDB_TESTS_REFERENCE_SORTED_BINNING_H_
#define XAIDB_TESTS_REFERENCE_SORTED_BINNING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

/// The comparison-sort binning the library's radix-sort BinMapper
/// replaced, kept outside the library as its byte-level oracle: copy the
/// column, std::sort it, collect the distinct values and their counts,
/// then place boundaries by the same exact/quantile rules; code a value
/// with std::lower_bound over the boundaries. Input must be NaN-free (a
/// NaN never compares equal to itself, so the distinct walk never ends).
namespace xai::reference {

/// Boundaries of one column of n raw values; `max_bins` in [2, 65536].
std::vector<double> SortedBinBounds(const double* values, size_t n,
                                    int max_bins);

/// Index of the first boundary >= v (bounds.size() past the last one).
uint32_t LowerBoundCode(const std::vector<double>& bounds, double v);

}  // namespace xai::reference

#endif  // XAIDB_TESTS_REFERENCE_SORTED_BINNING_H_
