#ifndef XAIDB_DATA_BINNED_H_
#define XAIDB_DATA_BINNED_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/result.h"
#include "math/matrix.h"

namespace xai {

/// Per-feature quantization of a raw feature column into ordered bins (the
/// LightGBM binned-dataset idiom). A mapper stores the strictly increasing
/// upper bin boundaries `bound[0] < bound[1] < ...`; value v maps to the
/// first bin whose boundary is >= v, and the last bin is unbounded above.
///
/// Boundary selection is deterministic and chosen so that the recovered
/// split threshold `BinUpperBound(b)` partitions raw values exactly like
/// the bin codes do:  `v <= BinUpperBound(b)  <=>  CodeOf(v) <= b`.
///
///  - When a feature has at most `max_bins` distinct values, every distinct
///    value gets its own bin and each boundary is the midpoint between two
///    consecutive distinct values — the *same* candidate thresholds the
///    exact sort-per-node learner evaluates (the test oracle in
///    tests/reference/exact_learner.h), which is what makes hist-vs-exact
///    tree parity possible on small data.
///  - Otherwise boundaries are taken at evenly spaced sample ranks
///    (quantiles) over the sorted column, snapped to midpoints between the
///    distinct values that straddle each rank, then deduplicated.
///
/// Constant columns yield a single bin and are never candidates for a
/// split. -0.0 and +0.0 are one distinct value; ±inf are ordinary values.
///
/// How the boundaries are found: each value becomes an order-preserving
/// u64 key (the sign bit of a non-negative double set, every bit of a
/// negative one flipped), the keys are LSD-radix-sorted with 11-bit
/// digits (a pass whose digit is the same for every key is skipped), and
/// walks over the sorted keys count the distinct values and place the
/// boundaries. No sorted, distinct or count copy of the column is made.
///
/// Codes come from a fixed-depth branchless search: the boundaries are
/// padded with +inf to a power of two above their count, and a search of
/// log2(that size) steps returns `std::lower_bound`'s index for every
/// non-NaN value, ±inf included. `CodeOf` runs it on one value;
/// `BinnedDataset::Build` runs it on 16 rows in lockstep.
///
/// NaN contract: the column must be NaN-free. `BinnedDataset::Build`
/// checks it and returns `InvalidArgument` naming the feature; the raw
/// `Build` below does not check, and a NaN there yields unspecified (but
/// finite-time) boundaries.
class BinMapper {
 public:
  BinMapper() = default;

  /// Builds boundaries for one feature from `n` raw values (unsorted,
  /// read-only, NaN-free). `max_bins` must be in [2, 65536].
  static BinMapper Build(const double* values, size_t n, int max_bins);

  /// Number of bins (>= 1). Constant features have exactly one bin.
  int num_bins() const { return num_bounds_ + 1; }

  /// Bin code of a raw value: first bin b with v <= BinUpperBound(b).
  uint32_t CodeOf(double v) const;

  /// Upper boundary of bin b: a real threshold lying strictly between the
  /// raw values of bin b and bin b+1. The last bin's bound is +infinity.
  double BinUpperBound(int b) const {
    return b < num_bounds_ ? search_[static_cast<size_t>(b)]
                           : std::numeric_limits<double>::infinity();
  }

  /// The num_bins() - 1 boundaries, strictly increasing.
  std::span<const double> bounds() const {
    return {search_.data(), static_cast<size_t>(num_bounds_)};
  }

 private:
  friend class BinnedDataset;

  /// Takes the boundaries and pads them for the search.
  explicit BinMapper(std::vector<double> bounds);

  int num_bounds_ = 0;
  // The boundaries, then +inf up to the next power of two above
  // num_bounds_ (one +inf for a constant column).
  std::vector<double> search_{std::numeric_limits<double>::infinity()};
};

/// A quantized, column-major copy of a feature matrix: one code column per
/// feature, `u8` storage when the feature has <= 256 bins and `u16`
/// otherwise (max_bins is capped at 65536). Built once per forest/GBDT fit
/// and shared read-only by every tree the fit grows — the histogram
/// learner never touches the raw doubles again.
///
/// Build runs on GlobalPool() in two sweeps. The boundary sweep keeps at
/// most two features in flight: each of two slots owns 16 B per row of
/// scratch (keys plus the radix buffer), allocated once per Build on the
/// calling thread, and bins features s, s + 2, ... in turn. The code sweep
/// then codes fixed blocks of rows for every feature. Each feature's bins
/// and each row's codes depend only on the input, so the result is
/// byte-identical for any thread count and any schedule.
class BinnedDataset {
 public:
  BinnedDataset() = default;

  /// Quantizes every column of x. `max_bins` in [2, 65536]; values above
  /// 256 switch wide features to u16 codes. A NaN anywhere in x returns
  /// InvalidArgument naming the lowest such feature.
  static Result<BinnedDataset> Build(const Matrix& x, int max_bins = 256);

  size_t rows() const { return rows_; }
  size_t features() const { return mappers_.size(); }
  int max_bins() const { return max_bins_; }
  const BinMapper& mapper(size_t f) const { return mappers_[f]; }
  int num_bins(size_t f) const { return mappers_[f].num_bins(); }
  /// True when feature f's codes are stored as u8 (num_bins <= 256).
  bool narrow(size_t f) const { return codes16_[f].empty(); }

  /// Bin code of row i under feature f (width-dispatching accessor; the
  /// histogram hot loops use Codes8/Codes16 directly instead).
  uint32_t Code(size_t f, size_t i) const {
    return narrow(f) ? codes8_[f][i] : codes16_[f][i];
  }

  /// Raw u8 column of feature f (empty when the feature is wide).
  const uint8_t* Codes8(size_t f) const { return codes8_[f].data(); }
  /// Raw u16 column of feature f (empty when the feature is narrow).
  const uint16_t* Codes16(size_t f) const { return codes16_[f].data(); }

  /// Sum over features of num_bins — the flat histogram size per node.
  size_t TotalBins() const { return total_bins_; }
  /// Offset of feature f's bins inside a flat histogram buffer.
  size_t BinOffset(size_t f) const { return bin_offsets_[f]; }

 private:
  size_t rows_ = 0;
  int max_bins_ = 0;
  std::vector<BinMapper> mappers_;
  std::vector<std::vector<uint8_t>> codes8_;    // [f][row], empty if wide.
  std::vector<std::vector<uint16_t>> codes16_;  // [f][row], empty if narrow.
  std::vector<size_t> bin_offsets_;
  size_t total_bins_ = 0;
};

}  // namespace xai

#endif  // XAIDB_DATA_BINNED_H_
