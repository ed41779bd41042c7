#include "data/binned.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "obs/obs.h"

namespace xai {

namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;
// Key of -0.0. +0.0's key, kSignBit, is the next one up, so a sorted key
// array holds every -0.0 directly before every +0.0.
constexpr uint64_t kNegZeroKey = kSignBit - 1;

constexpr int kDigitBits = 11;
constexpr size_t kRadix = size_t{1} << kDigitBits;
constexpr int kPasses = (64 + kDigitBits - 1) / kDigitBits;

// Features in flight during Build's boundary sweep, each with its own
// KeyScratch. Caps the sweep's scratch at 2 x 16 B per row.
constexpr size_t kSlots = 2;
// Rows per chunk of Build's code sweep; a multiple of kLanes.
constexpr size_t kCodeChunkRows = 4096;
// Values a search runs in lockstep: kLanes independent loads per step
// instead of one dependent chain per value.
constexpr size_t kLanes = 16;

/// Order-preserving map from a non-NaN double to u64: a < b as doubles
/// iff Key(a) < Key(b), except that -0.0 sits one key below +0.0.
uint64_t Key(double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  return bits ^ ((uint64_t{0} - (bits >> 63)) | kSignBit);
}

/// Inverse of Key.
double ValueOf(uint64_t key) {
  return std::bit_cast<double>(key ^ (((key >> 63) - 1) | kSignBit));
}

/// Key with -0.0 folded onto +0.0: equal doubles, equal canonical keys.
uint64_t Canonical(uint64_t key) { return key + (key == kNegZeroKey); }

/// Midpoint between two consecutive distinct raw values — the threshold
/// the exact learner would write for a split between them. Falls back to
/// the left value when the midpoint rounds onto a neighbor (adjacent
/// representable doubles), keeping `lo <= mid < hi` so routing stays
/// consistent with `v <= mid`.
double Midpoint(double lo, double hi) {
  const double mid = 0.5 * (lo + hi);
  if (mid >= hi) return lo;
  return mid < lo ? lo : mid;
}

/// Scratch for binning one column, 16 B per row: its keys, the radix
/// sort's second buffer, and the per-pass digit counts.
struct KeyScratch {
  explicit KeyScratch(size_t n)
      : keys(std::make_unique_for_overwrite<uint64_t[]>(n)),
        buffer(std::make_unique_for_overwrite<uint64_t[]>(n)),
        counts(std::make_unique_for_overwrite<size_t[]>(kPasses * kRadix)) {}

  std::unique_ptr<uint64_t[]> keys;
  std::unique_ptr<uint64_t[]> buffer;
  std::unique_ptr<size_t[]> counts;
};

/// Writes Key(values[i * stride]) for i < n into scratch->keys. Returns
/// false when a value is NaN.
bool LoadKeys(const double* values, size_t stride, size_t n,
              KeyScratch* scratch) {
  uint64_t* keys = scratch->keys.get();
  bool nan = false;
  for (size_t i = 0; i < n; ++i) {
    const double v = values[i * stride];
    nan |= std::isnan(v);
    keys[i] = Key(v);
  }
  return !nan;
}

/// LSD radix sort of scratch->keys[0, n) over kDigitBits-bit digits,
/// ping-ponging with scratch->buffer. Returns whichever holds the result.
const uint64_t* SortKeys(size_t n, KeyScratch* scratch) {
  uint64_t* src = scratch->keys.get();
  uint64_t* dst = scratch->buffer.get();
  size_t* counts = scratch->counts.get();
  std::fill(counts, counts + kPasses * kRadix, size_t{0});
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = src[i];
    for (int p = 0; p < kPasses; ++p)
      ++counts[p * kRadix + ((k >> (p * kDigitBits)) & (kRadix - 1))];
  }
  for (int p = 0; p < kPasses; ++p) {
    const int shift = p * kDigitBits;
    size_t* start = counts + p * kRadix;
    // Every key has the same digit: the pass would copy in order.
    if (start[(src[0] >> shift) & (kRadix - 1)] == n) continue;
    size_t sum = 0;
    for (size_t b = 0; b < kRadix; ++b) {
      const size_t c = start[b];
      start[b] = sum;
      sum += c;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t k = src[i];
      dst[start[(k >> shift) & (kRadix - 1)]++] = k;
    }
    std::swap(src, dst);
  }
  return src;
}

/// The runs of equal values in a sorted key array, in order. A run's
/// value is its first key's: for the zero run that is -0.0 whenever the
/// column holds one (the sign only shows in a bound below +inf, where
/// Midpoint returns the lower value).
class RunCursor {
 public:
  RunCursor(const uint64_t* keys, size_t n) : keys_(keys), n_(n) { Next(); }

  /// One past the current run's last key; n at the last run.
  size_t end() const { return end_; }
  double value() const { return ValueOf(keys_[begin_]); }
  /// Value of the run after the current one; needs end() < n.
  double next_value() const { return ValueOf(keys_[end_]); }

  void Next() {
    begin_ = end_;
    const uint64_t k = Canonical(keys_[begin_]);
    while (++end_ < n_ && Canonical(keys_[end_]) == k) {
    }
  }

 private:
  const uint64_t* keys_;
  size_t n_;
  size_t begin_ = 0;
  size_t end_ = 0;
};

/// Number of distinct values in a sorted key array of n >= 1 keys,
/// counted up to limit + 1.
size_t CountDistinct(const uint64_t* keys, size_t n, size_t limit) {
  size_t count = 1;
  for (RunCursor run(keys, n); run.end() < n && count <= limit; run.Next())
    ++count;
  return count;
}

/// Boundaries of the column whose n NaN-free keys are in scratch->keys.
std::vector<double> BoundsOfKeys(size_t n, int max_bins, KeyScratch* scratch) {
  std::vector<double> bounds;
  if (n == 0) return bounds;
  const uint64_t* keys = SortKeys(n, scratch);
  const size_t num_distinct =
      CountDistinct(keys, n, static_cast<size_t>(max_bins));
  if (num_distinct <= 1) return bounds;  // Constant column: one bin.

  RunCursor run(keys, n);
  if (num_distinct <= static_cast<size_t>(max_bins)) {
    // Exact mode: one bin per distinct value, boundaries at the midpoints
    // the sort-based learner evaluates.
    bounds.reserve(num_distinct - 1);
    for (; run.end() < n; run.Next())
      bounds.push_back(Midpoint(run.value(), run.next_value()));
    return bounds;
  }
  // Quantile mode: close a bin after the distinct value that carries the
  // sample at rank k*n/max_bins, k = 1..max_bins-1. A heavy value can
  // swallow several ranks; duplicates collapse, so num_bins <= max_bins.
  // run.end() is the number of samples up to the current value.
  bounds.reserve(static_cast<size_t>(max_bins) - 1);
  for (int k = 1; k < max_bins; ++k) {
    const size_t rank =
        (static_cast<size_t>(k) * n) / static_cast<size_t>(max_bins);
    while (run.end() <= rank && run.end() < n) run.Next();
    if (run.end() >= n) break;  // Tail fits in the last bin.
    const double b = Midpoint(run.value(), run.next_value());
    if (bounds.empty() || b > bounds.back()) bounds.push_back(b);
  }
  return bounds;
}

/// std::lower_bound's index of v in `search`, a nondecreasing array whose
/// size is a power of two and whose last entry is +inf; v is not NaN.
/// Step s asks whether at least idx + s entries are below v.
uint32_t Search(const double* search, uint32_t size, double v) {
  uint32_t idx = 0;
  for (uint32_t step = size / 2; step > 0; step /= 2)
    idx += search[idx + step - 1] < v ? step : 0;
  return idx;
}

/// Codes kLanes rows of one feature at once with Search's steps: row l's
/// value is values[l * stride].
template <typename Code>
void CodeLanes(const double* search, uint32_t size, const double* values,
               size_t stride, Code* out) {
  double v[kLanes];
  uint32_t idx[kLanes];
  for (size_t l = 0; l < kLanes; ++l) {
    v[l] = values[l * stride];
    idx[l] = 0;
  }
  for (uint32_t step = size / 2; step > 0; step /= 2)
    for (size_t l = 0; l < kLanes; ++l)
      idx[l] += search[idx[l] + step - 1] < v[l] ? step : 0;
  for (size_t l = 0; l < kLanes; ++l) out[l] = static_cast<Code>(idx[l]);
}

/// Codes rows [lo, hi) of one feature, whose value in row i is
/// column[i * stride]: kLanes rows at a time, then the tail one by one.
template <typename Code>
void CodeRows(const std::vector<double>& search, const double* column,
              size_t stride, size_t lo, size_t hi, Code* out) {
  const auto size = static_cast<uint32_t>(search.size());
  size_t i = lo;
  for (; i + kLanes <= hi; i += kLanes)
    CodeLanes(search.data(), size, column + i * stride, stride, out + i);
  for (; i < hi; ++i)
    out[i] = static_cast<Code>(Search(search.data(), size, column[i * stride]));
}

}  // namespace

BinMapper::BinMapper(std::vector<double> bounds)
    : num_bounds_(static_cast<int>(bounds.size())), search_(std::move(bounds)) {
  search_.resize(std::bit_ceil(search_.size() + 1),
                 std::numeric_limits<double>::infinity());
}

BinMapper BinMapper::Build(const double* values, size_t n, int max_bins) {
  KeyScratch scratch(n);
  LoadKeys(values, 1, n, &scratch);
  return BinMapper(BoundsOfKeys(n, max_bins, &scratch));
}

uint32_t BinMapper::CodeOf(double v) const {
  return Search(search_.data(), static_cast<uint32_t>(search_.size()), v);
}

Result<BinnedDataset> BinnedDataset::Build(const Matrix& x, int max_bins) {
  if (max_bins < 2 || max_bins > 65536)
    return Status::InvalidArgument(
        "BinnedDataset: max_bins must be in [2, 65536]");
  if (x.empty())
    return Status::InvalidArgument("BinnedDataset: empty matrix");

  XAI_OBS_SPAN("train.bin_build");
  obs::Stopwatch watch;

  const size_t n = x.rows();
  const size_t d = x.cols();
  const double* data = x.RowPtr(0);
  ThreadPool& pool = GlobalPool();
  BinnedDataset ds;
  ds.rows_ = n;
  ds.max_bins_ = max_bins;
  ds.mappers_.resize(d);
  ds.codes8_.resize(d);
  ds.codes16_.resize(d);
  ds.bin_offsets_.resize(d);

  // Boundary sweep. Slot s bins features s, s + slots, ... on scratch
  // allocated here: memory a worker allocates stays in its own malloc
  // arena, where the fit that follows on this thread cannot reuse it.
  {
    const size_t slots = std::min({kSlots, pool.num_threads(), d});
    std::vector<KeyScratch> scratch;
    scratch.reserve(slots);
    for (size_t s = 0; s < slots; ++s) scratch.emplace_back(n);
    std::vector<char> has_nan(d, 0);
    pool.ParallelFor(0, slots, 1, [&](size_t s) {
      for (size_t f = s; f < d; f += slots) {
        if (!LoadKeys(data + f, d, n, &scratch[s])) {
          has_nan[f] = 1;
          continue;
        }
        ds.mappers_[f] = BinMapper(BoundsOfKeys(n, max_bins, &scratch[s]));
      }
    });
    for (size_t f = 0; f < d; ++f)
      if (has_nan[f])
        return Status::InvalidArgument(
            "BinnedDataset: feature " + std::to_string(f) +
            " holds a NaN value; binning needs NaN-free columns");
  }

  for (size_t f = 0; f < d; ++f) {
    const int bins = ds.mappers_[f].num_bins();
    if (bins <= 256)
      ds.codes8_[f].resize(n);
    else
      ds.codes16_[f].resize(n);
    ds.bin_offsets_[f] = ds.total_bins_;
    ds.total_bins_ += static_cast<size_t>(bins);
  }

  // Code sweep: fixed blocks of rows, every feature per block.
  const size_t chunks = (n + kCodeChunkRows - 1) / kCodeChunkRows;
  pool.ParallelFor(0, chunks, 1, [&](size_t c) {
    const size_t lo = c * kCodeChunkRows;
    const size_t hi = std::min(n, lo + kCodeChunkRows);
    for (size_t f = 0; f < d; ++f) {
      const std::vector<double>& search = ds.mappers_[f].search_;
      if (ds.narrow(f))
        CodeRows(search, data + f, d, lo, hi, ds.codes8_[f].data());
      else
        CodeRows(search, data + f, d, lo, hi, ds.codes16_[f].data());
    }
  });

  XAI_OBS_COUNT("train.bin_builds");
  XAI_OBS_OBSERVE("train.bin_build_us", watch.ElapsedUs());
  return ds;
}

}  // namespace xai
