#include "ml/binned_dataset.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/run_workers.h"
#include "obs/metrics.h"

namespace cloudsurv::ml {

namespace {

// Midpoint boundary between adjacent distinct values `lo` < `hi`,
// guarded so that lo <= boundary < hi even when the floating midpoint
// rounds onto hi (adjacent representable values).
double BoundaryBetween(double lo, double hi) {
  const double mid = lo + 0.5 * (hi - lo);
  return mid < hi ? mid : lo;
}

}  // namespace

Result<BinnedDataset> BinnedDataset::Build(
    size_t num_rows, size_t num_features,
    const std::function<double(size_t, size_t)>& value_at, int max_bins,
    int num_threads) {
  if (num_rows == 0 || num_features == 0) {
    return Status::InvalidArgument("cannot bin an empty matrix");
  }
  if (max_bins < 2 || max_bins > kMaxBins) {
    return Status::InvalidArgument("max_bins must be in [2, 256]");
  }
  static obs::Histogram* const build_us =
      obs::Registry::Default().GetHistogram(
          "cloudsurv_ml_binning_build_us",
          "Time to quantile-bin one training matrix into uint8 codes");
  obs::ScopedTimer timer(build_us);
  BinnedDataset binned;
  binned.num_rows_ = num_rows;
  binned.boundaries_.resize(num_features);
  binned.codes_.assign(num_features * num_rows, 0);

  // Features are independent: each one's boundaries and codes depend
  // only on its own column, so workers claim whole features from a
  // shared counter and write disjoint slices of the result. Any thread
  // count yields the same boundaries and codes.
  std::atomic<size_t> next_feature{0};
  std::atomic<bool> non_finite{false};
  const unsigned workers = static_cast<unsigned>(
      std::clamp<int64_t>(num_threads, 1, static_cast<int64_t>(num_features)));
  RunWorkers(workers, [&](unsigned) {
    std::vector<double> sorted(num_rows);
    while (!non_finite.load(std::memory_order_relaxed)) {
      const size_t f = next_feature.fetch_add(1, std::memory_order_relaxed);
      if (f >= num_features) return;
      if (!binned.BinFeature(f, value_at, max_bins, sorted)) {
        non_finite.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  if (non_finite.load()) {
    return Status::InvalidArgument("non-finite feature value");
  }
  return binned;
}

bool BinnedDataset::BinFeature(
    size_t f, const std::function<double(size_t, size_t)>& value_at,
    int max_bins, std::vector<double>& sorted) {
  const size_t num_rows = num_rows_;
  for (size_t i = 0; i < num_rows; ++i) {
    const double v = value_at(i, f);
    if (!std::isfinite(v)) return false;
    sorted[i] = v;
  }
  std::sort(sorted.begin(), sorted.end());

  // Distinct runs of the sorted column: the run starting at `i` ends
  // at run_end(i). A run is represented by its first value.
  const auto run_end = [&sorted, num_rows](size_t i) {
    size_t j = i;
    while (j < num_rows && sorted[j] == sorted[i]) ++j;
    return j;
  };
  size_t num_runs = 0;
  for (size_t i = 0; i < num_rows; i = run_end(i)) ++num_runs;

  std::vector<double>& bounds = boundaries_[f];
  if (num_runs <= static_cast<size_t>(max_bins)) {
    // One bin per distinct value: the histogram search then evaluates
    // exactly the candidate cuts the exact search would.
    bounds.reserve(num_runs - 1);
    for (size_t i = 0, j = run_end(0); j < num_rows; i = j, j = run_end(j)) {
      bounds.push_back(BoundaryBetween(sorted[i], sorted[j]));
    }
  } else {
    // Quantile binning: close a bin whenever the cumulative row count
    // passes the next evenly spaced rank target. Every bin keeps at
    // least one row; at most max_bins bins result.
    bounds.reserve(static_cast<size_t>(max_bins) - 1);
    size_t cumulative = 0;
    size_t emitted = 0;
    for (size_t i = 0, j = run_end(0); j < num_rows; i = j, j = run_end(j)) {
      cumulative += j - i;
      if (emitted + 1 >= static_cast<size_t>(max_bins)) break;
      // Close the bin once it holds its even share of the rows.
      if (cumulative * static_cast<size_t>(max_bins) >=
          num_rows * (emitted + 1)) {
        bounds.push_back(BoundaryBetween(sorted[i], sorted[j]));
        ++emitted;
      }
    }
  }

  // Codes: index of the first boundary >= value (values above the last
  // boundary land in the final bin). The column is read again rather
  // than kept in row order, so a worker holds one column of scratch.
  uint8_t* column = codes_.data() + f * num_rows;
  for (size_t i = 0; i < num_rows; ++i) {
    const size_t c = static_cast<size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), value_at(i, f)) -
        bounds.begin());
    column[i] = static_cast<uint8_t>(c);
  }
  return true;
}

Result<BinnedDataset> BinnedDataset::FromDataset(const Dataset& data,
                                                 int max_bins) {
  return Build(
      data.num_rows(), data.num_features(),
      [&data](size_t row, size_t col) { return data.feature(row, col); },
      max_bins, /*num_threads=*/1);
}

Result<BinnedDataset> BinnedDataset::FromDatasetRows(
    const Dataset& data, const std::vector<size_t>& rows, int max_bins,
    int num_threads) {
  for (size_t r : rows) {
    if (r >= data.num_rows()) {
      return Status::OutOfRange("binned row index out of range");
    }
  }
  return Build(
      rows.size(), data.num_features(),
      [&data, &rows](size_t row, size_t col) {
        return data.feature(rows[row], col);
      },
      max_bins, num_threads);
}

Result<BinnedDataset> BinnedDataset::FromMatrix(
    size_t num_rows, size_t num_features,
    const std::function<double(size_t, size_t)>& value_at, int max_bins) {
  return Build(num_rows, num_features, value_at, max_bins, /*num_threads=*/1);
}

size_t BinnedDataset::memory_bytes() const {
  size_t bytes = codes_.capacity() * sizeof(uint8_t);
  for (const auto& b : boundaries_) bytes += b.capacity() * sizeof(double);
  return bytes;
}

}  // namespace cloudsurv::ml
