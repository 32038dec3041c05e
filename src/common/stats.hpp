// Streaming statistics used throughout the monitor, the DES traces, and the
// benchmark reports: a Welford running mean, exact quantiles over retained
// samples, fixed-bin histograms, and an exponentially weighted moving average
// used by the runtime's execution-time estimators.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace xl {

/// Welford single-pass mean plus min/max and sum.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Retains every sample; exact quantiles. Fine for per-step experiment series
/// (tens of thousands of samples at most).
///
/// Const reads never mutate: quantile() sorts a local copy, so concurrent
/// readers are safe. Writers (add()) need external synchronization against
/// readers.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); }
  std::size_t count() const noexcept { return samples_.size(); }
  double quantile(double q) const;  ///< q in [0,1]; linear interpolation.
  double median() const { return quantile(0.5); }
  double min() const { return quantile(0.0); }
  double max() const { return quantile(1.0); }
  /// Samples in insertion order.
  const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  std::vector<double> samples_;
};

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
/// edge bins. Used for the Fig. 1 memory-distribution report.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  std::size_t total() const noexcept { return total_; }
  std::size_t bins() const noexcept { return counts_.size(); }
  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;

  /// Render as a compact ASCII bar chart (one line per bin).
  std::string to_string(std::size_t max_bar_width = 40) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Exponentially weighted moving average; the middleware policy's default
/// estimator for per-step analysis times (eq. 7 needs a forecast of
/// T_intransit_remaining and T_insitu).
class Ewma {
 public:
  explicit Ewma(double alpha = 0.5);

  void add(double x) noexcept;
  bool empty() const noexcept { return !has_value_; }
  double value() const noexcept { return value_; }
  double alpha() const noexcept { return alpha_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool has_value_ = false;
};

}  // namespace xl
