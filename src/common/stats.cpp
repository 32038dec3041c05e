#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace xl {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
}

double SampleSet::quantile(double q) const {
  XL_REQUIRE(!samples_.empty(), "quantile of empty sample set");
  XL_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  XL_REQUIRE(hi > lo, "histogram range must be non-empty");
  XL_REQUIRE(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double x) noexcept {
  // NaN has no bin: casting it to an integer is UB, and clamping it to an
  // edge bin would silently distort the distribution — drop it instead.
  if (std::isnan(x)) return;
  // Clamp in floating point BEFORE the integer cast: ±inf and values whose
  // bin index exceeds the integer range are UB to cast directly.
  const double idx = (x - lo_) / width_;
  const double last = static_cast<double>(counts_.size() - 1);
  // xl-lint: allow(float-cast): NaN dropped and range clamped above; per-sample hot path.
  ++counts_[static_cast<std::size_t>(std::clamp(idx, 0.0, last))];
  ++total_;
}

double Histogram::bin_lo(std::size_t bin) const {
  XL_REQUIRE(bin < counts_.size(), "bin out of range");
  return lo_ + width_ * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const { return bin_lo(bin) + width_; }

std::string Histogram::to_string(std::size_t max_bar_width) const {
  std::size_t peak = 0;
  for (std::size_t c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::size_t bar =
        peak ? counts_[i] * max_bar_width / peak : 0;
    os << "[" << bin_lo(i) << ", " << bin_hi(i) << ") " << std::string(bar, '#')
       << " " << counts_[i] << "\n";
  }
  return os.str();
}

Ewma::Ewma(double alpha) : alpha_(alpha) {
  XL_REQUIRE(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0,1]");
}

void Ewma::add(double x) noexcept {
  if (!has_value_) {
    value_ = x;
    has_value_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
}

}  // namespace xl
