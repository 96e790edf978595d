#include "stats/summary.h"

#include <algorithm>
#include <cmath>

namespace helios::stats {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double quantile_sorted(std::span<const double> sorted, double q) noexcept {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double quantile(std::span<const double> data, double q) {
  std::vector<double> copy(data.begin(), data.end());
  std::sort(copy.begin(), copy.end());
  return quantile_sorted(copy, q);
}

double median(std::span<const double> data) { return quantile(data, 0.5); }

double mean(std::span<const double> data) noexcept {
  if (data.empty()) return 0.0;
  double s = 0.0;
  for (double x : data) s += x;
  return s / static_cast<double>(data.size());
}

double stddev(std::span<const double> data) noexcept {
  RunningStats rs;
  for (double x : data) rs.add(x);
  return rs.stddev();
}

BoxStats box_stats(std::span<const double> data) {
  BoxStats b;
  if (data.empty()) return b;
  std::vector<double> sorted(data.begin(), data.end());
  std::sort(sorted.begin(), sorted.end());
  b.count = static_cast<std::int64_t>(sorted.size());
  b.q1 = quantile_sorted(sorted, 0.25);
  b.median = quantile_sorted(sorted, 0.5);
  b.q3 = quantile_sorted(sorted, 0.75);
  b.mean = mean(sorted);
  const double lo_fence = b.q1 - 1.5 * b.iqr();
  const double hi_fence = b.q3 + 1.5 * b.iqr();
  b.whisker_lo = sorted.front();
  b.whisker_hi = sorted.back();
  for (double x : sorted) {
    if (x >= lo_fence) {
      b.whisker_lo = x;
      break;
    }
  }
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    if (*it <= hi_fence) {
      b.whisker_hi = *it;
      break;
    }
  }
  return b;
}

}  // namespace helios::stats
