#include "stats/ecdf.h"

#include <algorithm>
#include <cmath>

namespace helios::stats {

Ecdf::Ecdf(std::vector<double> sample) : sorted_(std::move(sample)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::operator()(double x) const noexcept {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Ecdf::inverse(double q) const noexcept {
  if (sorted_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted_.size())));
  return sorted_[std::min(idx > 0 ? idx - 1 : 0, sorted_.size() - 1)];
}

std::vector<double> log_space_points(double lo, double hi, int n) {
  std::vector<double> pts;
  if (n <= 0 || lo <= 0.0 || hi <= lo) return pts;
  pts.reserve(static_cast<std::size_t>(n));
  const double llo = std::log(lo);
  const double lhi = std::log(hi);
  for (int i = 0; i < n; ++i) {
    const double f = n == 1 ? 0.0 : static_cast<double>(i) / (n - 1);
    pts.push_back(std::exp(llo + f * (lhi - llo)));
  }
  return pts;
}

}  // namespace helios::stats
