#include "stats/histogram.h"

#include <algorithm>
#include <cassert>

namespace helios::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0.0) {
  assert(bins > 0 && hi > lo);
}

std::size_t Histogram::bin_index(double x) const noexcept {
  if (x <= lo_) return 0;
  if (x >= hi_) return counts_.size() - 1;
  return std::min(static_cast<std::size_t>((x - lo_) / width_),
                  counts_.size() - 1);
}

void Histogram::add(double x, double weight) noexcept {
  counts_[bin_index(x)] += weight;
  total_ += weight;
}

double Histogram::bin_lo(std::size_t bin) const noexcept {
  return lo_ + width_ * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const noexcept {
  return lo_ + width_ * static_cast<double>(bin + 1);
}

double Histogram::fraction(std::size_t bin) const noexcept {
  return total_ > 0.0 ? counts_[bin] / total_ : 0.0;
}

}  // namespace helios::stats
