// Fixed-width histogram.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace helios::stats {

/// Histogram over [lo, hi) with `bins` equal-width buckets; values outside
/// the range are clamped into the first/last bucket.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, double weight = 1.0) noexcept;

  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] double count(std::size_t bin) const noexcept { return counts_[bin]; }
  [[nodiscard]] double total() const noexcept { return total_; }
  [[nodiscard]] double bin_lo(std::size_t bin) const noexcept;
  [[nodiscard]] double bin_hi(std::size_t bin) const noexcept;
  /// Fraction of total weight in bucket `bin` (0 when empty).
  [[nodiscard]] double fraction(std::size_t bin) const noexcept;

  [[nodiscard]] std::size_t bin_index(double x) const noexcept;

 private:
  double lo_;
  double hi_;
  double width_;
  double total_ = 0.0;
  std::vector<double> counts_;
};

}  // namespace helios::stats
