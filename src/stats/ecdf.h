// Empirical cumulative distribution functions.
//
// The paper's figures are almost all CDFs over log-scaled x axes (job
// duration, GPU time, per-user shares). Ecdf stores the sorted sample once
// and answers F(x) queries; log_space_points() produces the x grid used by
// the figure benches so series line up across clusters.
#pragma once

#include <vector>

namespace helios::stats {

class Ecdf {
 public:
  Ecdf() = default;
  explicit Ecdf(std::vector<double> sample);

  /// Fraction of the sample <= x, in [0, 1].
  [[nodiscard]] double operator()(double x) const noexcept;

  /// Inverse: smallest sample value v with F(v) >= q.
  [[nodiscard]] double inverse(double q) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
  [[nodiscard]] bool empty() const noexcept { return sorted_.empty(); }

 private:
  std::vector<double> sorted_;
};

/// `n` log-spaced points from lo to hi inclusive (lo, hi > 0).
[[nodiscard]] std::vector<double> log_space_points(double lo, double hi, int n);

}  // namespace helios::stats
