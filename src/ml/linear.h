// Ridge-regularised linear least squares.
//
// Small dense problems only (p <= a few hundred): the AR(p) forecaster and
// baseline predictors. Solved via normal equations + Cholesky.
#pragma once

#include <span>
#include <vector>

#include "ml/dataset.h"

namespace helios::ml {

class RidgeRegression {
 public:
  explicit RidgeRegression(double lambda = 1e-3) : lambda_(lambda) {}

  /// Fit weights (with intercept) minimising ||y - Xw - b||^2 + lambda ||w||^2.
  void fit(const Dataset& data);

  [[nodiscard]] double predict(std::span<const double> features) const noexcept;

  [[nodiscard]] const std::vector<double>& weights() const noexcept { return w_; }
  [[nodiscard]] double intercept() const noexcept { return b_; }
  [[nodiscard]] bool trained() const noexcept { return !w_.empty(); }

  /// Persist / restore the fitted weights ("RIDG" section, docs/FORMATS.md);
  /// a loaded model predicts bit-identically. load() throws
  /// serialize::Error on malformed input.
  void save(serialize::Writer& w) const;
  void load(serialize::Reader& r);

 private:
  double lambda_;
  std::vector<double> w_;
  double b_ = 0.0;
};

/// Solves A x = b for symmetric positive-definite A (in-place Cholesky).
/// A is row-major n x n; returns false when A is not SPD.
bool cholesky_solve(std::vector<double>& a, std::vector<double>& b, std::size_t n);

}  // namespace helios::ml
