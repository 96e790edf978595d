#include "ml/linear.h"

#include <cmath>

#include "serialize/binary.h"

namespace helios::ml {

bool cholesky_solve(std::vector<double>& a, std::vector<double>& b, std::size_t n) {
  // Decompose A = L L^T in the lower triangle of `a`.
  for (std::size_t j = 0; j < n; ++j) {
    double d = a[j * n + j];
    for (std::size_t k = 0; k < j; ++k) d -= a[j * n + k] * a[j * n + k];
    if (d <= 0.0) return false;
    const double ljj = std::sqrt(d);
    a[j * n + j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) s -= a[i * n + k] * a[j * n + k];
      a[i * n + j] = s / ljj;
    }
  }
  // Forward substitution L z = b.
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= a[i * n + k] * b[k];
    b[i] = s / a[i * n + i];
  }
  // Back substitution L^T x = z.
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= a[k * n + ii] * b[k];
    b[ii] = s / a[ii * n + ii];
  }
  return true;
}

void RidgeRegression::fit(const Dataset& data) {
  const std::size_t p = data.features();
  const std::size_t n = data.rows();
  w_.assign(p, 0.0);
  b_ = 0.0;
  if (n == 0 || p == 0) return;

  // Center targets and features so the intercept absorbs the means and the
  // ridge penalty does not shrink it.
  std::vector<double> mean_x(p, 0.0);
  double mean_y = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = data.row(r);
    for (std::size_t j = 0; j < p; ++j) mean_x[j] += row[j];
    mean_y += data.target(r);
  }
  for (auto& m : mean_x) m /= static_cast<double>(n);
  mean_y /= static_cast<double>(n);

  std::vector<double> xtx(p * p, 0.0);
  std::vector<double> xty(p, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = data.row(r);
    const double yc = data.target(r) - mean_y;
    for (std::size_t i = 0; i < p; ++i) {
      const double xi = row[i] - mean_x[i];
      xty[i] += xi * yc;
      for (std::size_t j = i; j < p; ++j) {
        xtx[i * p + j] += xi * (row[j] - mean_x[j]);
      }
    }
  }
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < i; ++j) xtx[i * p + j] = xtx[j * p + i];
    xtx[i * p + i] += lambda_;
  }
  if (!cholesky_solve(xtx, xty, p)) {
    // Degenerate system: fall back to predicting the mean.
    w_.assign(p, 0.0);
    b_ = mean_y;
    return;
  }
  w_ = xty;
  b_ = mean_y;
  for (std::size_t j = 0; j < p; ++j) b_ -= w_[j] * mean_x[j];
}

namespace {
constexpr std::uint32_t kRidgeTag = serialize::fourcc("RIDG");
constexpr std::uint32_t kRidgeVersion = 1;
}  // namespace

void RidgeRegression::save(serialize::Writer& w) const {
  w.begin_section(kRidgeTag);
  w.u32(kRidgeVersion);
  w.f64(lambda_);
  w.vec_f64(w_);
  w.f64(b_);
  w.end_section();
}

void RidgeRegression::load(serialize::Reader& r) {
  serialize::Reader s = r.section(kRidgeTag);
  const std::uint32_t version = s.u32();
  if (version != kRidgeVersion) {
    throw serialize::Error(serialize::ErrorCode::kUnsupportedVersion,
                           "ridge section version " + std::to_string(version));
  }
  const double lambda = s.f64();
  std::vector<double> weights = s.vec_f64();
  const double intercept = s.f64();
  s.close("ridge");
  lambda_ = lambda;
  w_ = std::move(weights);
  b_ = intercept;
}

double RidgeRegression::predict(std::span<const double> features) const noexcept {
  double out = b_;
  const std::size_t p = std::min(features.size(), w_.size());
  for (std::size_t j = 0; j < p; ++j) out += w_[j] * features[j];
  return out;
}

}  // namespace helios::ml
