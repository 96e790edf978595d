#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace helios {

namespace {
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  has_cached_normal_ = false;
}

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless bounded sampling; bias is negligible for
  // the n used here but we keep the rejection loop for exactness.
  if (n == 0) return 0;
  const std::uint64_t threshold = (~n + 1) % n;  // 2^64 mod n
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  if (hi <= lo) return lo;
  return lo + static_cast<std::int64_t>(
                  uniform_index(static_cast<std::uint64_t>(hi - lo) + 1));
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double rate) noexcept {
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  return -std::log(u) / rate;
}

double Rng::pareto(double xm, double alpha) noexcept {
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  return xm / std::pow(u, 1.0 / alpha);
}

CategoricalSampler::CategoricalSampler(std::span<const double> weights) {
  cdf_.reserve(weights.size());
  double acc = 0.0;
  for (double w : weights) {
    acc += std::max(0.0, w);
    cdf_.push_back(acc);
  }
}

std::size_t CategoricalSampler::sample(Rng& rng) const noexcept {
  if (cdf_.empty() || cdf_.back() <= 0.0) return 0;
  const double x = rng.uniform() * cdf_.back();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), x);
  return static_cast<std::size_t>(std::min<std::ptrdiff_t>(
      it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
}

}  // namespace helios
