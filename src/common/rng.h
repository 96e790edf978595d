// Deterministic pseudo-random number generation and samplers.
//
// All stochastic components of the library (trace synthesis, GBDT row
// subsampling, ...) draw from this engine so that every experiment is
// reproducible from a single seed across platforms. std::* distributions are
// implementation-defined, so the samplers here are hand-rolled.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace helios {

/// xoshiro256** by Blackman & Vigna, seeded via SplitMix64.
/// Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next(); }
  /// Inline: next()/uniform()/bernoulli() are the per-row hot path of trace
  /// synthesis and GBDT subsampling — an out-of-line call per draw dominates
  /// the generator itself.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    // 53 random mantissa bits -> [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }
  /// Uniform integer in [0, n); n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept;
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
  /// Bernoulli trial.
  bool bernoulli(double p) noexcept { return uniform() < p; }
  /// Standard normal via Box-Muller (cached second variate).
  double normal() noexcept;
  /// Normal with given mean / stddev.
  double normal(double mean, double stddev) noexcept;
  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept;
  /// Exponential with given rate (mean = 1/rate).
  double exponential(double rate) noexcept;
  /// Pareto with scale xm > 0 and shape alpha > 0.
  double pareto(double xm, double alpha) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[uniform_index(i)]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Precomputed alias-free sampler for a fixed categorical distribution:
/// O(log n) per draw via a cumulative table. Suitable when the same
/// distribution is sampled millions of times (job-size mixes etc.).
class CategoricalSampler {
 public:
  CategoricalSampler() = default;
  explicit CategoricalSampler(std::span<const double> weights);

  [[nodiscard]] std::size_t sample(Rng& rng) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }
  [[nodiscard]] bool empty() const noexcept { return cdf_.empty(); }

 private:
  std::vector<double> cdf_;  // strictly increasing, back() == total weight
};

}  // namespace helios
