// Dense row-major dataset used by the ML models, plus the quantile binning
// transform (FeatureBinner / BinnedMatrix) shared by GBDT training and
// batched inference.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace helios::serialize {
class Reader;
class Writer;
}  // namespace helios::serialize

namespace helios::ml {

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::size_t n_features) : n_features_(n_features) {}

  /// Append one row; `features.size()` must equal n_features().
  void add_row(std::span<const double> features, double target);

  [[nodiscard]] std::size_t rows() const noexcept { return y_.size(); }
  [[nodiscard]] std::size_t features() const noexcept { return n_features_; }
  [[nodiscard]] bool empty() const noexcept { return y_.empty(); }

  [[nodiscard]] double at(std::size_t row, std::size_t col) const noexcept {
    return x_[row * n_features_ + col];
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
    return {x_.data() + r * n_features_, n_features_};
  }
  [[nodiscard]] double target(std::size_t r) const noexcept { return y_[r]; }
  [[nodiscard]] std::span<const double> targets() const noexcept { return y_; }

  void reserve(std::size_t n) {
    x_.reserve(n * n_features_);
    y_.reserve(n);
  }

 private:
  std::size_t n_features_ = 0;
  std::vector<double> x_;
  std::vector<double> y_;
};

/// Per-feature quantile binning. Bin ids are 0..bins-1; values above the
/// last edge fall in the last bin.
class FeatureBinner {
 public:
  FeatureBinner() = default;

  /// Compute at most `max_bins` bins per feature from (a sample of) `data`.
  /// Bin ids travel as std::uint8_t, so `max_bins` is clamped to 256 — a
  /// larger budget used to wrap bin() silently instead.
  void fit(const Dataset& data, int max_bins, Rng& rng);

  /// Bin id of `value`: the count of edges < value. Both paths below avoid a
  /// mispredictable branch per step — a vectorizable counting loop for short
  /// (categorical-like) edge arrays, and a halving search whose step is a
  /// bool*offset multiply (a `? half : 0` ternary compiles to a branch that
  /// mispredicts ~half the time on quantile edges). Inline: the binning
  /// passes call this per matrix cell.
  [[nodiscard]] std::uint8_t bin(std::size_t feature, double value) const noexcept {
    const auto& edges = edges_[feature];
    if (edges.size() <= 16) {
      unsigned b = 0;
      for (const double e : edges) b += e < value ? 1u : 0u;
      return static_cast<std::uint8_t>(b);
    }
    const double* base = edges.data();
    std::size_t n = edges.size();
    while (n > 1) {
      const std::size_t half = n / 2;
      base += static_cast<std::size_t>(base[half - 1] < value) * half;
      n -= half;
    }
    return static_cast<std::uint8_t>(
        static_cast<std::size_t>(base - edges.data()) +
        static_cast<std::size_t>(base[0] < value));
  }

  /// Bin four values of the same feature with their halving searches
  /// interleaved: the four dependent-load chains are independent, so the CPU
  /// overlaps the latency that bounds bin(). Matches bin() exactly.
  void bin4(std::size_t feature, const double v[4], std::uint8_t out[4]) const noexcept {
    const auto& edges = edges_[feature];
    if (edges.size() <= 16) {
      for (int j = 0; j < 4; ++j) out[j] = bin(feature, v[j]);
      return;
    }
    const double* base = edges.data();
    const double* p0 = base;
    const double* p1 = base;
    const double* p2 = base;
    const double* p3 = base;
    std::size_t n = edges.size();
    while (n > 1) {
      const std::size_t half = n / 2;
      p0 += static_cast<std::size_t>(p0[half - 1] < v[0]) * half;
      p1 += static_cast<std::size_t>(p1[half - 1] < v[1]) * half;
      p2 += static_cast<std::size_t>(p2[half - 1] < v[2]) * half;
      p3 += static_cast<std::size_t>(p3[half - 1] < v[3]) * half;
      n -= half;
    }
    out[0] = static_cast<std::uint8_t>(static_cast<std::size_t>(p0 - base) +
                                       static_cast<std::size_t>(p0[0] < v[0]));
    out[1] = static_cast<std::uint8_t>(static_cast<std::size_t>(p1 - base) +
                                       static_cast<std::size_t>(p1[0] < v[1]));
    out[2] = static_cast<std::uint8_t>(static_cast<std::size_t>(p2 - base) +
                                       static_cast<std::size_t>(p2[0] < v[2]));
    out[3] = static_cast<std::uint8_t>(static_cast<std::size_t>(p3 - base) +
                                       static_cast<std::size_t>(p3[0] < v[3]));
  }
  [[nodiscard]] int bins(std::size_t feature) const noexcept {
    return static_cast<int>(edges_[feature].size()) + 1;
  }
  [[nodiscard]] std::size_t features() const noexcept { return edges_.size(); }
  /// Upper edge of `bin` (the split threshold "value <= edge"); bin must be
  /// < bins(feature) - 1. Note bin(f, v) <= b holds exactly iff
  /// v <= edge(f, b), so binned and raw-threshold traversals agree.
  [[nodiscard]] double edge(std::size_t feature, int bin) const noexcept {
    return edges_[feature][static_cast<std::size_t>(bin)];
  }

  /// Persist / restore the fitted edges ("BINR" section, docs/FORMATS.md).
  /// A loaded binner bins bit-identically to the saved one (edges travel as
  /// IEEE-754 bit patterns). load() throws serialize::Error on malformed
  /// input and rejects per-feature edge lists that are unsorted or would
  /// overflow the uint8 bin id.
  void save(serialize::Writer& w) const;
  void load(serialize::Reader& r);

 private:
  std::vector<std::vector<double>> edges_;  // sorted strict upper edges
};

/// Row-major matrix of bin ids: bins[r * features + f], so a row's features
/// are adjacent bytes (1-2 cache lines). It additionally carries a uint16
/// plane of globally-offset bin ids (feature_offset[f] + bin) when the total
/// bin count fits — the GBDT trainer indexes its concatenated per-feature
/// histograms with them in a single add.
struct BinnedMatrix {
  /// Tail padding bytes appended to a non-empty `bins` plane
  /// (bins.size() == rows * features + kSimdPad): the AVX2 predict walk
  /// (ml/gbdt_kernels.h) reads uint8 cells with 4-byte gathers, whose final
  /// load may extend up to 3 bytes past the last cell.
  static constexpr std::size_t kSimdPad = 3;

  std::size_t rows = 0;
  std::size_t features = 0;
  std::vector<std::uint8_t> bins;
  std::vector<std::uint16_t> global;   ///< may be empty (> 64k total bins)
  std::vector<int> feature_offset;     ///< exclusive prefix of bins-per-feature

  [[nodiscard]] const std::uint8_t* row(std::size_t r) const noexcept {
    return bins.data() + r * features;
  }
  [[nodiscard]] std::uint8_t at(std::size_t r, std::size_t f) const noexcept {
    return bins[r * features + f];
  }
  [[nodiscard]] bool empty() const noexcept { return bins.empty(); }
};

/// Bin every value of `data` with a fitted binner in one sequential pass over
/// the dataset, parallel on the shared pool.
[[nodiscard]] BinnedMatrix bin_dataset(const Dataset& data,
                                       const FeatureBinner& binner);

}  // namespace helios::ml
