#include "ml/dataset.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "common/thread_pool.h"
#include "serialize/binary.h"

namespace helios::ml {

void Dataset::add_row(std::span<const double> features, double target) {
  assert(features.size() == n_features_);
  x_.insert(x_.end(), features.begin(), features.end());
  y_.push_back(target);
}

// ---------------------------------------------------------------------------
// FeatureBinner
// ---------------------------------------------------------------------------

void FeatureBinner::fit(const Dataset& data, int max_bins, Rng& rng) {
  // Bin ids are std::uint8_t: with more than 256 bins the edge index would
  // wrap modulo 256, scrambling splits. Clamp the budget instead.
  max_bins = std::min(max_bins, 256);

  const std::size_t n = data.rows();
  const std::size_t p = data.features();
  edges_.assign(p, {});
  if (n == 0 || max_bins < 2) return;

  // Quantile edges from a sample (binning fidelity does not need all rows;
  // ~300 samples per candidate edge keep the quantiles stable).
  constexpr std::size_t kSampleCap = 20'000;
  std::vector<std::size_t> sample_rows;
  if (n <= kSampleCap) {
    sample_rows.resize(n);
    std::iota(sample_rows.begin(), sample_rows.end(), 0);
  } else {
    sample_rows.reserve(kSampleCap);
    for (std::size_t i = 0; i < kSampleCap; ++i) {
      sample_rows.push_back(rng.uniform_index(n));
    }
  }

  for (std::size_t f = 0; f < p; ++f) {
    std::vector<double> values;
    values.reserve(sample_rows.size());
    for (std::size_t r : sample_rows) values.push_back(data.at(r, f));
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    auto& edges = edges_[f];
    if (values.size() <= static_cast<std::size_t>(max_bins)) {
      // Few distinct values: one bin per value (categorical-friendly).
      edges.assign(values.begin(), values.size() > 1 ? values.end() - 1
                                                     : values.begin());
    } else {
      edges.reserve(static_cast<std::size_t>(max_bins) - 1);
      for (int b = 1; b < max_bins; ++b) {
        const std::size_t idx =
            values.size() * static_cast<std::size_t>(b) / static_cast<std::size_t>(max_bins);
        const double e = values[std::min(idx, values.size() - 1)];
        if (edges.empty() || e > edges.back()) edges.push_back(e);
      }
    }
  }
}

namespace {
constexpr std::uint32_t kBinnerTag = serialize::fourcc("BINR");
constexpr std::uint32_t kBinnerVersion = 1;
}  // namespace

void FeatureBinner::save(serialize::Writer& w) const {
  w.begin_section(kBinnerTag);
  w.u32(kBinnerVersion);
  w.u64(edges_.size());
  for (const auto& edges : edges_) w.vec_f64(edges);
  w.end_section();
}

void FeatureBinner::load(serialize::Reader& r) {
  serialize::Reader s = r.section(kBinnerTag);
  const std::uint32_t version = s.u32();
  if (version != kBinnerVersion) {
    throw serialize::Error(serialize::ErrorCode::kUnsupportedVersion,
                           "binner section version " + std::to_string(version));
  }
  const std::size_t p = s.length(8);  // each feature holds at least a count
  std::vector<std::vector<double>> edges(p);
  for (std::size_t f = 0; f < p; ++f) {
    edges[f] = s.vec_f64();
    // bins(f) = edges + 1 must fit the uint8 bin ids, and bin() requires
    // strictly ascending edges — reject anything else before adopting it.
    if (edges[f].size() > 255) {
      throw serialize::Error(serialize::ErrorCode::kCorrupt,
                             "feature " + std::to_string(f) + " has " +
                                 std::to_string(edges[f].size()) + " edges");
    }
    for (std::size_t i = 1; i < edges[f].size(); ++i) {
      if (!(edges[f][i - 1] < edges[f][i])) {
        throw serialize::Error(serialize::ErrorCode::kCorrupt,
                               "feature " + std::to_string(f) +
                                   " edges are not strictly ascending");
      }
    }
  }
  s.close("binner");
  edges_ = std::move(edges);
}

BinnedMatrix bin_dataset(const Dataset& data, const FeatureBinner& binner) {
  BinnedMatrix x;
  x.rows = data.rows();
  x.features = binner.features();
  const std::size_t cells = x.rows * x.features;
  // Non-empty planes carry a few zero bytes of tail padding: the AVX2
  // predict walk loads each uint8 cell with a 4-byte gather, which reads up
  // to kSimdPad bytes past the last cell. The padding is inside the vector's
  // size() so sanitizer container annotations see the reads as in-bounds.
  x.bins.resize(cells + (cells > 0 ? BinnedMatrix::kSimdPad : 0));
  x.feature_offset.resize(x.features + 1, 0);
  for (std::size_t f = 0; f < x.features; ++f) {
    x.feature_offset[f + 1] = x.feature_offset[f] + binner.bins(f);
  }
  const bool with_global = x.feature_offset[x.features] <= 0xffff;
  if (with_global) x.global.resize(x.rows * x.features);
  // One sequential pass over the (row-major) dataset, four rows at a time:
  // the per-feature edge arrays all stay resident, and the interleaved
  // searches overlap their dependent-load chains.
  parallel_for_chunks(
      0, x.rows,
      [&](std::size_t lo, std::size_t hi) {
        const std::size_t p = x.features;
        const auto emit = [&](std::size_t r, std::size_t f, std::uint8_t b) {
          x.bins[r * p + f] = b;
          if (with_global) {
            x.global[r * p + f] =
                static_cast<std::uint16_t>(x.feature_offset[f] + b);
          }
        };
        std::size_t r = lo;
        for (; r + 3 < hi; r += 4) {
          for (std::size_t f = 0; f < p; ++f) {
            const double v[4] = {data.at(r, f), data.at(r + 1, f),
                                 data.at(r + 2, f), data.at(r + 3, f)};
            std::uint8_t b[4];
            binner.bin4(f, v, b);
            for (std::size_t j = 0; j < 4; ++j) emit(r + j, f, b[j]);
          }
        }
        for (; r < hi; ++r) {
          for (std::size_t f = 0; f < p; ++f) {
            emit(r, f, binner.bin(f, data.at(r, f)));
          }
        }
      },
      /*grain=*/8192);
  return x;
}

}  // namespace helios::ml
