// The GBDT hot kernels: the trainer's histogram accumulation (scalar only)
// and the batched predict_many forest walk in a scalar and an AVX2 form.
// Callers pick a walk through common::simd_enabled() (common/simd.h); the
// AVX2 definition lives in gbdt_kernels_avx2.cpp, the only translation unit
// compiled with -mavx2, so the rest of the library stays baseline-ISA.
//
// Bit-exactness contract (what lets dispatch flip freely):
// predict_forest_* accumulates, for each row, out = ((out + lr*v_tree0) +
// lr*v_tree1) + ... in tree order with separate multiply and add — the
// identical double-precision operation sequence as the scalar tree-at-a-time
// walk (the AVX2 TU is compiled without -mfma and uses explicit mul/add
// intrinsics, so no fused contraction can sneak in).
//
// The AVX2 entry point must only be called when common::simd_supported() is
// true; on a binary built without AVX2 support it is compiled as an aborting
// stub.
#pragma once

#include <cstddef>
#include <cstdint>

namespace helios::ml {

struct PackedForest;

namespace kernels {

/// Accumulate rows[lo, hi) of the uint16 globally-offset bin plane into two
/// packed histogram arenas (h0/h1, each `total_bins` buckets; caller merges
/// h1 into h0): h[gbins[r*p + f]] += (grad[r] << 24) | 1 for every feature.
/// Alternating rows between the arenas hides the store-to-load forward that
/// serializes consecutive same-bucket updates.
void hist_accumulate(const std::uint16_t* gbins, std::size_t p,
                     const std::uint32_t* rows, std::size_t lo, std::size_t hi,
                     const std::int32_t* grad, std::int64_t* h0,
                     std::int64_t* h1) noexcept;

/// One row's forest walk over the implicit-heap SoA layout: returns base
/// plus lr * leaf_value summed tree-at-a-time. `bins` is the row-major uint8
/// plane. This is the scalar twin of (and the tail handler for) the blocked
/// AVX2 walk below.
[[nodiscard]] double predict_forest_row_scalar(const PackedForest& forest,
                                               const std::uint8_t* bins,
                                               std::size_t p, std::size_t row,
                                               double learning_rate,
                                               double base) noexcept;

/// AVX2 batched walk over rows [lo, hi): blocks of 16 rows (two 8-row lane
/// groups) walk trees two at a time through the implicit heap — gather
/// packed splits, gather the rows' bins for the split features, compare,
/// advance idx = 2*idx + 1 + go_right, repeat forest.levels times — then
/// gather leaf values and accumulate into out[r] in tree order. The four
/// independent walk chains hide the latency of the dependent split->bins
/// gather pair. Rows left over under the block width fall back to
/// predict_forest_row_scalar. Requires the bins plane padded by
/// BinnedMatrix::kSimdPad and rows*p + p <= INT32_MAX (callers guard).
void predict_forest_avx2(const PackedForest& forest, const std::uint8_t* bins,
                         std::size_t p, std::size_t lo, std::size_t hi,
                         double learning_rate, double* out) noexcept;

}  // namespace kernels
}  // namespace helios::ml
