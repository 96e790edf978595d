// Open-addressing hash set of 64-bit keys, stored in one flat slot array.
//
// Built for core::RollingEstimator's observe-dedupe set: tens of thousands of
// content-hash keys that are only inserted and probed, never erased, and
// that travel with every full copy of the estimator (each QssfService copy;
// a svc snapshot's query copy leaves the set behind). A node-based set pays
// one allocation per key on insert and again on every copy; here a copy is
// one contiguous array copy and an insert allocates only when it rehashes.
//
// Layout: linear probing over a power-of-two std::vector of slots, 0
// marking an empty slot; the key 0 itself lives in a flag beside the array.
// Capacity doubles before the load factor would pass 1/2. There is no
// erase. Slot positions come from a 64-bit finalizer mix of the key, so keys
// that share their low or their high bits still spread across the table.
// for_each visits keys in slot order, which depends on the insert history;
// sorted_keys() gives the canonical ascending order (RollingEstimator::save
// writes it) through an LSD radix sort, linear in the key count.
//
// Thread-safety: like the standard containers — const members may be called
// concurrently, anything else needs exclusive access.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace helios::common {

/// Sorts `keys` ascending, duplicates kept: an LSD radix sort, one 8-bit
/// digit per pass, low byte first. Each pass is a stable counting scatter,
/// and a pass whose digit every key shares is skipped, so the cost is
/// O(8 n) whatever the key distribution. The result equals std::sort's.
inline void radix_sort(std::vector<std::uint64_t>& keys) {
  const std::size_t n = keys.size();
  if (n < 2) return;
  std::array<std::array<std::size_t, 256>, 8> counts{};
  for (const std::uint64_t k : keys) {
    for (std::size_t d = 0; d < 8; ++d) ++counts[d][(k >> (8 * d)) & 0xff];
  }
  std::vector<std::uint64_t> spare(n);
  std::uint64_t* src = keys.data();
  std::uint64_t* dst = spare.data();
  for (std::size_t d = 0; d < 8; ++d) {
    const unsigned shift = 8 * static_cast<unsigned>(d);
    std::array<std::size_t, 256>& next = counts[d];
    if (next[(src[0] >> shift) & 0xff] == n) continue;
    std::size_t offset = 0;
    for (std::size_t& c : next) offset += std::exchange(c, offset);
    for (std::size_t i = 0; i < n; ++i) {
      dst[next[(src[i] >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != keys.data()) std::copy(src, src + n, keys.data());
}

class FlatU64Set {
 public:
  /// Adds `key`; returns true if it was not already present.
  bool insert(std::uint64_t key) {
    if (key == 0) return !std::exchange(has_zero_, true);
    if (2 * (in_slots_ + 1) > slots_.size()) {
      rehash(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    }
    std::uint64_t& slot = slots_[find_slot(key)];
    if (slot == key) return false;
    slot = key;
    ++in_slots_;
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    if (key == 0) return has_zero_;
    return !slots_.empty() && slots_[find_slot(key)] == key;
  }

  /// Sizes the table so `n` keys fit without a rehash.
  void reserve(std::size_t n) {
    const std::size_t want = std::bit_ceil(std::max(kMinCapacity, 2 * n));
    if (want > slots_.size()) rehash(want);
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return in_slots_ + (has_zero_ ? 1 : 0);
  }

  /// Slots in the table; key 0 never takes one.
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Calls fn(key) once per key, key 0 first, then in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (has_zero_) fn(std::uint64_t{0});
    for (const std::uint64_t k : slots_) {
      if (k != 0) fn(k);
    }
  }

  /// Every key, ascending.
  [[nodiscard]] std::vector<std::uint64_t> sorted_keys() const {
    std::vector<std::uint64_t> keys;
    keys.reserve(size());
    for_each([&keys](std::uint64_t k) { keys.push_back(k); });
    radix_sort(keys);
    return keys;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  /// The slot holding `key`, or the empty slot where it would go. Needs a
  /// non-empty table with at least one empty slot (load factor <= 1/2).
  [[nodiscard]] std::size_t find_slot(std::uint64_t key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix(key)) & mask;
    while (slots_[i] != 0 && slots_[i] != key) i = (i + 1) & mask;
    return i;
  }

  /// MurmurHash3's 64-bit finalizer: every input bit reaches every output bit.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t k) noexcept {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
  }

  void rehash(std::size_t new_capacity) {
    std::vector<std::uint64_t> old(new_capacity, 0);
    old.swap(slots_);  // slots_ is now the empty table, old the full one
    for (const std::uint64_t k : old) {
      if (k != 0) slots_[find_slot(k)] = k;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t in_slots_ = 0;  // keys held in slots_ (all but key 0)
  bool has_zero_ = false;
};

}  // namespace helios::common
