// Monotonic bump-pointer arena exposed as a std::pmr::memory_resource.
//
// Built for the windowed evaluator's per-window snapshot state
// (core::RollingOverlay): each overlay delta makes thousands of small
// node-at-a-time allocations (user-map nodes) plus a few growing arrays
// (bucket arrays, the dedupe set's slots), all of which die together when
// the window is dropped. A monotonic arena turns each of those mallocs into
// a pointer bump and the teardown into a handful of chunk frees, and keeps
// a window's nodes contiguous in memory instead of scattered across the
// heap.
//
// Semantics: allocations never free individually (do_deallocate is a no-op);
// everything is released at once when the arena is destroyed. Chunks double
// geometrically from `initial_chunk` up to kMaxChunk; an allocation larger
// than a chunk gets its own exact-size chunk. Construction allocates
// nothing, so default-constructing arena-holding values (e.g. a vector of
// window snapshots) stays cheap.
//
// Thread-safety: NOT thread-safe — each arena is meant to be owned by one
// window/overlay and used from one thread at a time, exactly like the
// containers it backs. Distinct arenas are fully independent.
#pragma once

#include <cstddef>
#include <memory>
#include <memory_resource>
#include <vector>

namespace helios::common {

class MonotonicArena final : public std::pmr::memory_resource {
 public:
  explicit MonotonicArena(std::size_t initial_chunk = 1024) noexcept
      : next_chunk_(initial_chunk < kMinChunk ? kMinChunk : initial_chunk) {}
  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;
  ~MonotonicArena() override = default;  // unique_ptr chunks free themselves

  /// Bytes handed out to callers (excludes per-chunk slack).
  [[nodiscard]] std::size_t bytes_used() const noexcept { return used_; }
  /// Bytes reserved from the upstream heap across all chunks.
  [[nodiscard]] std::size_t bytes_reserved() const noexcept { return reserved_; }
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return chunks_.size();
  }

 private:
  static constexpr std::size_t kMinChunk = 256;
  static constexpr std::size_t kMaxChunk = std::size_t{1} << 20;  // 1 MiB

  void* do_allocate(std::size_t bytes, std::size_t alignment) override;
  void do_deallocate(void*, std::size_t, std::size_t) override {}
  [[nodiscard]] bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    // Monotonic arenas are never interchangeable: only the arena itself can
    // (not) free its allocations.
    return this == &other;
  }

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* cursor_ = nullptr;
  std::size_t remaining_ = 0;
  std::size_t next_chunk_;
  std::size_t used_ = 0;
  std::size_t reserved_ = 0;
};

}  // namespace helios::common
