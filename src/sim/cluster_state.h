// Node-level state of one VC partition, with consolidated placement.
//
// Models the allocation rules of §2.1/§4.2.2 for one virtual cluster: a VC
// is a dedicated slice of whole nodes that no other VC shares, so one state
// per VC is the whole picture (the simulator runs one per shard, the CES
// replay holds one per VC). GPU jobs are gang-scheduled (all-or-nothing) and
// placed in the ConsolidateAllocate paradigm — as few nodes as possible, so
// a 16-GPU job on 8-GPU nodes needs two *completely free* nodes. Also tracks
// node power states for the Cluster Energy Saving service (sleeping nodes
// accept no work until woken; waking takes a boot delay).
//
// Hot paths are indexed instead of scanned: the state keeps buckets of
// schedulable nodes keyed by free-GPU count (by_free_), the ordered set of
// sleeping nodes, a boot queue, and running GPU counters, so
//  * try_allocate is O(gpus_per_node + nodes_in_gang) — best-fit picks the
//    lowest-id node from the first non-empty bucket, which reproduces a
//    linear scan's choice exactly;
//  * free_gpus / schedulable_gpus / capacity_gpus / can_ever_fit are O(1);
//  * infeasible requests (demand > free schedulable GPUs) are rejected O(1)
//    before any placement work;
//  * power transitions and boot bookkeeping touch only the affected sets.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/power_model.h"
#include "trace/cluster_config.h"

namespace helios::sim {

enum class PowerState : std::uint8_t {
  kActive = 0,    ///< powered on, schedulable
  kSleeping = 1,  ///< DRS deep sleep: not schedulable, ~0 W
  kBooting = 2,   ///< waking up: not schedulable until boot completes
  kFailed = 3,    ///< hardware fault: not schedulable until repaired
};

struct Node {
  int total_gpus = 0;
  int free_gpus = 0;
  PowerState power = PowerState::kActive;
  /// When power == kBooting: the time the node becomes active.
  std::int64_t boot_ready = 0;

  [[nodiscard]] bool busy() const noexcept { return free_gpus < total_gpus; }
  [[nodiscard]] bool schedulable() const noexcept {
    return power == PowerState::kActive;
  }
};

/// (node index, gpus) pairs with inline storage: single-node placements (the
/// overwhelming majority of jobs) and two-part gangs never touch the heap;
/// larger gangs spill to a vector that then holds every entry.
class NodeGpuList {
 public:
  using value_type = std::pair<int, int>;

  void emplace_back(int node, int gpus) {
    if (size_ < kInline) {
      inline_[size_] = {node, gpus};
    } else {
      if (size_ == kInline) {
        spill_.assign(inline_.begin(), inline_.end());
      }
      spill_.emplace_back(node, gpus);
    }
    ++size_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const value_type* begin() const noexcept { return data(); }
  [[nodiscard]] const value_type* end() const noexcept {
    return data() + size_;
  }
  [[nodiscard]] const value_type& operator[](std::size_t i) const noexcept {
    return data()[i];
  }

 private:
  static constexpr std::size_t kInline = 2;

  [[nodiscard]] const value_type* data() const noexcept {
    return size_ <= kInline ? inline_.data() : spill_.data();
  }

  std::size_t size_ = 0;
  std::array<value_type, kInline> inline_{};
  std::vector<value_type> spill_;  ///< all entries once size_ > kInline
};

/// GPUs taken from specific nodes; returned by try_allocate and passed back
/// to release.
struct Allocation {
  NodeGpuList node_gpus;  ///< (node index, gpus)

  [[nodiscard]] int total() const noexcept {
    int t = 0;
    for (auto [n, g] : node_gpus) t += g;
    return t;
  }
};

class ClusterState {
 public:
  /// All nodes of `vc`, powered and free; node ids run 0 .. vc.nodes - 1.
  explicit ClusterState(const trace::VCSpec& vc);

  /// Consolidated gang allocation of `gpus`:
  ///  * gpus <= gpus_per_node: best-fit single node (least free GPUs that
  ///    still fit), so small jobs fragment as few nodes as possible;
  ///  * gpus > gpus_per_node: floor(gpus/gpn) completely free nodes plus a
  ///    best-fit node for the remainder.
  /// Returns nullopt when the VC cannot host the job right now.
  [[nodiscard]] std::optional<Allocation> try_allocate(int gpus);

  void release(const Allocation& a);

  /// Re-apply an allocation previously released (SRTF preemption rollback).
  /// The caller guarantees the GPUs are still free.
  void reclaim(const Allocation& a);

  /// -- capacity queries (all O(1)) ---------------------------------------
  [[nodiscard]] int node_count() const noexcept { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] const Node& node(int i) const noexcept {
    return nodes_[static_cast<std::size_t>(i)];
  }
  /// Free GPUs on schedulable nodes.
  [[nodiscard]] int free_gpus() const noexcept { return sched_free_; }
  /// Total GPUs on schedulable nodes.
  [[nodiscard]] int schedulable_gpus() const noexcept { return sched_total_; }
  /// Total GPUs regardless of power state.
  [[nodiscard]] int capacity_gpus() const noexcept { return capacity_; }
  /// Largest job the VC could ever host when fully powered (capacity check).
  [[nodiscard]] bool can_ever_fit(int gpus) const noexcept {
    return gpus > 0 && gpus <= capacity_;
  }

  /// -- node counters (all O(1)) ------------------------------------------
  [[nodiscard]] int busy_nodes() const noexcept { return busy_nodes_; }
  [[nodiscard]] int busy_gpus() const noexcept { return busy_gpus_; }
  [[nodiscard]] int active_nodes() const noexcept {  ///< powered (incl. booting)
    return node_count() - sleeping_nodes() - failed_count_;
  }
  [[nodiscard]] int sleeping_nodes() const noexcept {
    return static_cast<int>(sleeping_.size());
  }
  [[nodiscard]] int booting_nodes() const noexcept {
    return static_cast<int>(boot_queue_.size());
  }
  [[nodiscard]] int failed_nodes() const noexcept { return failed_count_; }
  /// Active nodes with no allocations (candidates for DRS).
  [[nodiscard]] int idle_active_nodes() const noexcept {
    return gpn_ == 0 ? 0 : static_cast<int>(idle_bucket().size());
  }

  /// Baseline draw of the whole state under `profile`: every node billed by
  /// its power state, excluding the per-GPU draw of running jobs (the
  /// simulator tracks that per run, since it varies per job). O(1) — derived
  /// from the maintained power-state counters.
  [[nodiscard]] double baseline_watts(
      const core::PowerProfile& profile) const noexcept {
    const int booting = booting_nodes();
    const int active = active_nodes() - booting;
    return profile.baseline_watts(active, booting, sleeping_nodes(),
                                  failed_count_);
  }

  /// -- power control (used by the CES service) ---------------------------
  /// Put up to `count` idle active nodes to sleep, in node order. Returns
  /// how many slept.
  int sleep_idle_nodes(int count);
  /// Begin waking up to `count` sleeping nodes, in node order; they become
  /// schedulable at now + boot_delay. Returns how many started booting.
  int wake_nodes(int count, std::int64_t now, std::int64_t boot_delay);
  /// Promote nodes whose boot completed at or before `now` to active.
  void finish_boots(std::int64_t now);
  /// Earliest pending boot-ready time, or nullopt.
  [[nodiscard]] std::optional<std::int64_t> next_boot_ready() const noexcept;

  /// -- fault injection (used by the simulator's FaultPlan replay) --------
  /// Take a node out of service. The caller must have released every
  /// allocation on the node first (the simulator kills its jobs), so the
  /// node is fully free. Works from any power state (a sleeping or booting
  /// node can die too); no-op when already failed. The node keeps counting
  /// toward capacity_gpus (it will be repaired), so can_ever_fit — and with
  /// it the rejection semantics — is unaffected by transient failures.
  void fail_node(int ni);
  /// Return a repaired node to service, fully free and schedulable.
  /// No-op unless the node is currently failed.
  void recover_node(int ni);

 private:
  /// Ascending set of node ids on a flat vector. VCs hold at most a few
  /// dozen nodes, where one contiguous array beats a red-black tree on every
  /// operation the allocator hot path performs.
  class NodeIdSet {
   public:
    void insert(int v) {
      ids_.insert(std::lower_bound(ids_.begin(), ids_.end(), v), v);
    }
    void erase(int v) {
      ids_.erase(std::lower_bound(ids_.begin(), ids_.end(), v));
    }
    [[nodiscard]] bool empty() const noexcept { return ids_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }
    [[nodiscard]] int front() const noexcept { return ids_.front(); }
    [[nodiscard]] int at(std::size_t i) const noexcept { return ids_[i]; }

   private:
    std::vector<int> ids_;
  };

  [[nodiscard]] NodeIdSet& bucket(const Node& n) noexcept {
    return by_free_[static_cast<std::size_t>(n.free_gpus)];
  }
  /// Fully free kActive nodes.
  [[nodiscard]] const NodeIdSet& idle_bucket() const noexcept {
    return by_free_[static_cast<std::size_t>(gpn_)];
  }
  void apply(const Allocation& a, int sign);
  /// Move a node into / out of the schedulable pool (buckets and GPU sums).
  void make_schedulable(int ni);
  void make_unschedulable(int ni);

  std::vector<Node> nodes_;
  int gpn_ = 0;          ///< GPUs per node (0 when the VC has no nodes)
  int capacity_ = 0;     ///< total GPUs, any power state
  int sched_total_ = 0;  ///< total GPUs on kActive nodes
  int sched_free_ = 0;   ///< free GPUs on kActive nodes
  /// by_free_[f]: kActive nodes with exactly f free GPUs, ordered by node id
  /// (so "first in node order").
  std::vector<NodeIdSet> by_free_;
  NodeIdSet sleeping_;  ///< node ids in kSleeping, ordered
  /// Booting nodes ordered by (boot_ready, node id): O(log n) next_boot_ready
  /// and finish_boots touches only completed boots.
  std::set<std::pair<std::int64_t, int>> boot_queue_;
  int busy_nodes_ = 0;  // maintained incrementally: O(1) busy queries
  int busy_gpus_ = 0;
  int failed_count_ = 0;
};

}  // namespace helios::sim
