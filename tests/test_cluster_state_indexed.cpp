// Property sweep for the indexed ClusterState.
//
// The allocator keeps free-count buckets, a sleeping set, a boot queue, and
// GPU counters so its hot paths are O(gpus_per_node) / O(1). This suite
// replays randomized allocate/release/reclaim/sleep/wake/boot sequences on
// VC states of several shapes against ReferenceState — a deliberately
// brute-force model implementing the original linear-scan semantics — and
// asserts every returned allocation
// (exact node ids and GPU splits) and every counter stays identical,
// including multi-node gangs, remainders, and sleeping/booting nodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "sim/cluster_state.h"

namespace helios::sim {
namespace {

/// Brute-force reference: the pre-index ClusterState algorithms as linear
/// scans over the VC's node array.
class ReferenceState {
 public:
  struct RefNode {
    int total = 0;
    int free = 0;
    PowerState power = PowerState::kActive;
    std::int64_t boot_ready = 0;
    [[nodiscard]] bool busy() const noexcept { return free < total; }
    [[nodiscard]] bool schedulable() const noexcept {
      return power == PowerState::kActive;
    }
  };

  explicit ReferenceState(const trace::VCSpec& vc)
      : nodes_(static_cast<std::size_t>(vc.nodes),
               RefNode{vc.gpus_per_node, vc.gpus_per_node}) {}

  std::optional<std::vector<std::pair<int, int>>> try_allocate(int gpus) {
    if (gpus <= 0 || nodes_.empty()) return std::nullopt;
    const int n_nodes = static_cast<int>(nodes_.size());
    std::vector<std::pair<int, int>> alloc;
    auto best_fit = [&](int want, const std::vector<int>& skip) {
      int best = -1;
      int best_free = std::numeric_limits<int>::max();
      for (int ni = 0; ni < n_nodes; ++ni) {
        if (std::find(skip.begin(), skip.end(), ni) != skip.end()) continue;
        const RefNode& n = nodes_[static_cast<std::size_t>(ni)];
        if (!n.schedulable() || n.free < want) continue;
        if (n.free < best_free) {
          best_free = n.free;
          best = ni;
        }
      }
      return best;
    };
    const int gpn = nodes_[0].total;
    if (gpn == 0) return std::nullopt;
    if (gpus <= gpn) {
      const int ni = best_fit(gpus, {});
      if (ni < 0) return std::nullopt;
      alloc.emplace_back(ni, gpus);
    } else {
      const int full_nodes = gpus / gpn;
      const int rem = gpus % gpn;
      std::vector<int> picked;
      for (int ni = 0; ni < n_nodes; ++ni) {
        if (static_cast<int>(picked.size()) == full_nodes) break;
        const RefNode& n = nodes_[static_cast<std::size_t>(ni)];
        if (n.schedulable() && n.free == n.total) picked.push_back(ni);
      }
      if (static_cast<int>(picked.size()) < full_nodes) return std::nullopt;
      for (int ni : picked) alloc.emplace_back(ni, gpn);
      if (rem > 0) {
        const int best = best_fit(rem, picked);
        if (best < 0) return std::nullopt;
        alloc.emplace_back(best, rem);
      }
    }
    apply(alloc, -1);
    return alloc;
  }

  void apply(const std::vector<std::pair<int, int>>& alloc, int sign) {
    for (auto [ni, g] : alloc) {
      nodes_[static_cast<std::size_t>(ni)].free += sign * g;
    }
  }

  /// Sum of `f(node)` over all nodes.
  template <typename F>
  [[nodiscard]] int count(F f) const {
    int c = 0;
    for (const auto& n : nodes_) c += f(n);
    return c;
  }
  [[nodiscard]] int free_gpus() const {
    return count([](const RefNode& n) { return n.schedulable() ? n.free : 0; });
  }
  [[nodiscard]] int schedulable_gpus() const {
    return count([](const RefNode& n) { return n.schedulable() ? n.total : 0; });
  }
  [[nodiscard]] int capacity_gpus() const {
    return count([](const RefNode& n) { return n.total; });
  }
  [[nodiscard]] int busy_nodes() const {
    return count([](const RefNode& n) { return n.busy() ? 1 : 0; });
  }
  [[nodiscard]] int busy_gpus() const {
    return count([](const RefNode& n) { return n.total - n.free; });
  }
  [[nodiscard]] int active_nodes() const {
    return count([](const RefNode& n) {
      return n.power != PowerState::kSleeping ? 1 : 0;
    });
  }
  [[nodiscard]] int in_state(PowerState p) const {
    return count([p](const RefNode& n) { return n.power == p ? 1 : 0; });
  }
  [[nodiscard]] int idle_active() const {
    return count([](const RefNode& n) {
      return n.power == PowerState::kActive && !n.busy() ? 1 : 0;
    });
  }

  int sleep_idle_nodes(int count) {
    int slept = 0;
    for (auto& n : nodes_) {
      if (slept == count) break;
      if (n.power == PowerState::kActive && !n.busy()) {
        n.power = PowerState::kSleeping;
        ++slept;
      }
    }
    return slept;
  }
  int wake_nodes(int count, std::int64_t now, std::int64_t delay) {
    int woken = 0;
    for (auto& n : nodes_) {
      if (woken == count) break;
      if (n.power == PowerState::kSleeping) {
        n.power = PowerState::kBooting;
        n.boot_ready = now + delay;
        ++woken;
      }
    }
    return woken;
  }
  void finish_boots(std::int64_t now) {
    for (auto& n : nodes_) {
      if (n.power == PowerState::kBooting && n.boot_ready <= now) {
        n.power = PowerState::kActive;
      }
    }
  }
  [[nodiscard]] std::optional<std::int64_t> next_boot_ready() const {
    std::optional<std::int64_t> next;
    for (const auto& n : nodes_) {
      if (n.power == PowerState::kBooting) {
        next = next ? std::min(*next, n.boot_ready) : n.boot_ready;
      }
    }
    return next;
  }

 private:
  std::vector<RefNode> nodes_;
};

std::vector<std::pair<int, int>> to_pairs(const Allocation& a) {
  return {a.node_gpus.begin(), a.node_gpus.end()};
}

void expect_counters_equal(const ClusterState& s, const ReferenceState& r,
                           std::size_t step) {
  ASSERT_EQ(s.busy_nodes(), r.busy_nodes()) << "step " << step;
  ASSERT_EQ(s.busy_gpus(), r.busy_gpus()) << "step " << step;
  ASSERT_EQ(s.active_nodes(), r.active_nodes()) << "step " << step;
  ASSERT_EQ(s.next_boot_ready().has_value(), r.next_boot_ready().has_value())
      << "step " << step;
  if (s.next_boot_ready()) {
    ASSERT_EQ(*s.next_boot_ready(), *r.next_boot_ready()) << "step " << step;
  }
  ASSERT_EQ(s.free_gpus(), r.free_gpus()) << "step " << step;
  ASSERT_EQ(s.schedulable_gpus(), r.schedulable_gpus()) << "step " << step;
  ASSERT_EQ(s.capacity_gpus(), r.capacity_gpus()) << "step " << step;
  ASSERT_EQ(s.idle_active_nodes(), r.idle_active()) << "step " << step;
  ASSERT_EQ(s.booting_nodes(), r.in_state(PowerState::kBooting))
      << "step " << step;
  ASSERT_EQ(s.sleeping_nodes(), r.in_state(PowerState::kSleeping))
      << "step " << step;
}

void run_sweep(const trace::VCSpec& vc, std::uint64_t seed, std::size_t steps) {
  SCOPED_TRACE(testing::Message() << vc.name << " (" << vc.nodes << "x"
                                  << vc.gpus_per_node << ") seed " << seed);
  ClusterState state(vc);
  ReferenceState ref(vc);
  Rng rng(seed);
  std::int64_t now = 0;
  std::vector<Allocation> live;

  for (std::size_t step = 0; step < steps; ++step) {
    const auto op = rng.uniform_index(10);
    now += static_cast<std::int64_t>(rng.uniform_index(200));
    switch (op) {
      case 0:
      case 1:
      case 2:
      case 3: {  // allocate: sizes biased to small, up to capacity + slack
        const int cap = state.capacity_gpus();
        const int gpus = rng.uniform() < 0.7
                             ? 1 + static_cast<int>(rng.uniform_index(8))
                             : 1 + static_cast<int>(rng.uniform_index(
                                       static_cast<std::uint64_t>(cap + 4)));
        auto got = state.try_allocate(gpus);
        auto want = ref.try_allocate(gpus);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "step " << step << " gpus " << gpus;
        if (got) {
          ASSERT_EQ(to_pairs(*got), *want) << "step " << step << " gpus " << gpus;
          live.push_back(std::move(*got));
        }
        break;
      }
      case 4:
      case 5: {  // release a random live allocation
        if (live.empty()) break;
        const std::size_t i = rng.uniform_index(live.size());
        state.release(live[i]);
        ref.apply(to_pairs(live[i]), +1);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      case 6: {  // SRTF-style rollback: release then reclaim
        if (live.empty()) break;
        const std::size_t i = rng.uniform_index(live.size());
        state.release(live[i]);
        ref.apply(to_pairs(live[i]), +1);
        expect_counters_equal(state, ref, step);
        state.reclaim(live[i]);
        ref.apply(to_pairs(live[i]), -1);
        break;
      }
      case 7: {  // sleep idle nodes
        const int count = static_cast<int>(rng.uniform_index(4));
        ASSERT_EQ(state.sleep_idle_nodes(count), ref.sleep_idle_nodes(count))
            << "step " << step;
        break;
      }
      case 8: {  // wake sleeping nodes
        const int count = static_cast<int>(rng.uniform_index(4));
        const std::int64_t delay = 100 + static_cast<std::int64_t>(rng.uniform_index(300));
        ASSERT_EQ(state.wake_nodes(count, now, delay),
                  ref.wake_nodes(count, now, delay))
            << "step " << step;
        break;
      }
      case 9: {  // boot completion
        state.finish_boots(now);
        ref.finish_boots(now);
        break;
      }
    }
    expect_counters_equal(state, ref, step);
  }
}

/// Equal-width VCs of 2, 5 and 1 nodes.
const std::vector<trace::VCSpec> kSmallVcs = {
    {"vcA", 2, 8}, {"vcB", 5, 8}, {"vcC", 1, 8}};

/// Mixed GPU-per-node shapes, a 1-node VC, and a larger VC to force
/// multi-node gangs with remainders across bucket sizes.
const std::vector<trace::VCSpec> kHeterogeneousVcs = {
    {"v0", 4, 4}, {"v1", 12, 8}, {"v2", 1, 8}, {"v3", 7, 4}};

TEST(ClusterStateIndexed, SweepSmallVcs) {
  for (const auto& vc : kSmallVcs) run_sweep(vc, /*seed=*/0xC0FFEE, /*steps=*/2500);
}

TEST(ClusterStateIndexed, SweepHeterogeneousVcs) {
  for (const auto& vc : kHeterogeneousVcs) {
    run_sweep(vc, /*seed=*/0xBEEF, /*steps=*/2500);
  }
}

TEST(ClusterStateIndexed, SweepManySeeds) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const auto& vc : kSmallVcs) run_sweep(vc, seed, 800);
    for (const auto& vc : kHeterogeneousVcs) run_sweep(vc, seed ^ 0x5A5A, 800);
  }
}

TEST(ClusterStateIndexed, GangRemainderPrefersPartialNode) {
  // 20 GPUs on 8-GPU nodes: two full nodes + 4-GPU remainder. With a
  // 4-GPU-free partial node available, the remainder must land there (best
  // fit), not on a third fully-free node.
  ClusterState cs(trace::VCSpec{"v", 4, 8});
  auto half = cs.try_allocate(4);  // node 0 now has 4 free
  ASSERT_TRUE(half.has_value());
  auto gang = cs.try_allocate(20);
  ASSERT_TRUE(gang.has_value());
  ASSERT_EQ(gang->node_gpus.size(), 3u);
  EXPECT_EQ(gang->node_gpus[0].first, 1);
  EXPECT_EQ(gang->node_gpus[1].first, 2);
  EXPECT_EQ(gang->node_gpus[2].first, 0);  // remainder on the partial node
  EXPECT_EQ(gang->node_gpus[2].second, 4);
}

TEST(ClusterStateIndexed, GangRemainderFallsBackToFullyFreeNode) {
  ClusterState cs(trace::VCSpec{"v", 3, 8});
  // No partial nodes: 20 GPUs = nodes 0,1 full + remainder on node 2.
  auto gang = cs.try_allocate(20);
  ASSERT_TRUE(gang.has_value());
  ASSERT_EQ(gang->node_gpus.size(), 3u);
  EXPECT_EQ(gang->node_gpus[2].first, 2);
  EXPECT_EQ(gang->node_gpus[2].second, 4);
  EXPECT_EQ(cs.free_gpus(), 4);
}

}  // namespace
}  // namespace helios::sim
