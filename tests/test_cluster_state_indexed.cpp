// Property sweep for the indexed ClusterState.
//
// The allocator keeps per-VC free-count buckets, sleeping/booting sets, and
// GPU counters so its hot paths are O(gpus_per_node) / O(1). This suite
// replays randomized allocate/release/reclaim/sleep/wake/boot sequences
// against ReferenceState — a deliberately brute-force model implementing the
// original linear-scan semantics — and asserts every returned allocation
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

/// Brute-force reference: the pre-index ClusterState algorithms, verbatim
/// linear scans over a flat node array.
class ReferenceState {
 public:
  struct RefNode {
    int vc = -1;
    int total = 0;
    int free = 0;
    PowerState power = PowerState::kActive;
    std::int64_t boot_ready = 0;
    [[nodiscard]] bool busy() const noexcept { return free < total; }
    [[nodiscard]] bool schedulable() const noexcept {
      return power == PowerState::kActive;
    }
  };

  explicit ReferenceState(const trace::ClusterSpec& spec) {
    vc_nodes_.resize(spec.vcs.size());
    for (std::size_t vi = 0; vi < spec.vcs.size(); ++vi) {
      for (int n = 0; n < spec.vcs[vi].nodes; ++n) {
        RefNode node;
        node.vc = static_cast<int>(vi);
        node.total = spec.vcs[vi].gpus_per_node;
        node.free = node.total;
        vc_nodes_[vi].push_back(static_cast<int>(nodes_.size()));
        nodes_.push_back(node);
      }
    }
  }

  std::optional<std::vector<std::pair<int, int>>> try_allocate(int vc, int gpus) {
    if (vc < 0 || vc >= static_cast<int>(vc_nodes_.size()) || gpus <= 0) {
      return std::nullopt;
    }
    const auto& indices = vc_nodes_[static_cast<std::size_t>(vc)];
    std::vector<std::pair<int, int>> alloc;
    auto best_fit = [&](int want) {
      int best = -1;
      int best_free = std::numeric_limits<int>::max();
      for (int ni : indices) {
        const RefNode& n = nodes_[static_cast<std::size_t>(ni)];
        if (!n.schedulable() || n.free < want) continue;
        if (n.free < best_free) {
          best_free = n.free;
          best = ni;
        }
      }
      return best;
    };
    const int gpn =
        indices.empty() ? 0 : nodes_[static_cast<std::size_t>(indices[0])].total;
    if (gpn == 0) return std::nullopt;
    if (gpus <= gpn) {
      const int ni = best_fit(gpus);
      if (ni < 0) return std::nullopt;
      alloc.emplace_back(ni, gpus);
    } else {
      const int full_nodes = gpus / gpn;
      const int rem = gpus % gpn;
      std::vector<int> picked;
      for (int ni : indices) {
        if (static_cast<int>(picked.size()) == full_nodes) break;
        const RefNode& n = nodes_[static_cast<std::size_t>(ni)];
        if (n.schedulable() && n.free == n.total) picked.push_back(ni);
      }
      if (static_cast<int>(picked.size()) < full_nodes) return std::nullopt;
      for (int ni : picked) alloc.emplace_back(ni, gpn);
      if (rem > 0) {
        int best = -1;
        int best_free = std::numeric_limits<int>::max();
        for (int ni : indices) {
          if (std::find(picked.begin(), picked.end(), ni) != picked.end()) {
            continue;
          }
          const RefNode& n = nodes_[static_cast<std::size_t>(ni)];
          if (!n.schedulable() || n.free < rem) continue;
          if (n.free < best_free) {
            best_free = n.free;
            best = ni;
          }
        }
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

  [[nodiscard]] int free_gpus(int vc) const {
    int total = 0;
    for (int ni : vc_nodes_[static_cast<std::size_t>(vc)]) {
      const RefNode& n = nodes_[static_cast<std::size_t>(ni)];
      if (n.schedulable()) total += n.free;
    }
    return total;
  }
  [[nodiscard]] int schedulable_gpus(int vc) const {
    int total = 0;
    for (int ni : vc_nodes_[static_cast<std::size_t>(vc)]) {
      const RefNode& n = nodes_[static_cast<std::size_t>(ni)];
      if (n.schedulable()) total += n.total;
    }
    return total;
  }
  [[nodiscard]] int capacity_gpus(int vc) const {
    int total = 0;
    for (int ni : vc_nodes_[static_cast<std::size_t>(vc)]) {
      total += nodes_[static_cast<std::size_t>(ni)].total;
    }
    return total;
  }
  [[nodiscard]] int busy_nodes() const {
    int c = 0;
    for (const auto& n : nodes_) c += n.busy();
    return c;
  }
  [[nodiscard]] int busy_gpus() const {
    int c = 0;
    for (const auto& n : nodes_) c += n.total - n.free;
    return c;
  }
  [[nodiscard]] int active_nodes() const {
    int c = 0;
    for (const auto& n : nodes_) c += n.power != PowerState::kSleeping;
    return c;
  }
  [[nodiscard]] int idle_active_in_vc(int vc) const {
    int c = 0;
    for (int ni : vc_nodes_[static_cast<std::size_t>(vc)]) {
      const RefNode& n = nodes_[static_cast<std::size_t>(ni)];
      c += n.power == PowerState::kActive && !n.busy();
    }
    return c;
  }
  [[nodiscard]] int booting_in_vc(int vc) const {
    int c = 0;
    for (int ni : vc_nodes_[static_cast<std::size_t>(vc)]) {
      c += nodes_[static_cast<std::size_t>(ni)].power == PowerState::kBooting;
    }
    return c;
  }
  [[nodiscard]] int sleeping_in_vc(int vc) const {
    int c = 0;
    for (int ni : vc_nodes_[static_cast<std::size_t>(vc)]) {
      c += nodes_[static_cast<std::size_t>(ni)].power == PowerState::kSleeping;
    }
    return c;
  }

  int sleep_idle_nodes_in_vc(int vc, int count) {
    int slept = 0;
    for (int ni : vc_nodes_[static_cast<std::size_t>(vc)]) {
      if (slept == count) break;
      RefNode& n = nodes_[static_cast<std::size_t>(ni)];
      if (n.power == PowerState::kActive && !n.busy()) {
        n.power = PowerState::kSleeping;
        ++slept;
      }
    }
    return slept;
  }
  int wake_nodes_in_vc(int vc, int count, std::int64_t now, std::int64_t delay) {
    int woken = 0;
    for (int ni : vc_nodes_[static_cast<std::size_t>(vc)]) {
      if (woken == count) break;
      RefNode& n = nodes_[static_cast<std::size_t>(ni)];
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
  std::vector<std::vector<int>> vc_nodes_;
};

std::vector<std::pair<int, int>> to_pairs(const Allocation& a) {
  return {a.node_gpus.begin(), a.node_gpus.end()};
}

void expect_counters_equal(const ClusterState& s, const ReferenceState& r,
                           int vcs, std::size_t step) {
  ASSERT_EQ(s.busy_nodes(), r.busy_nodes()) << "step " << step;
  ASSERT_EQ(s.busy_gpus(), r.busy_gpus()) << "step " << step;
  ASSERT_EQ(s.active_nodes(), r.active_nodes()) << "step " << step;
  ASSERT_EQ(s.next_boot_ready().has_value(), r.next_boot_ready().has_value())
      << "step " << step;
  if (s.next_boot_ready()) {
    ASSERT_EQ(*s.next_boot_ready(), *r.next_boot_ready()) << "step " << step;
  }
  for (int vc = 0; vc < vcs; ++vc) {
    ASSERT_EQ(s.free_gpus(vc), r.free_gpus(vc)) << "vc " << vc << " step " << step;
    ASSERT_EQ(s.schedulable_gpus(vc), r.schedulable_gpus(vc))
        << "vc " << vc << " step " << step;
    ASSERT_EQ(s.capacity_gpus(vc), r.capacity_gpus(vc))
        << "vc " << vc << " step " << step;
    ASSERT_EQ(s.idle_active_nodes_in_vc(vc), r.idle_active_in_vc(vc))
        << "vc " << vc << " step " << step;
    ASSERT_EQ(s.booting_nodes_in_vc(vc), r.booting_in_vc(vc))
        << "vc " << vc << " step " << step;
    ASSERT_EQ(s.sleeping_nodes_in_vc(vc), r.sleeping_in_vc(vc))
        << "vc " << vc << " step " << step;
  }
}

void run_sweep(const trace::ClusterSpec& spec, std::uint64_t seed,
               std::size_t steps) {
  ClusterState state(spec);
  ReferenceState ref(spec);
  Rng rng(seed);
  const int vcs = state.vc_count();
  std::int64_t now = 0;

  struct Live {
    int vc;
    Allocation alloc;
  };
  std::vector<Live> live;

  for (std::size_t step = 0; step < steps; ++step) {
    const auto op = rng.uniform_index(10);
    const int vc = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(vcs)));
    now += static_cast<std::int64_t>(rng.uniform_index(200));
    switch (op) {
      case 0:
      case 1:
      case 2:
      case 3: {  // allocate: sizes biased to small, up to capacity + slack
        const int cap = state.capacity_gpus(vc);
        const int gpus = rng.uniform() < 0.7
                             ? 1 + static_cast<int>(rng.uniform_index(8))
                             : 1 + static_cast<int>(rng.uniform_index(
                                       static_cast<std::uint64_t>(cap + 4)));
        auto got = state.try_allocate(vc, gpus);
        auto want = ref.try_allocate(vc, gpus);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "step " << step << " vc " << vc << " gpus " << gpus;
        if (got) {
          ASSERT_EQ(to_pairs(*got), *want)
              << "step " << step << " vc " << vc << " gpus " << gpus;
          live.push_back({vc, std::move(*got)});
        }
        break;
      }
      case 4:
      case 5: {  // release a random live allocation
        if (live.empty()) break;
        const std::size_t i = rng.uniform_index(live.size());
        state.release(live[i].alloc);
        ref.apply(to_pairs(live[i].alloc), +1);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      case 6: {  // SRTF-style rollback: release then reclaim
        if (live.empty()) break;
        const std::size_t i = rng.uniform_index(live.size());
        state.release(live[i].alloc);
        ref.apply(to_pairs(live[i].alloc), +1);
        expect_counters_equal(state, ref, vcs, step);
        state.reclaim(live[i].alloc);
        ref.apply(to_pairs(live[i].alloc), -1);
        break;
      }
      case 7: {  // sleep idle nodes of one VC
        const int count = static_cast<int>(rng.uniform_index(4));
        ASSERT_EQ(state.sleep_idle_nodes_in_vc(vc, count),
                  ref.sleep_idle_nodes_in_vc(vc, count))
            << "step " << step;
        break;
      }
      case 8: {  // wake sleeping nodes of one VC
        const int count = static_cast<int>(rng.uniform_index(4));
        const std::int64_t delay = 100 + static_cast<std::int64_t>(rng.uniform_index(300));
        ASSERT_EQ(state.wake_nodes_in_vc(vc, count, now, delay),
                  ref.wake_nodes_in_vc(vc, count, now, delay))
            << "step " << step;
        break;
      }
      case 9: {  // boot completion
        state.finish_boots(now);
        ref.finish_boots(now);
        break;
      }
    }
    expect_counters_equal(state, ref, vcs, step);
  }
}

trace::ClusterSpec small_spec() {
  trace::ClusterSpec s;
  s.name = "small";
  s.gpus_per_node = 8;
  s.vcs = {{"vcA", 2, 8}, {"vcB", 5, 8}, {"vcC", 1, 8}};
  s.nodes = 8;
  return s;
}

trace::ClusterSpec heterogeneous_spec() {
  trace::ClusterSpec s;
  s.name = "hetero";
  s.gpus_per_node = 8;
  // Mixed GPU-per-node shapes, a 1-node VC, and a larger VC to force
  // multi-node gangs with remainders across bucket sizes.
  s.vcs = {{"v0", 4, 4}, {"v1", 12, 8}, {"v2", 1, 8}, {"v3", 7, 4}};
  s.nodes = 24;
  return s;
}

TEST(ClusterStateIndexed, SweepSmallSpec) {
  run_sweep(small_spec(), /*seed=*/0xC0FFEE, /*steps=*/2500);
}

TEST(ClusterStateIndexed, SweepHeterogeneousSpec) {
  run_sweep(heterogeneous_spec(), /*seed=*/0xBEEF, /*steps=*/2500);
}

TEST(ClusterStateIndexed, SweepManySeeds) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    run_sweep(small_spec(), seed, 800);
    run_sweep(heterogeneous_spec(), seed ^ 0x5A5A, 800);
  }
}

TEST(ClusterStateIndexed, GangRemainderPrefersPartialNode) {
  // 20 GPUs on 8-GPU nodes: two full nodes + 4-GPU remainder. With a
  // 4-GPU-free partial node available, the remainder must land there (best
  // fit), not on a third fully-free node.
  trace::ClusterSpec s;
  s.name = "gang";
  s.gpus_per_node = 8;
  s.vcs = {{"v", 4, 8}};
  s.nodes = 4;
  ClusterState cs(s);
  auto half = cs.try_allocate(0, 4);  // node 0 now has 4 free
  ASSERT_TRUE(half.has_value());
  auto gang = cs.try_allocate(0, 20);
  ASSERT_TRUE(gang.has_value());
  ASSERT_EQ(gang->node_gpus.size(), 3u);
  EXPECT_EQ(gang->node_gpus[0].first, 1);
  EXPECT_EQ(gang->node_gpus[1].first, 2);
  EXPECT_EQ(gang->node_gpus[2].first, 0);  // remainder on the partial node
  EXPECT_EQ(gang->node_gpus[2].second, 4);
}

TEST(ClusterStateIndexed, GangRemainderFallsBackToFullyFreeNode) {
  trace::ClusterSpec s;
  s.name = "gang2";
  s.gpus_per_node = 8;
  s.vcs = {{"v", 3, 8}};
  s.nodes = 3;
  ClusterState cs(s);
  // No partial nodes: 20 GPUs = nodes 0,1 full + remainder on node 2.
  auto gang = cs.try_allocate(0, 20);
  ASSERT_TRUE(gang.has_value());
  ASSERT_EQ(gang->node_gpus.size(), 3u);
  EXPECT_EQ(gang->node_gpus[2].first, 2);
  EXPECT_EQ(gang->node_gpus[2].second, 4);
  EXPECT_EQ(cs.free_gpus(0), 4);
}

}  // namespace
}  // namespace helios::sim
