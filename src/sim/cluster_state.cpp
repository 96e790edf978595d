#include "sim/cluster_state.h"

#include <algorithm>

namespace helios::sim {

ClusterState::ClusterState(const trace::ClusterSpec& spec) {
  vc_nodes_.resize(spec.vcs.size());
  index_.resize(spec.vcs.size());
  for (std::size_t vi = 0; vi < spec.vcs.size(); ++vi) {
    const auto& vc = spec.vcs[vi];
    VcIndex& ix = index_[vi];
    ix.gpn = vc.nodes > 0 ? vc.gpus_per_node : 0;
    ix.by_free.resize(static_cast<std::size_t>(ix.gpn) + 1);
    for (int n = 0; n < vc.nodes; ++n) {
      Node node;
      node.vc = static_cast<int>(vi);
      node.total_gpus = vc.gpus_per_node;
      node.free_gpus = vc.gpus_per_node;
      const int ni = static_cast<int>(nodes_.size());
      vc_nodes_[vi].push_back(ni);
      ix.by_free[static_cast<std::size_t>(node.free_gpus)].insert(ni);
      ix.capacity += node.total_gpus;
      ix.sched_total += node.total_gpus;
      ix.sched_free += node.free_gpus;
      nodes_.push_back(node);
    }
  }
}

void ClusterState::bucket_erase(const Node& n, int ni) {
  index_[static_cast<std::size_t>(n.vc)]
      .by_free[static_cast<std::size_t>(n.free_gpus)]
      .erase(ni);
}

void ClusterState::bucket_insert(const Node& n, int ni) {
  index_[static_cast<std::size_t>(n.vc)]
      .by_free[static_cast<std::size_t>(n.free_gpus)]
      .insert(ni);
}

std::optional<Allocation> ClusterState::try_allocate(int vc, int gpus) {
  if (vc < 0 || vc >= vc_count() || gpus <= 0) return std::nullopt;
  VcIndex& ix = index_[static_cast<std::size_t>(vc)];
  const int gpn = ix.gpn;
  if (gpn == 0 || gpus > ix.sched_free) return std::nullopt;

  Allocation alloc;
  // Best-fit: the first non-empty free-count bucket >= want holds the nodes
  // with the fewest free GPUs that still fit; the lowest id among them is
  // what the previous linear scan picked.
  auto best_fit = [&](int want) -> int {
    for (int f = want; f <= gpn; ++f) {
      const auto& bucket = ix.by_free[static_cast<std::size_t>(f)];
      if (!bucket.empty()) return bucket.front();
    }
    return -1;
  };

  if (gpus <= gpn) {
    const int ni = best_fit(gpus);
    if (ni < 0) return std::nullopt;
    alloc.node_gpus.emplace_back(ni, gpus);
  } else {
    // Multi-node gang: full nodes first, remainder best-fit.
    const int full_nodes = gpus / gpn;
    const int rem = gpus % gpn;
    const auto& fully_free = ix.by_free[static_cast<std::size_t>(gpn)];
    if (static_cast<int>(fully_free.size()) < full_nodes) return std::nullopt;
    for (int k = 0; k < full_nodes; ++k) {
      alloc.node_gpus.emplace_back(fully_free.at(static_cast<std::size_t>(k)),
                                   gpn);
    }
    if (rem > 0) {
      // The remainder must land on a node not already fully taken; the first
      // fully-free node past the picked prefix is the fallback.
      int best = -1;
      for (int f = rem; f < gpn; ++f) {
        const auto& bucket = ix.by_free[static_cast<std::size_t>(f)];
        if (!bucket.empty()) {
          best = bucket.front();
          break;
        }
      }
      if (best < 0 &&
          static_cast<int>(fully_free.size()) > full_nodes) {
        best = fully_free.at(static_cast<std::size_t>(full_nodes));
      }
      if (best < 0) return std::nullopt;
      alloc.node_gpus.emplace_back(best, rem);
    }
  }

  apply(alloc, /*sign=*/-1);
  return alloc;
}

void ClusterState::apply(const Allocation& a, int sign) {
  for (auto [ni, g] : a.node_gpus) {
    Node& n = nodes_[static_cast<std::size_t>(ni)];
    const bool was_busy = n.busy();
    // Allocated nodes are always kActive (sleep only takes idle nodes, and
    // booting nodes are not schedulable), so the bucket move is unconditional.
    bucket_erase(n, ni);
    n.free_gpus += sign * g;
    bucket_insert(n, ni);
    index_[static_cast<std::size_t>(n.vc)].sched_free += sign * g;
    busy_gpus_ -= sign * g;
    if (was_busy != n.busy()) busy_nodes_ += n.busy() ? 1 : -1;
  }
}

void ClusterState::release(const Allocation& a) { apply(a, /*sign=*/+1); }

void ClusterState::reclaim(const Allocation& a) { apply(a, /*sign=*/-1); }

void ClusterState::sleep_node(int ni) {
  Node& n = nodes_[static_cast<std::size_t>(ni)];
  VcIndex& ix = index_[static_cast<std::size_t>(n.vc)];
  bucket_erase(n, ni);
  n.power = PowerState::kSleeping;
  ix.sched_total -= n.total_gpus;
  ix.sched_free -= n.free_gpus;
  ix.sleeping.insert(ni);
  ++sleeping_count_;
}

int ClusterState::sleep_idle_nodes_in_vc(int vc, int count) {
  VcIndex& ix = index_[static_cast<std::size_t>(vc)];
  if (ix.gpn == 0) return 0;
  auto& idle = ix.by_free[static_cast<std::size_t>(ix.gpn)];
  int slept = 0;
  while (slept < count && !idle.empty()) {
    sleep_node(idle.front());
    ++slept;
  }
  return slept;
}

int ClusterState::idle_active_nodes_in_vc(int vc) const noexcept {
  const VcIndex& ix = index_[static_cast<std::size_t>(vc)];
  if (ix.gpn == 0) return 0;
  return static_cast<int>(ix.by_free[static_cast<std::size_t>(ix.gpn)].size());
}

void ClusterState::wake_node(int ni, std::int64_t now, std::int64_t boot_delay) {
  Node& n = nodes_[static_cast<std::size_t>(ni)];
  VcIndex& ix = index_[static_cast<std::size_t>(n.vc)];
  n.power = PowerState::kBooting;
  n.boot_ready = now + boot_delay;
  ix.sleeping.erase(ni);
  ix.booting.insert(ni);
  boot_queue_.emplace(n.boot_ready, ni);
  --sleeping_count_;
}

int ClusterState::wake_nodes_in_vc(int vc, int count, std::int64_t now,
                                   std::int64_t boot_delay) {
  VcIndex& ix = index_[static_cast<std::size_t>(vc)];
  int woken = 0;
  while (woken < count && !ix.sleeping.empty()) {
    wake_node(ix.sleeping.front(), now, boot_delay);
    ++woken;
  }
  return woken;
}

int ClusterState::booting_nodes_in_vc(int vc) const noexcept {
  return static_cast<int>(index_[static_cast<std::size_t>(vc)].booting.size());
}

int ClusterState::sleeping_nodes_in_vc(int vc) const noexcept {
  return static_cast<int>(index_[static_cast<std::size_t>(vc)].sleeping.size());
}

void ClusterState::finish_boots(std::int64_t now) {
  while (!boot_queue_.empty() && boot_queue_.begin()->first <= now) {
    const int ni = boot_queue_.begin()->second;
    boot_queue_.erase(boot_queue_.begin());
    Node& n = nodes_[static_cast<std::size_t>(ni)];
    VcIndex& ix = index_[static_cast<std::size_t>(n.vc)];
    n.power = PowerState::kActive;
    ix.booting.erase(ni);
    bucket_insert(n, ni);
    ix.sched_total += n.total_gpus;
    ix.sched_free += n.free_gpus;
  }
}

std::optional<std::int64_t> ClusterState::next_boot_ready() const noexcept {
  if (boot_queue_.empty()) return std::nullopt;
  return boot_queue_.begin()->first;
}

void ClusterState::fail_node(int ni) {
  Node& n = nodes_[static_cast<std::size_t>(ni)];
  VcIndex& ix = index_[static_cast<std::size_t>(n.vc)];
  switch (n.power) {
    case PowerState::kFailed:
      return;
    case PowerState::kActive:
      bucket_erase(n, ni);
      ix.sched_total -= n.total_gpus;
      ix.sched_free -= n.free_gpus;
      break;
    case PowerState::kSleeping:
      ix.sleeping.erase(ni);
      --sleeping_count_;
      break;
    case PowerState::kBooting:
      ix.booting.erase(ni);
      boot_queue_.erase({n.boot_ready, ni});
      break;
  }
  n.power = PowerState::kFailed;
  ix.failed.insert(ni);
  ++failed_count_;
}

void ClusterState::recover_node(int ni) {
  Node& n = nodes_[static_cast<std::size_t>(ni)];
  if (n.power != PowerState::kFailed) return;
  VcIndex& ix = index_[static_cast<std::size_t>(n.vc)];
  ix.failed.erase(ni);
  --failed_count_;
  n.power = PowerState::kActive;
  n.free_gpus = n.total_gpus;  // repair returns the node empty
  bucket_insert(n, ni);
  ix.sched_total += n.total_gpus;
  ix.sched_free += n.free_gpus;
}

int ClusterState::failed_nodes_in_vc(int vc) const noexcept {
  return static_cast<int>(index_[static_cast<std::size_t>(vc)].failed.size());
}

}  // namespace helios::sim
