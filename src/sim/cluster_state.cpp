#include "sim/cluster_state.h"

#include <algorithm>

namespace helios::sim {

ClusterState::ClusterState(const trace::VCSpec& vc)
    : gpn_(vc.nodes > 0 ? vc.gpus_per_node : 0) {
  by_free_.resize(static_cast<std::size_t>(gpn_) + 1);
  nodes_.reserve(static_cast<std::size_t>(std::max(0, vc.nodes)));
  for (int ni = 0; ni < vc.nodes; ++ni) {
    Node node;
    node.total_gpus = vc.gpus_per_node;
    node.free_gpus = vc.gpus_per_node;
    nodes_.push_back(node);
    capacity_ += node.total_gpus;
    make_schedulable(ni);
  }
}

void ClusterState::make_schedulable(int ni) {
  const Node& n = nodes_[static_cast<std::size_t>(ni)];
  bucket(n).insert(ni);
  sched_total_ += n.total_gpus;
  sched_free_ += n.free_gpus;
}

void ClusterState::make_unschedulable(int ni) {
  const Node& n = nodes_[static_cast<std::size_t>(ni)];
  bucket(n).erase(ni);
  sched_total_ -= n.total_gpus;
  sched_free_ -= n.free_gpus;
}

std::optional<Allocation> ClusterState::try_allocate(int gpus) {
  const int gpn = gpn_;
  if (gpus <= 0 || gpn == 0 || gpus > sched_free_) return std::nullopt;

  Allocation alloc;
  // Best-fit: the first non-empty free-count bucket >= want holds the nodes
  // with the fewest free GPUs that still fit; the lowest id among them is
  // what a linear scan picks.
  auto best_fit = [&](int want, int below) -> int {
    for (int f = want; f < below; ++f) {
      const auto& b = by_free_[static_cast<std::size_t>(f)];
      if (!b.empty()) return b.front();
    }
    return -1;
  };

  if (gpus <= gpn) {
    const int ni = best_fit(gpus, gpn + 1);
    if (ni < 0) return std::nullopt;
    alloc.node_gpus.emplace_back(ni, gpus);
  } else {
    // Multi-node gang: full nodes first, remainder best-fit.
    const int full_nodes = gpus / gpn;
    const int rem = gpus % gpn;
    const NodeIdSet& fully_free = idle_bucket();
    if (static_cast<int>(fully_free.size()) < full_nodes) return std::nullopt;
    for (int k = 0; k < full_nodes; ++k) {
      alloc.node_gpus.emplace_back(fully_free.at(static_cast<std::size_t>(k)),
                                   gpn);
    }
    if (rem > 0) {
      // The remainder must land on a node not already fully taken; the first
      // fully-free node past the picked prefix is the fallback.
      int best = best_fit(rem, gpn);
      if (best < 0 && static_cast<int>(fully_free.size()) > full_nodes) {
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
    bucket(n).erase(ni);
    n.free_gpus += sign * g;
    bucket(n).insert(ni);
    sched_free_ += sign * g;
    busy_gpus_ -= sign * g;
    if (was_busy != n.busy()) busy_nodes_ += n.busy() ? 1 : -1;
  }
}

void ClusterState::release(const Allocation& a) { apply(a, /*sign=*/+1); }

void ClusterState::reclaim(const Allocation& a) { apply(a, /*sign=*/-1); }

int ClusterState::sleep_idle_nodes(int count) {
  if (gpn_ == 0) return 0;
  int slept = 0;
  while (slept < count && !idle_bucket().empty()) {
    const int ni = idle_bucket().front();
    make_unschedulable(ni);
    nodes_[static_cast<std::size_t>(ni)].power = PowerState::kSleeping;
    sleeping_.insert(ni);
    ++slept;
  }
  return slept;
}

int ClusterState::wake_nodes(int count, std::int64_t now,
                             std::int64_t boot_delay) {
  int woken = 0;
  while (woken < count && !sleeping_.empty()) {
    const int ni = sleeping_.front();
    Node& n = nodes_[static_cast<std::size_t>(ni)];
    n.power = PowerState::kBooting;
    n.boot_ready = now + boot_delay;
    sleeping_.erase(ni);
    boot_queue_.emplace(n.boot_ready, ni);
    ++woken;
  }
  return woken;
}

void ClusterState::finish_boots(std::int64_t now) {
  while (!boot_queue_.empty() && boot_queue_.begin()->first <= now) {
    const int ni = boot_queue_.begin()->second;
    boot_queue_.erase(boot_queue_.begin());
    nodes_[static_cast<std::size_t>(ni)].power = PowerState::kActive;
    make_schedulable(ni);
  }
}

std::optional<std::int64_t> ClusterState::next_boot_ready() const noexcept {
  if (boot_queue_.empty()) return std::nullopt;
  return boot_queue_.begin()->first;
}

void ClusterState::fail_node(int ni) {
  Node& n = nodes_[static_cast<std::size_t>(ni)];
  switch (n.power) {
    case PowerState::kFailed:
      return;
    case PowerState::kActive:
      make_unschedulable(ni);
      break;
    case PowerState::kSleeping:
      sleeping_.erase(ni);
      break;
    case PowerState::kBooting:
      boot_queue_.erase({n.boot_ready, ni});
      break;
  }
  n.power = PowerState::kFailed;
  ++failed_count_;
}

void ClusterState::recover_node(int ni) {
  Node& n = nodes_[static_cast<std::size_t>(ni)];
  if (n.power != PowerState::kFailed) return;
  --failed_count_;
  n.power = PowerState::kActive;
  n.free_gpus = n.total_gpus;  // repair returns the node empty
  make_schedulable(ni);
}

}  // namespace helios::sim
