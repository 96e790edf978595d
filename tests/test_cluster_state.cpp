#include <gtest/gtest.h>

#include "sim/cluster_state.h"

namespace helios::sim {
namespace {

const trace::VCSpec kVcA{"vcA", 2, 8};
const trace::VCSpec kVcB{"vcB", 3, 8};

TEST(ClusterState, CapacityQueries) {
  ClusterState cs(kVcA);
  EXPECT_EQ(cs.node_count(), 2);
  EXPECT_EQ(cs.capacity_gpus(), 16);
  EXPECT_EQ(cs.free_gpus(), 16);
  EXPECT_EQ(ClusterState(kVcB).capacity_gpus(), 24);
  EXPECT_TRUE(cs.can_ever_fit(16));
  EXPECT_FALSE(cs.can_ever_fit(17));
  EXPECT_FALSE(cs.can_ever_fit(0));
}

TEST(ClusterState, EmptyVcHostsNothing) {
  ClusterState cs(trace::VCSpec{"empty", 0, 8});
  EXPECT_EQ(cs.node_count(), 0);
  EXPECT_FALSE(cs.can_ever_fit(1));
  EXPECT_FALSE(cs.try_allocate(1).has_value());
  EXPECT_EQ(cs.idle_active_nodes(), 0);
  EXPECT_EQ(cs.sleep_idle_nodes(3), 0);
}

TEST(ClusterState, SingleNodeBestFit) {
  ClusterState cs(kVcA);
  // Occupy 6 GPUs on the first node; a 2-GPU job should best-fit there.
  auto big = cs.try_allocate(6);
  ASSERT_TRUE(big.has_value());
  auto small = cs.try_allocate(2);
  ASSERT_TRUE(small.has_value());
  ASSERT_EQ(small->node_gpus.size(), 1u);
  EXPECT_EQ(small->node_gpus[0].first, big->node_gpus[0].first);
  // Next job cannot share that node any more.
  auto three = cs.try_allocate(3);
  ASSERT_TRUE(three.has_value());
  EXPECT_NE(three->node_gpus[0].first, big->node_gpus[0].first);
}

TEST(ClusterState, GangNeedsWholeNodes) {
  ClusterState cs(kVcA);
  // A 16-GPU job needs two completely free nodes.
  auto one = cs.try_allocate(1);
  ASSERT_TRUE(one.has_value());
  EXPECT_FALSE(cs.try_allocate(16).has_value());  // fragmented
  cs.release(*one);
  auto gang = cs.try_allocate(16);
  ASSERT_TRUE(gang.has_value());
  EXPECT_EQ(gang->node_gpus.size(), 2u);
  EXPECT_EQ(gang->total(), 16);
  EXPECT_FALSE(cs.try_allocate(1).has_value());  // full
}

TEST(ClusterState, MultiNodeWithRemainder) {
  ClusterState cs(kVcB);
  // 20 GPUs = 2 full nodes + 4 on a third.
  auto a = cs.try_allocate(20);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->node_gpus.size(), 3u);
  EXPECT_EQ(a->total(), 20);
  EXPECT_EQ(cs.free_gpus(), 4);
  cs.release(*a);
  EXPECT_EQ(cs.free_gpus(), 24);
}

TEST(ClusterState, BusyCountersTrackAllocations) {
  ClusterState cs(kVcB);
  EXPECT_EQ(cs.busy_nodes(), 0);
  EXPECT_EQ(cs.busy_gpus(), 0);
  auto a = cs.try_allocate(20);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(cs.busy_nodes(), 3);
  EXPECT_EQ(cs.busy_gpus(), 20);
  cs.release(*a);
  EXPECT_EQ(cs.busy_nodes(), 0);
  EXPECT_EQ(cs.busy_gpus(), 0);
  cs.reclaim(*a);
  EXPECT_EQ(cs.busy_gpus(), 20);
  cs.release(*a);
}

TEST(ClusterState, SleepingNodesAreUnschedulable) {
  ClusterState cs(kVcA);
  EXPECT_EQ(cs.sleep_idle_nodes(2), 2);
  EXPECT_EQ(cs.active_nodes(), 0);
  EXPECT_EQ(cs.sleeping_nodes(), 2);
  // Both nodes asleep -> allocation fails even though capacity exists.
  EXPECT_EQ(cs.free_gpus(), 0);
  EXPECT_EQ(cs.schedulable_gpus(), 0);
  EXPECT_TRUE(cs.can_ever_fit(8));
  EXPECT_FALSE(cs.try_allocate(8).has_value());
}

TEST(ClusterState, SleepSkipsBusyNodes) {
  ClusterState cs(kVcB);
  auto a = cs.try_allocate(8);  // node 0 busy
  ASSERT_TRUE(a.has_value());
  auto b = cs.try_allocate(12);  // node 1 full, node 2 half busy
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(cs.idle_active_nodes(), 0);
  EXPECT_EQ(cs.sleep_idle_nodes(5), 0);  // nothing idle to sleep
  cs.release(*b);
  EXPECT_EQ(cs.idle_active_nodes(), 2);
  EXPECT_EQ(cs.sleep_idle_nodes(5), 2);  // nodes 1 and 2
  EXPECT_EQ(cs.node(0).power, PowerState::kActive);
  EXPECT_EQ(cs.node(1).power, PowerState::kSleeping);
  EXPECT_EQ(cs.node(2).power, PowerState::kSleeping);
}

TEST(ClusterState, WakeAndBootLifecycle) {
  ClusterState cs(kVcB);
  ASSERT_EQ(cs.sleep_idle_nodes(3), 3);
  EXPECT_EQ(cs.wake_nodes(2, /*now=*/1000, /*boot_delay=*/300), 2);
  // Booting nodes count as active (powered) but are not schedulable.
  EXPECT_EQ(cs.active_nodes(), 2);
  EXPECT_EQ(cs.booting_nodes(), 2);
  EXPECT_EQ(cs.sleeping_nodes(), 1);
  EXPECT_EQ(cs.schedulable_gpus(), 0);
  ASSERT_TRUE(cs.next_boot_ready().has_value());
  EXPECT_EQ(*cs.next_boot_ready(), 1300);
  cs.finish_boots(1299);
  EXPECT_TRUE(cs.next_boot_ready().has_value());
  cs.finish_boots(1300);
  EXPECT_FALSE(cs.next_boot_ready().has_value());
  EXPECT_EQ(cs.booting_nodes(), 0);
  EXPECT_EQ(cs.schedulable_gpus(), 16);
}

TEST(ClusterState, WakeStopsAtSleepingNodes) {
  ClusterState cs(kVcA);
  ASSERT_EQ(cs.sleep_idle_nodes(5), 2);  // only 2 nodes
  EXPECT_EQ(cs.wake_nodes(5, 0, 300), 2);
  EXPECT_EQ(cs.wake_nodes(5, 0, 300), 0);
  cs.finish_boots(300);
  EXPECT_EQ(cs.schedulable_gpus(), 16);
}

}  // namespace
}  // namespace helios::sim
