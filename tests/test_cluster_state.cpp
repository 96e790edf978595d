#include <gtest/gtest.h>

#include "sim/cluster_state.h"

namespace helios::sim {
namespace {

trace::ClusterSpec tiny_spec() {
  trace::ClusterSpec s;
  s.name = "tiny";
  s.gpus_per_node = 8;
  s.vcs = {{"vcA", 2, 8}, {"vcB", 3, 8}};
  s.nodes = 5;
  return s;
}

TEST(ClusterState, CapacityQueries) {
  ClusterState cs(tiny_spec());
  EXPECT_EQ(cs.vc_count(), 2);
  EXPECT_EQ(cs.node_count(), 5);
  EXPECT_EQ(cs.capacity_gpus(0), 16);
  EXPECT_EQ(cs.capacity_gpus(1), 24);
  EXPECT_EQ(cs.free_gpus(0), 16);
  EXPECT_TRUE(cs.can_ever_fit(0, 16));
  EXPECT_FALSE(cs.can_ever_fit(0, 17));
  EXPECT_FALSE(cs.can_ever_fit(-1, 4));
}

TEST(ClusterState, SingleNodeBestFit) {
  ClusterState cs(tiny_spec());
  // Occupy 6 GPUs on the first vcA node; a 2-GPU job should best-fit there.
  auto big = cs.try_allocate(0, 6);
  ASSERT_TRUE(big.has_value());
  auto small = cs.try_allocate(0, 2);
  ASSERT_TRUE(small.has_value());
  ASSERT_EQ(small->node_gpus.size(), 1u);
  EXPECT_EQ(small->node_gpus[0].first, big->node_gpus[0].first);
  // Next job cannot share that node any more.
  auto three = cs.try_allocate(0, 3);
  ASSERT_TRUE(three.has_value());
  EXPECT_NE(three->node_gpus[0].first, big->node_gpus[0].first);
}

TEST(ClusterState, GangNeedsWholeNodes) {
  ClusterState cs(tiny_spec());
  // 16-GPU job in vcA needs two completely free nodes.
  auto one = cs.try_allocate(0, 1);
  ASSERT_TRUE(one.has_value());
  EXPECT_FALSE(cs.try_allocate(0, 16).has_value());  // fragmented
  cs.release(*one);
  auto gang = cs.try_allocate(0, 16);
  ASSERT_TRUE(gang.has_value());
  EXPECT_EQ(gang->node_gpus.size(), 2u);
  EXPECT_EQ(gang->total(), 16);
}

TEST(ClusterState, MultiNodeWithRemainder) {
  ClusterState cs(tiny_spec());
  // 20 GPUs in vcB = 2 full nodes + 4 on a third.
  auto a = cs.try_allocate(1, 20);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->node_gpus.size(), 3u);
  EXPECT_EQ(a->total(), 20);
  EXPECT_EQ(cs.free_gpus(1), 4);
  cs.release(*a);
  EXPECT_EQ(cs.free_gpus(1), 24);
}

TEST(ClusterState, AllocationRespectsVcBoundary) {
  ClusterState cs(tiny_spec());
  // Fill vcA completely; vcB must still be fully free.
  ASSERT_TRUE(cs.try_allocate(0, 16).has_value());
  EXPECT_EQ(cs.free_gpus(0), 0);
  EXPECT_EQ(cs.free_gpus(1), 24);
  EXPECT_FALSE(cs.try_allocate(0, 1).has_value());
  EXPECT_TRUE(cs.try_allocate(1, 1).has_value());
}

TEST(ClusterState, BusyCountersTrackAllocations) {
  ClusterState cs(tiny_spec());
  EXPECT_EQ(cs.busy_nodes(), 0);
  EXPECT_EQ(cs.busy_gpus(), 0);
  auto a = cs.try_allocate(1, 20);
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
  ClusterState cs(tiny_spec());
  EXPECT_EQ(cs.sleep_idle_nodes_in_vc(0, 2), 2);
  EXPECT_EQ(cs.active_nodes(), 3);
  EXPECT_EQ(cs.sleeping_nodes(), 2);
  // vcA lost both nodes -> allocation fails even though capacity exists.
  EXPECT_EQ(cs.free_gpus(0), 0);
  EXPECT_EQ(cs.schedulable_gpus(0), 0);
  EXPECT_TRUE(cs.can_ever_fit(0, 8));
  EXPECT_FALSE(cs.try_allocate(0, 8).has_value());
  EXPECT_EQ(cs.schedulable_gpus(1), 24);  // vcB untouched
}

TEST(ClusterState, SleepSkipsBusyNodes) {
  ClusterState cs(tiny_spec());
  auto a = cs.try_allocate(0, 16);  // both vcA nodes busy
  ASSERT_TRUE(a.has_value());
  auto b = cs.try_allocate(1, 24);  // all vcB nodes busy
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(cs.sleep_idle_nodes_in_vc(0, 5), 0);  // nothing idle to sleep
  EXPECT_EQ(cs.sleep_idle_nodes_in_vc(1, 5), 0);
  cs.release(*a);
  EXPECT_EQ(cs.sleep_idle_nodes_in_vc(1, 5), 0);  // vcB is still busy
  EXPECT_EQ(cs.sleep_idle_nodes_in_vc(0, 5), 2);  // both vcA nodes
}

TEST(ClusterState, WakeAndBootLifecycle) {
  ClusterState cs(tiny_spec());
  ASSERT_EQ(cs.sleep_idle_nodes_in_vc(0, 2), 2);
  ASSERT_EQ(cs.sleep_idle_nodes_in_vc(1, 1), 1);
  EXPECT_EQ(cs.wake_nodes_in_vc(0, 2, /*now=*/1000, /*boot_delay=*/300), 2);
  // Booting nodes count as active (powered) but are not schedulable.
  EXPECT_EQ(cs.active_nodes(), 4);
  EXPECT_EQ(cs.sleeping_nodes(), 1);
  ASSERT_TRUE(cs.next_boot_ready().has_value());
  EXPECT_EQ(*cs.next_boot_ready(), 1300);
  cs.finish_boots(1299);
  EXPECT_TRUE(cs.next_boot_ready().has_value());
  cs.finish_boots(1300);
  EXPECT_FALSE(cs.next_boot_ready().has_value());
}

TEST(ClusterState, WakeNodesInVc) {
  ClusterState cs(tiny_spec());
  ASSERT_EQ(cs.sleep_idle_nodes_in_vc(0, 5), 2);  // vcA only has 2 nodes
  ASSERT_EQ(cs.sleep_idle_nodes_in_vc(1, 5), 3);
  EXPECT_EQ(cs.wake_nodes_in_vc(0, 5, 0, 300), 2);
  cs.finish_boots(300);
  EXPECT_EQ(cs.schedulable_gpus(0), 16);
  EXPECT_EQ(cs.schedulable_gpus(1), 0);
}

}  // namespace
}  // namespace helios::sim
