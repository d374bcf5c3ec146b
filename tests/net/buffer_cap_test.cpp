#include <gtest/gtest.h>

#include "net/network.hpp"
#include "support/delivery_log.hpp"
#include "workload/poisson.hpp"

namespace ccredf::net {
namespace {

using core::TrafficClass;
using sim::Duration;

NetworkConfig capped(std::size_t cap) {
  NetworkConfig cfg;
  cfg.nodes = 6;
  cfg.max_queue_messages = cap;
  return cfg;
}

TEST(BufferCap, UnlimitedByDefault) {
  NetworkConfig cfg;
  cfg.nodes = 6;
  Network n(cfg);
  for (int i = 0; i < 500; ++i) {
    n.send_best_effort(0, NodeSet::single(1), 1, Duration::seconds(1));
  }
  EXPECT_EQ(n.stats().buffer_drops, 0);
  EXPECT_EQ(n.node(0).queues().size(), 500u);
}

TEST(BufferCap, TailDropsBestEffortBeyondCap) {
  Network n(capped(10));
  for (int i = 0; i < 25; ++i) {
    n.send_best_effort(0, NodeSet::single(1), 1, Duration::seconds(1));
  }
  EXPECT_EQ(n.node(0).queues().size(), 10u);
  EXPECT_EQ(n.stats().buffer_drops, 15);
}

TEST(BufferCap, NonRealTimeAlsoDropped) {
  Network n(capped(5));
  for (int i = 0; i < 8; ++i) {
    n.send_non_realtime(2, NodeSet::single(3), 1);
  }
  EXPECT_EQ(n.stats().buffer_drops, 3);
}

TEST(BufferCap, RealTimeNeverDropped) {
  Network n(capped(3));
  // Fill the buffer with BE, then release RT on top: RT must enter.
  for (int i = 0; i < 3; ++i) {
    n.send_best_effort(0, NodeSet::single(1), 1, Duration::seconds(1));
  }
  core::ConnectionParams c;
  c.source = 0;
  c.dests = NodeSet::single(4);
  c.size_slots = 1;
  c.period_slots = 10;
  ASSERT_TRUE(n.open_connection(c).admitted);
  n.run_slots(40);
  EXPECT_GT(n.stats().cls(TrafficClass::kRealTime).delivered, 0);
}

TEST(BufferCap, DroppedMessagesNeverDeliver) {
  Network n(capped(4));
  DeliveryLog log(n);
  for (int i = 0; i < 20; ++i) {
    n.send_best_effort(0, NodeSet::single(1), 1, Duration::seconds(1));
  }
  n.run_slots(60);
  // Only the 4 buffered messages arrive.
  EXPECT_EQ(log.inbox(1).size(), 4u);
}

TEST(BufferCap, CapsBacklogUnderOverload) {
  Network n(capped(8));
  workload::PoissonParams p;
  p.rate_per_node = 3.0;  // heavy overload
  p.seed = 6;
  workload::PoissonGenerator gen(
      n, p, sim::TimePoint::origin() + n.timing().slot() * 400);
  n.run_slots(500);
  for (NodeId i = 0; i < 6; ++i) {
    EXPECT_LE(n.node(i).queues().size(), 8u);
  }
  EXPECT_GT(n.stats().buffer_drops, 0);
}

}  // namespace
}  // namespace ccredf::net
