// Satellite of the churn-resilience PR: the idempotence contract of
// fail/restore (src/fault/injector.hpp).  Overlapping churn schedules
// naturally produce double-fails, double-restores and
// restore-of-healthy; all must be no-ops, and same-timestamp event
// pairs must resolve in scheduling order (event-queue FIFO tie-break).
#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "support/delivery_log.hpp"

namespace ccredf::fault {
namespace {

using sim::Duration;
using sim::TimePoint;

net::NetworkConfig cfg6() {
  net::NetworkConfig cfg;
  cfg.nodes = 6;
  return cfg;
}

TEST(InjectorIdempotence, FailReturnsTrueOnceThenFalse) {
  net::Network n(cfg6());
  EXPECT_TRUE(n.fail_node(3));
  EXPECT_TRUE(n.failed_nodes().contains(3));
  EXPECT_FALSE(n.fail_node(3));  // double-fail: no-op
  EXPECT_TRUE(n.failed_nodes().contains(3));
}

TEST(InjectorIdempotence, RestoreOfHealthyIsNoOp) {
  net::Network n(cfg6());
  EXPECT_FALSE(n.restore_node(2));
  EXPECT_FALSE(n.failed_nodes().contains(2));
}

TEST(InjectorIdempotence, DoubleRestoreIsNoOp) {
  net::Network n(cfg6());
  ASSERT_TRUE(n.fail_node(4));
  EXPECT_TRUE(n.restore_node(4));
  EXPECT_FALSE(n.restore_node(4));
  EXPECT_FALSE(n.failed_nodes().contains(4));
}

TEST(InjectorIdempotence, FailRestoreFailCyclesCleanly) {
  net::Network n(cfg6());
  EXPECT_TRUE(n.fail_node(1));
  EXPECT_TRUE(n.restore_node(1));
  EXPECT_TRUE(n.fail_node(1));
  EXPECT_TRUE(n.failed_nodes().contains(1));
  EXPECT_TRUE(n.restore_node(1));
  EXPECT_FALSE(n.failed_nodes().contains(1));
}

TEST(InjectorIdempotence, RestoreOfHealthyDoesNotDropQueuedTraffic) {
  net::Network n(cfg6());
  DeliveryLog log(n);
  n.send_best_effort(0, NodeSet::single(2), 1, Duration::milliseconds(50));
  EXPECT_FALSE(n.restore_node(0));  // must NOT clear node 0's queue
  n.run_slots(10);
  EXPECT_EQ(log.inbox(2).size(), 1u);
}

TEST(InjectorIdempotence, DoubleFailDoesNotResetState) {
  net::Network n(cfg6());
  // fail twice through the scheduler, then restore: the second fail
  // must not re-run teardown (trace/queue clearing) or flip anything.
  net::Network::OpenResult open;
  core::ConnectionParams p;
  p.source = 5;
  p.dests = NodeSet::single(1);
  p.size_slots = 1;
  p.period_slots = 50;
  open = n.open_connection(p);
  ASSERT_TRUE(open.admitted);
  FaultInjector inj(n);
  const TimePoint t1 = TimePoint::origin() + Duration::microseconds(5);
  inj.schedule_node_failure(5, t1);
  inj.schedule_node_failure(5, t1 + Duration::microseconds(1));
  n.run_slots(40);
  EXPECT_TRUE(n.failed_nodes().contains(5));
  EXPECT_TRUE(n.restore_node(5));  // one restore undoes both fails
  EXPECT_FALSE(n.failed_nodes().contains(5));
}

TEST(InjectorIdempotence, SameTimestampLastScheduledActionWins) {
  // Events at equal timestamps fire in scheduling order (event-queue
  // sequence tie-break), so the LAST action scheduled for an instant
  // decides the node's state after it.
  const TimePoint t = TimePoint::origin() + Duration::microseconds(10);
  {
    net::Network n(cfg6());
    FaultInjector inj(n);
    inj.schedule_node_failure(3, t);
    inj.schedule_node_restore(3, t);  // fail fires first, restore last
    n.run_slots(20);
    EXPECT_FALSE(n.failed_nodes().contains(3));
  }
  {
    net::Network n(cfg6());
    ASSERT_TRUE(n.fail_node(3));
    FaultInjector inj(n);
    inj.schedule_node_restore(3, t);
    inj.schedule_node_failure(3, t);  // restore fires first, fail last
    n.run_slots(20);
    EXPECT_TRUE(n.failed_nodes().contains(3));
  }
}

}  // namespace
}  // namespace ccredf::fault
