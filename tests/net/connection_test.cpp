#include <gtest/gtest.h>

#include "common/error.hpp"
#include "net/network.hpp"
#include "support/delivery_log.hpp"

namespace ccredf::net {
namespace {

using core::ConnectionParams;
using core::TrafficClass;
using sim::Duration;

NetworkConfig cfg8() {
  NetworkConfig cfg;
  cfg.nodes = 8;
  return cfg;
}

ConnectionParams conn(NodeId src, NodeId dst, std::int64_t e,
                      std::int64_t p, std::int64_t offset = 0) {
  ConnectionParams c;
  c.source = src;
  c.dests = NodeSet::single(dst);
  c.size_slots = e;
  c.period_slots = p;
  c.offset_slots = offset;
  return c;
}

TEST(Connection, AdmittedAndReleasesPeriodically) {
  Network n(cfg8());
  const auto r = n.open_connection(conn(0, 3, 1, 10));
  ASSERT_TRUE(r.admitted);
  n.run_slots(55);
  // ~55 slots of wall time / period 10 slots => about 5 releases.
  const auto delivered = n.stats().cls(TrafficClass::kRealTime).delivered;
  EXPECT_GE(delivered, 4);
  EXPECT_LE(delivered, 6);
}

TEST(Connection, AdmittedTrafficMeetsUserDeadlines) {
  Network n(cfg8());
  // Three connections totalling well under U_max.
  ASSERT_TRUE(n.open_connection(conn(0, 3, 1, 20)).admitted);
  ASSERT_TRUE(n.open_connection(conn(2, 5, 2, 40, 7)).admitted);
  ASSERT_TRUE(n.open_connection(conn(6, 1, 1, 16, 3)).admitted);
  n.run_slots(2000);
  const auto& rt = n.stats().cls(TrafficClass::kRealTime);
  EXPECT_GT(rt.delivered, 100);
  EXPECT_EQ(rt.user_misses, 0);
}

TEST(Connection, RejectionBeyondUmax) {
  Network n(cfg8());
  const double u_max = n.admission().u_max();
  // One connection eating ~90% of the bound.
  const auto p = static_cast<std::int64_t>(10.0 / (0.9 * u_max));
  ASSERT_TRUE(n.open_connection(conn(0, 3, 10, p)).admitted);
  // A second one at 20% must be rejected.
  const auto q = static_cast<std::int64_t>(10.0 / (0.2 * u_max));
  const auto r = n.open_connection(conn(4, 6, 10, q));
  EXPECT_FALSE(r.admitted);
  EXPECT_EQ(r.id, kNoConnection);
}

TEST(Connection, CloseStopsReleases) {
  Network n(cfg8());
  const auto r = n.open_connection(conn(0, 3, 1, 10));
  ASSERT_TRUE(r.admitted);
  n.run_slots(25);
  const auto before = n.stats().cls(TrafficClass::kRealTime).delivered;
  EXPECT_GT(before, 0);
  EXPECT_TRUE(n.close_connection(r.id));
  n.run_slots(50);
  const auto after = n.stats().cls(TrafficClass::kRealTime).delivered;
  // At most one in-flight message completes after the close.
  EXPECT_LE(after - before, 1);
}

TEST(Connection, CloseFreesAdmissionBudget) {
  Network n(cfg8());
  const double u_max = n.admission().u_max();
  const auto p = static_cast<std::int64_t>(10.0 / (0.9 * u_max));
  const auto r1 = n.open_connection(conn(0, 3, 10, p));
  ASSERT_TRUE(r1.admitted);
  EXPECT_FALSE(n.open_connection(conn(4, 6, 10, p)).admitted);
  EXPECT_TRUE(n.close_connection(r1.id));
  EXPECT_TRUE(n.open_connection(conn(4, 6, 10, p)).admitted);
}

TEST(Connection, CloseTwiceFails) {
  Network n(cfg8());
  const auto r = n.open_connection(conn(0, 3, 1, 10));
  ASSERT_TRUE(r.admitted);
  EXPECT_TRUE(n.close_connection(r.id));
  EXPECT_FALSE(n.close_connection(r.id));
  EXPECT_FALSE(n.close_connection(999));
}

TEST(Connection, OffsetDelaysFirstRelease) {
  Network n(cfg8());
  ASSERT_TRUE(n.open_connection(conn(0, 3, 1, 200, /*offset=*/100)).admitted);
  n.run_slots(50);
  EXPECT_EQ(n.stats().cls(TrafficClass::kRealTime).delivered, 0);
  n.run_slots(100);
  EXPECT_EQ(n.stats().cls(TrafficClass::kRealTime).delivered, 1);
}

TEST(Connection, MulticastConnection) {
  Network n(cfg8());
  DeliveryLog log(n);
  ConnectionParams c;
  c.source = 1;
  c.dests.insert(3);
  c.dests.insert(5);
  c.size_slots = 1;
  c.period_slots = 20;
  ASSERT_TRUE(n.open_connection(c).admitted);
  n.run_slots(30);
  EXPECT_GE(log.inbox(3).size(), 1u);
  EXPECT_GE(log.inbox(5).size(), 1u);
}

TEST(Connection, ReleasesArriveInOrder) {
  Network n(cfg8());
  DeliveryLog log(n);
  const auto r = n.open_connection(conn(0, 3, 1, 8));
  ASSERT_TRUE(r.admitted);
  n.run_slots(200);
  const auto& inbox = log.inbox(3);
  ASSERT_GT(inbox.size(), 5u);
  for (std::size_t i = 1; i < inbox.size(); ++i) {
    EXPECT_LE(inbox[i - 1].completed, inbox[i].completed);
    EXPECT_LE(inbox[i - 1].arrival, inbox[i].arrival);
  }
}

TEST(Connection, SourceMustDiffer) {
  Network n(cfg8());
  EXPECT_THROW((void)n.open_connection(conn(3, 3, 1, 10)), ConfigError);
}

TEST(Connection, FullLoadSaturatesNearUmax) {
  // At exactly-admissible full load the RT class keeps every user-level
  // deadline (the paper's guarantee) while utilisation approaches U_max.
  Network n(cfg8());
  const double u_max = n.admission().u_max();
  // Four connections each ~ u_max/5, e = 2.
  const auto period = static_cast<std::int64_t>(2.0 * 5.0 / u_max) + 1;
  int admitted = 0;
  for (NodeId i = 0; i < 4; ++i) {
    if (n.open_connection(conn(i, (i + 4) % 8, 2,
                               period, 3 * i)).admitted) {
      ++admitted;
    }
  }
  ASSERT_EQ(admitted, 4);
  n.run_slots(3000);
  const auto& rt = n.stats().cls(TrafficClass::kRealTime);
  EXPECT_GT(rt.delivered, 500);
  EXPECT_EQ(rt.user_misses, 0);
}

}  // namespace
}  // namespace ccredf::net
