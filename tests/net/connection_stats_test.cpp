#include <gtest/gtest.h>

#include "net/network.hpp"

namespace ccredf::net {
namespace {

using core::ConnectionParams;

NetworkConfig cfg8() {
  NetworkConfig cfg;
  cfg.nodes = 8;
  return cfg;
}

ConnectionParams conn(NodeId src, NodeId dst, std::int64_t e,
                      std::int64_t p) {
  ConnectionParams c;
  c.source = src;
  c.dests = NodeSet::single(dst);
  c.size_slots = e;
  c.period_slots = p;
  return c;
}

TEST(ConnectionStats, TracksReleasesAndDeliveries) {
  Network n(cfg8());
  const auto r = n.open_connection(conn(0, 3, 1, 10));
  ASSERT_TRUE(r.admitted);
  n.run_slots(105);
  const auto& cs = n.connection_stats(r.id);
  EXPECT_GE(cs.released, 10);
  EXPECT_LE(cs.released, 12);
  // All but possibly the last in-flight release delivered.
  EXPECT_GE(cs.delivered, cs.released - 2);
  EXPECT_EQ(cs.user_misses, 0);
  EXPECT_GT(cs.latency.mean(), 0.0);
}

TEST(ConnectionStats, SeparatePerConnection) {
  Network n(cfg8());
  const auto a = n.open_connection(conn(0, 3, 1, 10));
  const auto b = n.open_connection(conn(4, 6, 1, 50));
  ASSERT_TRUE(a.admitted);
  ASSERT_TRUE(b.admitted);
  n.run_slots(200);
  EXPECT_GT(n.connection_stats(a.id).delivered,
            n.connection_stats(b.id).delivered);
}

TEST(ConnectionStats, SumsToClassTotals) {
  Network n(cfg8());
  const auto a = n.open_connection(conn(0, 3, 1, 12));
  const auto b = n.open_connection(conn(2, 5, 2, 30));
  ASSERT_TRUE(a.admitted && b.admitted);
  n.run_slots(500);
  const auto total = n.stats().cls(core::TrafficClass::kRealTime).delivered;
  EXPECT_EQ(n.connection_stats(a.id).delivered +
                n.connection_stats(b.id).delivered,
            total);
}

TEST(ConnectionStats, UnknownConnectionIsEmpty) {
  Network n(cfg8());
  const auto& cs = n.connection_stats(999);
  EXPECT_EQ(cs.released, 0);
  EXPECT_EQ(cs.delivered, 0);
}

TEST(ConnectionStats, ReadingAnUnknownIdLeavesStatsUnchanged) {
  Network n(cfg8());
  const auto r = n.open_connection(conn(0, 3, 1, 10));
  ASSERT_TRUE(r.admitted);
  n.run_slots(55);
  const std::size_t records = n.stats().per_connection.size();
  ASSERT_EQ(records, 1u);
  EXPECT_EQ(n.connection_stats(r.id + 1).released, 0);
  EXPECT_EQ(n.stats().per_connection.size(), records);
  n.run_slots(55);
  EXPECT_EQ(n.stats().per_connection.size(), records);
}

TEST(ConnectionStats, SurvivesClose) {
  Network n(cfg8());
  const auto r = n.open_connection(conn(0, 3, 1, 10));
  ASSERT_TRUE(r.admitted);
  n.run_slots(55);
  n.close_connection(r.id);
  const auto delivered = n.connection_stats(r.id).delivered;
  EXPECT_GT(delivered, 0);
  n.run_slots(100);
  // History retained; no further releases counted.
  EXPECT_LE(n.connection_stats(r.id).released,
            delivered + 2);
}

}  // namespace
}  // namespace ccredf::net
