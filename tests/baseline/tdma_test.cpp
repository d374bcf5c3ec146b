#include "baseline/tdma.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "support/delivery_log.hpp"

namespace ccredf::baseline {
namespace {

using core::TrafficClass;
using sim::Duration;

net::NetworkConfig tdma_config(NodeId nodes = 4) {
  net::NetworkConfig cfg;
  cfg.nodes = nodes;
  cfg.protocol_factory = tdma_factory();
  return cfg;
}

TEST(Tdma, OwnershipRotates) {
  net::Network n(tdma_config());
  EXPECT_STREQ(n.protocol().name(), "TDMA");
  std::vector<NodeId> masters;
  n.add_slot_observer([&](const net::SlotRecord& rec) {
    masters.push_back(rec.master);
  });
  n.run_slots(8);
  for (std::size_t i = 1; i < masters.size(); ++i) {
    EXPECT_EQ(masters[i], static_cast<NodeId>(i % 4));
  }
}

TEST(Tdma, OnlyOwnerTransmits) {
  net::Network n(tdma_config());
  DeliveryLog log(n);
  // Node 2 has a message; it can only use slots owned by node 2.
  n.send_best_effort(2, NodeSet::single(3), 1, Duration::milliseconds(1));
  std::vector<net::SlotRecord> recs;
  n.add_slot_observer([&](const net::SlotRecord& rec) {
    recs.push_back(rec);
  });
  n.run_slots(10);
  for (const auto& rec : recs) {
    for (const NodeId g : rec.granted) EXPECT_EQ(g, rec.master);
  }
  EXPECT_EQ(log.inbox(3).size(), 1u);
}

TEST(Tdma, AccessDelayUpToNSlots) {
  // A message arriving just after the owner's slot waits ~N slots.
  net::Network n(tdma_config(8));
  DeliveryLog log(n);
  n.send_best_effort(0, NodeSet::single(1), 1, Duration::milliseconds(10));
  n.run_slots(20);
  ASSERT_EQ(log.inbox(1).size(), 1u);
  // Owner 0 gets slots 0, 8, 16...; collection for slot 8 happens in slot
  // 7, so delivery lands in slot 8 at the earliest.
  const auto lat = log.inbox(1)[0].latency();
  EXPECT_GE(lat, n.timing().slot() * 7);
}

TEST(Tdma, NoSpatialReuse) {
  net::Network n(tdma_config(8));
  DeliveryLog log(n);
  n.send_best_effort(0, NodeSet::single(1), 1, Duration::milliseconds(5));
  n.send_best_effort(4, NodeSet::single(5), 1, Duration::milliseconds(5));
  n.run_slots(20);
  EXPECT_EQ(n.stats().reuse_slots, 0);
  EXPECT_EQ(log.inbox(1).size(), 1u);
  EXPECT_EQ(log.inbox(5).size(), 1u);
}

TEST(Tdma, IdleOwnersWasteSlots) {
  net::Network n(tdma_config(4));
  DeliveryLog log(n);
  n.send_best_effort(1, NodeSet::single(2), 3, Duration::milliseconds(10));
  n.run_slots(16);
  // Node 1 owns every 4th slot; 3 slots of data need ~12 slots wall time.
  EXPECT_EQ(log.inbox(2).size(), 1u);
  EXPECT_LE(n.stats().busy_slots, 4);
}

}  // namespace
}  // namespace ccredf::baseline
