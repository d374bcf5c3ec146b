// End-to-end class semantics of Table 1: RT pre-empts BE pre-empts NRT
// network-wide, lower classes starve under sustained higher-class load
// and resume when it stops.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "support/delivery_log.hpp"
#include "workload/poisson.hpp"

namespace ccredf {
namespace {

using core::TrafficClass;
using net::Network;
using net::NetworkConfig;
using sim::Duration;

NetworkConfig cfg8() {
  NetworkConfig cfg;
  cfg.nodes = 8;
  return cfg;
}

TEST(ClassPrecedence, NrtStarvesUnderBeLoadAndRecovers) {
  Network n(cfg8());
  // Saturating BE burst for the first 50 slots (~800 messages, far more
  // slot demand than 50 slots can carry, so queues stay deep for a
  // while).
  workload::PoissonParams p;
  p.rate_per_node = 2.0;
  p.seed = 3;
  workload::PoissonGenerator gen(
      n, p, sim::TimePoint::origin() + n.timing().slot() * 50);
  n.send_non_realtime(0, NodeSet::single(4), 1);
  n.run_slots(40);
  // While BE saturates every node, the NRT message cannot win a slot
  // against any wanting BE node (level 1 vs levels >= 2).
  EXPECT_EQ(n.stats().cls(TrafficClass::kNonRealTime).delivered, 0);
  n.run_slots(8000);  // generation stopped at slot 50; queues drain
  EXPECT_EQ(n.stats().cls(TrafficClass::kNonRealTime).delivered, 1);
}

TEST(ClassPrecedence, BeYieldsToRtAtItsOwnNode) {
  Network n(cfg8());
  DeliveryLog log(n);
  // Queue BE first, then RT at the same node: RT must leave first even
  // though BE is older and has the earlier deadline.
  n.send_best_effort(2, NodeSet::single(5), 1, Duration::microseconds(30));
  n.send(2, NodeSet::single(6), TrafficClass::kRealTime, 1,
         Duration::milliseconds(5));
  n.run_slots(6);
  ASSERT_EQ(log.inbox(5).size(), 1u);
  ASSERT_EQ(log.inbox(6).size(), 1u);
  EXPECT_LT(log.inbox(6)[0].completed, log.inbox(5)[0].completed);
}

TEST(ClassPrecedence, RtFromOneNodeBeatsBeFromAll) {
  Network n(cfg8());
  for (NodeId s = 0; s < 8; ++s) {
    if (s == 3) continue;
    n.send_best_effort(s, NodeSet::single((s + 1) % 8), 1,
                       Duration::microseconds(20));  // very urgent BE
  }
  n.send(3, NodeSet::single(7), TrafficClass::kRealTime, 1,
         Duration::milliseconds(50));  // relaxed RT
  std::vector<NodeId> masters;
  n.add_slot_observer([&](const net::SlotRecord& rec) {
    masters.push_back(rec.master);
  });
  n.run_slots(3);
  // First arbitration elects the RT sender despite its loose deadline.
  ASSERT_GE(masters.size(), 2u);
  EXPECT_EQ(masters[1], 3u);
}

TEST(ClassPrecedence, SpatialReuseLetsBeRideAlongsideRt) {
  // Paper §3: "a best effort message uses the spatially reused capacity
  // and may be transmitted simultaneously as a logical real-time
  // connection message".
  Network n(cfg8());
  DeliveryLog log(n);
  n.send(0, NodeSet::single(2), TrafficClass::kRealTime, 1,
         Duration::milliseconds(1));                        // links 0,1
  n.send_best_effort(4, NodeSet::single(6), 1,
                     Duration::milliseconds(1));            // links 4,5
  std::int64_t shared_slots = 0;
  n.add_slot_observer([&](const net::SlotRecord& rec) {
    if (rec.granted.contains(0) && rec.granted.contains(4)) ++shared_slots;
  });
  n.run_slots(5);
  EXPECT_EQ(shared_slots, 1);
  EXPECT_EQ(log.inbox(2).size(), 1u);
  EXPECT_EQ(log.inbox(6).size(), 1u);
}

TEST(ClassPrecedence, NodeRequestsBeOnlyWithNoRtQueued) {
  // Observe the wire: while an RT message is queued at a node, its
  // requests carry RT-band priorities; once it drains, BE-band.
  Network n(cfg8());
  n.send(1, NodeSet::single(3), TrafficClass::kRealTime, 3,
         Duration::milliseconds(1));
  n.send_best_effort(1, NodeSet::single(5), 2, Duration::milliseconds(2));
  const core::PriorityLayout layout;
  bool saw_rt = false, saw_be = false, violation = false;
  n.add_slot_observer([&](const net::SlotRecord& rec) {
    const auto& rq = rec.requests[1];
    if (!rq.wants_slot()) return;
    const bool rt_band = rq.priority >= layout.real_time_lo();
    const bool rt_queued =
        n.node(1).queues().size_of(TrafficClass::kRealTime) > 0;
    if (rt_band) saw_rt = true;
    if (!rt_band) saw_be = true;
    if (rt_queued && !rt_band) violation = true;
  });
  n.run_slots(15);
  EXPECT_TRUE(saw_rt);
  EXPECT_TRUE(saw_be);
  EXPECT_FALSE(violation);
}

}  // namespace
}  // namespace ccredf
