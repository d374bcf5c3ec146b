#include "net/network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "support/delivery_log.hpp"

namespace ccredf::net {
namespace {

using core::TrafficClass;
using sim::Duration;

NetworkConfig small_config(NodeId nodes = 6) {
  NetworkConfig cfg;
  cfg.nodes = nodes;
  return cfg;
}

TEST(Network, ConstructionDerivesTiming) {
  Network n(small_config());
  EXPECT_EQ(n.nodes(), 6u);
  EXPECT_GE(n.timing().payload_bytes(),
            core::SlotTiming::min_payload_bytes(n.phy()));
  EXPECT_GT(n.timing().u_max(), 0.0);
  EXPECT_LT(n.timing().u_max(), 1.0);
  EXPECT_STREQ(n.protocol().name(), "CCR-EDF");
}

TEST(Network, RejectsBadConfigs) {
  NetworkConfig cfg;
  cfg.nodes = 1;
  EXPECT_THROW(Network{cfg}, ConfigError);
  cfg = small_config();
  cfg.designated_restarter = 99;
  EXPECT_THROW(Network{cfg}, ConfigError);
  cfg = small_config();
  cfg.link_lengths_m = {10.0, 10.0};  // wrong count for 6 nodes
  EXPECT_THROW(Network{cfg}, ConfigError);
}

TEST(Network, IdleRingAdvancesTime) {
  Network n(small_config());
  n.run_slots(10);
  EXPECT_EQ(n.stats().slots, 10);
  EXPECT_EQ(n.stats().busy_slots, 0);
  EXPECT_GT(n.sim().now(), sim::TimePoint::origin());
  // Master never moves without requests.
  EXPECT_EQ(n.current_master(), 0u);
}

TEST(Network, SingleMessageDelivered) {
  Network n(small_config());
  DeliveryLog log(n);
  n.send_best_effort(0, NodeSet::single(2), 1, Duration::milliseconds(1));
  n.run_slots(5);
  ASSERT_EQ(log.inbox(2).size(), 1u);
  const auto& d = log.inbox(2)[0];
  EXPECT_EQ(d.source, 0u);
  EXPECT_TRUE(d.met_deadline());
  EXPECT_EQ(n.stats().cls(TrafficClass::kBestEffort).delivered, 1);
}

TEST(Network, DeliveryLatencyWithinPipelineBound) {
  // A message on an idle ring is sampled in the current slot, granted for
  // the next, delivered at its end: latency <= 2 slots + gaps + prop.
  Network n(small_config());
  DeliveryLog log(n);
  n.send_best_effort(0, NodeSet::single(3), 1, Duration::milliseconds(10));
  n.run_slots(5);
  ASSERT_EQ(log.inbox(3).size(), 1u);
  const auto lat = log.inbox(3)[0].latency();
  EXPECT_LE(lat, n.timing().worst_case_latency() + n.phy().ring_delay());
}

TEST(Network, SenderBecomesMaster) {
  Network n(small_config());
  n.send_best_effort(4, NodeSet::single(1), 1, Duration::milliseconds(1));
  std::vector<NodeId> masters;
  n.add_slot_observer([&](const SlotRecord& rec) {
    masters.push_back(rec.master);
  });
  n.run_slots(3);
  // Slot 0 collects the request, slot 1 is mastered by the sender.
  ASSERT_GE(masters.size(), 2u);
  EXPECT_EQ(masters[1], 4u);
}

TEST(Network, MultiSlotMessageUsesMultipleSlots) {
  Network n(small_config());
  DeliveryLog log(n);
  n.send_best_effort(0, NodeSet::single(2), 4, Duration::milliseconds(10));
  n.run_slots(10);
  ASSERT_EQ(log.inbox(2).size(), 1u);
  EXPECT_EQ(log.inbox(2)[0].size_slots, 4);
  EXPECT_EQ(n.stats().total_grants, 4);
  EXPECT_EQ(n.stats().busy_slots, 4);
}

TEST(Network, MulticastReachesAllDestinations) {
  Network n(small_config());
  DeliveryLog log(n);
  NodeSet dests;
  dests.insert(2);
  dests.insert(4);
  n.send(1, dests, TrafficClass::kBestEffort, 1, Duration::milliseconds(1));
  n.run_slots(5);
  EXPECT_EQ(log.inbox(2).size(), 1u);
  EXPECT_EQ(log.inbox(4).size(), 1u);
  EXPECT_EQ(log.inbox(3).size(), 0u);  // passed through, not a dest
}

TEST(Network, DeliveryNamesItsReceivers) {
  // A failed destination receives nothing; the transfer still completes
  // once, for the destinations that are up.
  Network n(small_config());
  std::vector<core::Delivery> deliveries;
  n.add_slot_observer([&deliveries](const SlotRecord& rec) {
    deliveries.insert(deliveries.end(), rec.deliveries.begin(),
                      rec.deliveries.end());
  });
  NodeSet dests;
  dests.insert(2);
  dests.insert(4);
  ASSERT_TRUE(n.fail_node(4));
  n.send(0, dests, TrafficClass::kBestEffort, 1, Duration::milliseconds(1));
  n.run_slots(5);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].dests.mask(), dests.mask());
  EXPECT_EQ(deliveries[0].receivers.mask(), NodeSet::single(2).mask());
  EXPECT_EQ(n.stats().cls(TrafficClass::kBestEffort).delivered, 1);

  ASSERT_TRUE(n.restore_node(4));
  n.send(0, dests, TrafficClass::kBestEffort, 1, Duration::milliseconds(1));
  n.run_slots(5);
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[1].receivers.mask(), dests.mask());
  EXPECT_EQ(n.stats().cls(TrafficClass::kBestEffort).delivered, 2);
}

TEST(Network, BroadcastReachesEveryoneButSource) {
  Network n(small_config());
  DeliveryLog log(n);
  n.send(2, n.broadcast_dests(2), TrafficClass::kBestEffort, 1,
         Duration::milliseconds(1));
  n.run_slots(5);
  for (NodeId i = 0; i < n.nodes(); ++i) {
    EXPECT_EQ(log.inbox(i).size(), i == 2 ? 0u : 1u) << "node " << i;
  }
}

TEST(Network, NonRealTimeEventuallyDelivered) {
  Network n(small_config());
  DeliveryLog log(n);
  n.send_non_realtime(0, NodeSet::single(5), 2);
  n.run_slots(8);
  ASSERT_EQ(log.inbox(5).size(), 1u);
  EXPECT_TRUE(log.inbox(5)[0].met_deadline());  // infinite deadline
}

TEST(Network, RtOutranksBestEffortAcrossNodes) {
  Network n(small_config());
  // BE at node 1, RT at node 3, both queued before any arbitration.
  n.send_best_effort(1, NodeSet::single(2), 1, Duration::milliseconds(1));
  n.send(3, NodeSet::single(4), TrafficClass::kRealTime, 1,
         Duration::milliseconds(1));
  std::vector<NodeId> masters;
  n.add_slot_observer([&](const SlotRecord& rec) {
    masters.push_back(rec.master);
  });
  n.run_slots(4);
  // First arbitration must elect the RT sender (node 3), not the BE one.
  ASSERT_GE(masters.size(), 2u);
  EXPECT_EQ(masters[1], 3u);
}

TEST(Network, NoPriorityInversionEver) {
  // The paper's central claim (§2): with CCR-EDF the globally most urgent
  // request is always granted.
  NetworkConfig cfg = small_config(8);
  Network n(cfg);
  for (int burst = 0; burst < 20; ++burst) {
    for (NodeId src = 0; src < 8; ++src) {
      n.send_best_effort(src, NodeSet::single((src + 3) % 8), 2,
                         Duration::microseconds(200 + 50 * src));
    }
    n.run_slots(10);
  }
  EXPECT_EQ(n.stats().priority_inversions, 0);
  EXPECT_GT(n.stats().total_grants, 0);
}

TEST(Network, SpatialReuseCarriesMultipleMessages) {
  Network n(small_config(8));
  DeliveryLog log(n);
  // Two disjoint short segments: 0->1 and 4->5.
  n.send_best_effort(0, NodeSet::single(1), 1, Duration::milliseconds(1));
  n.send_best_effort(4, NodeSet::single(5), 1, Duration::milliseconds(1));
  n.run_slots(4);
  EXPECT_EQ(log.inbox(1).size(), 1u);
  EXPECT_EQ(log.inbox(5).size(), 1u);
  EXPECT_GE(n.stats().reuse_slots, 1);
}

TEST(Network, SpatialReuseDisabledSerialises) {
  NetworkConfig cfg = small_config(8);
  cfg.spatial_reuse = false;
  Network n(cfg);
  DeliveryLog log(n);
  n.send_best_effort(0, NodeSet::single(1), 1, Duration::milliseconds(1));
  n.send_best_effort(4, NodeSet::single(5), 1, Duration::milliseconds(1));
  n.run_slots(6);
  EXPECT_EQ(n.stats().reuse_slots, 0);
  EXPECT_EQ(log.inbox(1).size(), 1u);
  EXPECT_EQ(log.inbox(5).size(), 1u);
}

TEST(Network, GapReflectsHandoverDistance) {
  Network n(small_config(8));
  std::vector<Duration> gaps;
  std::vector<NodeId> hops;
  n.add_slot_observer([&](const SlotRecord& rec) {
    gaps.push_back(rec.gap_after);
    hops.push_back(n.topology().hops(rec.master, rec.next_master));
  });
  n.send_best_effort(5, NodeSet::single(6), 1, Duration::milliseconds(1));
  n.run_slots(3);
  // Slot 0: master 0 -> next master 5 (5 hops); link 10 m => 50 ns/hop,
  // plus 2 stop bits at 2.5 ns.
  ASSERT_GE(gaps.size(), 1u);
  EXPECT_EQ(hops[0], 5u);
  EXPECT_EQ(gaps[0], Duration::nanoseconds(5 * 50 + 5));
}

TEST(Network, RunForAdvancesWallClock) {
  Network n(small_config());
  n.run_for(Duration::microseconds(100));
  EXPECT_GE(n.sim().now(), sim::TimePoint::origin() +
                               Duration::microseconds(100) -
                               n.timing().slot_plus_max_gap());
  EXPECT_GT(n.stats().slots, 0);
}

TEST(Network, StatsTimeAccountingConsistent) {
  Network n(small_config());
  n.send_best_effort(0, NodeSet::single(3), 5, Duration::milliseconds(10));
  n.run_slots(20);
  const auto& s = n.stats();
  EXPECT_EQ(s.time_in_slots, n.timing().slot() * s.slots);
  EXPECT_GT(s.slot_time_fraction(), 0.0);
  EXPECT_LE(s.slot_time_fraction(), 1.0);
}

TEST(Network, SendValidatesArguments) {
  Network n(small_config());
  EXPECT_THROW(n.send_best_effort(0, NodeSet::single(0), 1,
                                  Duration::milliseconds(1)),
               ConfigError);
  EXPECT_THROW(n.send_best_effort(0, NodeSet{}, 1, Duration::milliseconds(1)),
               ConfigError);
  EXPECT_THROW(n.send_best_effort(9, NodeSet::single(1), 1,
                                  Duration::milliseconds(1)),
               ConfigError);
  EXPECT_THROW(n.send_best_effort(0, NodeSet::single(1), 0,
                                  Duration::milliseconds(1)),
               ConfigError);
}

TEST(Network, DestinationsOutsideTheRingAreRejectedAtTheCall) {
  // Node 12 on an 8-node ring: every entry point throws before it changes
  // anything -- no admission charge, no queued message, no plan change --
  // and the ring keeps running.
  for (const bool planner : {false, true}) {
    SCOPED_TRACE(planner ? "planner on" : "planner off");
    NetworkConfig cfg = small_config(8);
    cfg.planner = planner;
    Network n(cfg);
    core::ConnectionParams ok;
    ok.source = 0;
    ok.dests = NodeSet::single(1);
    ok.period_slots = 16;
    ASSERT_TRUE(n.open_connection(ok).admitted);
    n.run_slots(50);
    const double u = n.admission().utilisation();
    const std::int64_t requests = n.admission().requests_seen();
    const std::int64_t slots = n.stats().slots;
    const std::int64_t delivered =
        n.stats().cls(TrafficClass::kRealTime).delivered;
    const bool engaged = n.plan_engaged();
    const NodeSet queued = n.queued_nodes();

    core::ConnectionParams bad = ok;
    bad.dests = NodeSet::single(12);
    EXPECT_THROW(n.open_connection(bad), ConfigError);
    bad.dests = NodeSet{};
    EXPECT_THROW(n.open_connection(bad), ConfigError);
    core::CbsParams cbs;
    cbs.source = 0;
    cbs.dests = NodeSet::single(12);
    cbs.budget_slots = 1;
    cbs.period_slots = 16;
    EXPECT_THROW(n.open_cbs_server(cbs), ConfigError);
    EXPECT_THROW(n.send_best_effort(0, NodeSet::single(12), 1,
                                    Duration::milliseconds(1)),
                 ConfigError);
    EXPECT_THROW(n.send_non_realtime(0, NodeSet::single(12), 1), ConfigError);

    EXPECT_EQ(n.admission().utilisation(), u);
    EXPECT_EQ(n.admission().requests_seen(), requests);
    EXPECT_EQ(n.stats().buffer_drops, 0);
    EXPECT_EQ(n.stats().plan_divergences, 0);
    EXPECT_EQ(n.plan_engaged(), engaged);
    EXPECT_EQ(n.queued_nodes(), queued);
    EXPECT_NO_THROW(n.run_slots(200));
    EXPECT_EQ(n.stats().slots, slots + 200);
    EXPECT_GT(n.stats().cls(TrafficClass::kRealTime).delivered, delivered);
    EXPECT_EQ(n.stats().cls(TrafficClass::kBestEffort).delivered, 0);
    EXPECT_EQ(n.stats().cls(TrafficClass::kRealTime).user_misses, 0);
  }
}

TEST(Network, FifoWithinSameSource) {
  // Two BE messages from one node with increasing deadlines leave in EDF
  // order; deliveries must preserve it.
  Network n(small_config());
  DeliveryLog log(n);
  n.send_best_effort(0, NodeSet::single(2), 1, Duration::microseconds(100));
  n.send_best_effort(0, NodeSet::single(3), 1, Duration::microseconds(300));
  n.run_slots(6);
  ASSERT_EQ(log.inbox(2).size(), 1u);
  ASSERT_EQ(log.inbox(3).size(), 1u);
  EXPECT_LE(log.inbox(2)[0].completed, log.inbox(3)[0].completed);
}

}  // namespace
}  // namespace ccredf::net
