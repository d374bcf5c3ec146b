#include "baseline/ccfpr.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "ring/segment.hpp"
#include "support/delivery_log.hpp"

namespace ccredf::baseline {
namespace {

using core::Priority;
using core::Request;
using core::TrafficClass;
using sim::Duration;

net::NetworkConfig ccfpr_config(NodeId nodes = 8) {
  net::NetworkConfig cfg;
  cfg.nodes = nodes;
  cfg.protocol_factory = ccfpr_factory();
  return cfg;
}

Request req(Priority prio, const ring::RingTopology& topo, NodeId src,
            NodeId dst) {
  Request r;
  r.priority = prio;
  const auto seg =
      ring::Segment::for_transmission(topo, src, NodeSet::single(dst));
  r.links = seg.links();
  r.dests = NodeSet::single(dst);
  return r;
}

TEST(CcFpr, MasterRotatesRoundRobin) {
  net::Network n(ccfpr_config());
  EXPECT_STREQ(n.protocol().name(), "CC-FPR");
  std::vector<NodeId> masters;
  n.add_slot_observer([&](const net::SlotRecord& rec) {
    masters.push_back(rec.master);
  });
  n.run_slots(10);
  for (std::size_t i = 0; i < masters.size(); ++i) {
    EXPECT_EQ(masters[i], static_cast<NodeId>(i % 8));
  }
}

TEST(CcFpr, MasterRotatesEvenUnderLoad) {
  net::Network n(ccfpr_config());
  n.send_best_effort(5, NodeSet::single(6), 1, Duration::milliseconds(1));
  std::vector<NodeId> masters;
  n.add_slot_observer([&](const net::SlotRecord& rec) {
    masters.push_back(rec.master);
  });
  n.run_slots(4);
  // Round-robin: 0,1,2,3 -- never jumps to the urgent sender.
  EXPECT_EQ(masters, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(CcFpr, ConstantGap) {
  net::Network n(ccfpr_config());
  std::vector<Duration> gaps;
  n.add_slot_observer([&](const net::SlotRecord& rec) {
    gaps.push_back(rec.gap_after);
  });
  n.run_slots(10);
  for (const auto g : gaps) EXPECT_EQ(g, gaps.front());
  // D = 1: 50 ns + 2 stop bits * 2.5 ns.
  EXPECT_EQ(gaps.front(), Duration::nanoseconds(55));
}

TEST(CcFpr, ClockInterruptionBlocksUrgentMessage) {
  // The pathology of the simple strategy (paper §1): next master's break
  // link may lie on the most urgent message's path.
  ring::RingTopology topo(6);
  phy::RingPhy phy(phy::optobus(), 6, 10.0);
  CcFprProtocol proto(&phy, topo, true);
  std::vector<Request> reqs(6);
  // Current master 0 => next master 1, break link = link 0 (into node 1).
  // Node 5 -> 2 needs links 5, 0, 1: crosses the break link.
  reqs[5] = req(31, topo, 5, 2);
  const auto plan = proto.plan_next_slot(reqs, 0, 0, NodeSet::first_n(6));
  EXPECT_EQ(plan.next_master, 1u);
  EXPECT_FALSE(plan.granted.contains(5));  // priority inversion!
}

TEST(CcFpr, UpstreamBookingStarvesUrgentDownstream) {
  // Paper §3: "Node 1 ... books Links 1 and 2, regardless of what Node 2
  // may have to send."
  ring::RingTopology topo(6);
  phy::RingPhy phy(phy::optobus(), 6, 10.0);
  CcFprProtocol proto(&phy, topo, true);
  std::vector<Request> reqs(6);
  // Booking order from master 0: nodes 1, 2, 3, ...  Node 1 (low prio)
  // books links 1,2; node 2 (max prio) needs link 2 -> denied.
  reqs[1] = req(5, topo, 1, 3);
  reqs[2] = req(31, topo, 2, 3);
  const auto plan = proto.plan_next_slot(reqs, 0, 0, NodeSet::first_n(6));
  EXPECT_TRUE(plan.granted.contains(1));
  EXPECT_FALSE(plan.granted.contains(2));
}

TEST(CcFpr, NetworkCountsInversions) {
  net::Network n(ccfpr_config(6));
  // Node 5 -> 2 wraps across many break links while mastership rotates;
  // lower-priority node 1 -> 3 books first repeatedly.
  for (int i = 0; i < 10; ++i) {
    n.send_best_effort(5, NodeSet::single(2), 1, Duration::microseconds(50));
    n.send_non_realtime(1, NodeSet::single(3), 1);
    n.run_slots(4);
  }
  EXPECT_GT(n.stats().priority_inversions, 0);
}

TEST(CcFpr, EventuallyDeliversEverything) {
  net::Network n(ccfpr_config(6));
  DeliveryLog log(n);
  for (NodeId s = 0; s < 6; ++s) {
    n.send_best_effort(s, NodeSet::single((s + 2) % 6), 1,
                       Duration::milliseconds(5));
  }
  n.run_slots(60);
  std::int64_t delivered = 0;
  for (NodeId i = 0; i < 6; ++i) {
    delivered += static_cast<std::int64_t>(log.inbox(i).size());
  }
  EXPECT_EQ(delivered, 6);
}

TEST(CcFpr, SpatialReuseStillWorks) {
  net::Network n(ccfpr_config(8));
  DeliveryLog log(n);
  n.send_best_effort(1, NodeSet::single(2), 1, Duration::milliseconds(1));
  n.send_best_effort(5, NodeSet::single(6), 1, Duration::milliseconds(1));
  n.run_slots(6);
  EXPECT_EQ(log.inbox(2).size(), 1u);
  EXPECT_EQ(log.inbox(6).size(), 1u);
}

}  // namespace
}  // namespace ccredf::baseline
