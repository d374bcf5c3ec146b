// Direct unit coverage of the CcrEdfProtocol adapter (the glue between
// the Arbiter/HandoverModel and the slot engine).
#include "net/ccredf_protocol.hpp"

#include <gtest/gtest.h>

#include "ring/segment.hpp"

namespace ccredf::net {
namespace {

using core::Request;
using sim::Duration;

struct Fixture {
  phy::RingPhy phy{phy::optobus(), 8, 10.0};
  ring::RingTopology topo{8};
};

Request req(core::Priority prio, const ring::RingTopology& topo, NodeId src,
            NodeId dst) {
  Request r;
  r.priority = prio;
  const auto seg =
      ring::Segment::for_transmission(topo, src, NodeSet::single(dst));
  r.links = seg.links();
  r.dests = NodeSet::single(dst);
  return r;
}

TEST(CcrEdfProtocol, Name) {
  Fixture f;
  CcrEdfProtocol p(&f.phy, f.topo, true);
  EXPECT_STREQ(p.name(), "CCR-EDF");
}

TEST(CcrEdfProtocol, PlanReflectsArbitration) {
  Fixture f;
  CcrEdfProtocol p(&f.phy, f.topo, true);
  std::vector<Request> reqs(8);
  reqs[5] = req(30, f.topo, 5, 7);
  reqs[1] = req(20, f.topo, 1, 3);
  const auto plan = p.plan_next_slot(reqs, 0, 0, NodeSet::first_n(8));
  EXPECT_EQ(plan.next_master, 5u);
  EXPECT_TRUE(plan.granted.contains(5));
  EXPECT_TRUE(plan.granted.contains(1));  // disjoint -> spatial reuse
}

TEST(CcrEdfProtocol, SpatialReuseOffSingleGrant) {
  Fixture f;
  CcrEdfProtocol p(&f.phy, f.topo, false);
  std::vector<Request> reqs(8);
  reqs[5] = req(30, f.topo, 5, 7);
  reqs[1] = req(20, f.topo, 1, 3);
  const auto plan = p.plan_next_slot(reqs, 0, 0, NodeSet::first_n(8));
  EXPECT_EQ(plan.granted.size(), 1);
}

TEST(CcrEdfProtocol, GapDelegatesToHandoverModel) {
  Fixture f;
  CcrEdfProtocol p(&f.phy, f.topo, true);
  const core::HandoverModel h(&f.phy);
  for (NodeId from = 0; from < 8; ++from) {
    for (NodeId to = 0; to < 8; ++to) {
      EXPECT_EQ(p.gap(from, to), h.gap(from, to));
    }
  }
  EXPECT_EQ(p.max_gap(), h.max_gap());
}

TEST(CcrEdfProtocol, MaxGapBoundsAllGaps) {
  Fixture f;
  CcrEdfProtocol p(&f.phy, f.topo, true);
  for (NodeId from = 0; from < 8; ++from) {
    for (NodeId to = 0; to < 8; ++to) {
      EXPECT_LE(p.gap(from, to), p.max_gap());
    }
  }
}

TEST(CcrEdfProtocol, ArbiterAccessorExposesConfiguration) {
  Fixture f;
  CcrEdfProtocol with(&f.phy, f.topo, true);
  CcrEdfProtocol without(&f.phy, f.topo, false);
  EXPECT_TRUE(with.arbiter().spatial_reuse());
  EXPECT_FALSE(without.arbiter().spatial_reuse());
}

}  // namespace
}  // namespace ccredf::net
