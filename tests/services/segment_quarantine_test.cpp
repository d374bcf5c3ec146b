// The third quarantine kind (*segment-down*): a hard link cut closes
// exactly the cut-crossing connections/CBS servers with the same
// reclaim-exactness invariant as a node-death quarantine, derates the
// admission capacity to the surviving-region pair fraction, excuses the
// unreachable suffix from per-node miss accounting, and stages the
// parked entries back through the token bucket once the link splices.
#include "services/resilience.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "net/network.hpp"
#include "ring/segment.hpp"

namespace ccredf::services {
namespace {

using sim::Duration;
using NodeState = ResilienceMonitor::NodeState;

net::NetworkConfig cfg6() {
  net::NetworkConfig cfg;
  cfg.nodes = 6;
  return cfg;
}

core::ConnectionParams rt(NodeId src, NodeId dst, std::int64_t size,
                          std::int64_t period) {
  core::ConnectionParams p;
  p.source = src;
  p.dests = NodeSet::single(dst);
  p.size_slots = size;
  p.period_slots = period;
  return p;
}

ResilienceParams fast_params(std::int64_t window = 8) {
  ResilienceParams rp;
  rp.detection_window_slots = window;
  rp.readmit_interval_slots = 1;
  rp.readmit_burst = 4;
  rp.backoff_slots = 4;
  rp.max_backoff_slots = 64;
  return rp;
}

/// Workload fixture around a cut of link 2: connections 0->1 (link 0)
/// and 4->5 (link 4) are cut-disjoint; 1->4 (links 1..3) and the CBS
/// server 1->3 (links 1..2) cross the cut.
struct Fixture {
  net::Network n{cfg6()};
  ResilienceMonitor m{n, fast_params()};
  ConnectionId disjoint_a, disjoint_b, crosser;
  ConnectionId cbs_crosser, cbs_disjoint;

  Fixture() {
    disjoint_a = open_rt(0, 1);
    crosser = open_rt(1, 4);
    disjoint_b = open_rt(4, 5);
    core::CbsParams cb;
    cb.budget_slots = 1;
    cb.period_slots = 25;
    cb.source = 1;
    cb.dests = NodeSet::single(3);
    cbs_crosser = open_cbs(cb);
    cb.source = 3;
    cb.dests = NodeSet::single(4);
    cbs_disjoint = open_cbs(cb);
  }
  ConnectionId open_rt(NodeId src, NodeId dst) {
    const auto r = n.open_connection(rt(src, dst, 1, 20));
    EXPECT_TRUE(r.admitted);
    return r.id;
  }
  ConnectionId open_cbs(const core::CbsParams& cb) {
    const auto r = n.open_cbs_server(cb);
    EXPECT_TRUE(r.admitted);
    return r.id;
  }
};

TEST(SegmentQuarantine, ClosesExactlyTheCrossersAndReclaimsTheirWeight) {
  Fixture f;
  const double u_before = f.n.admission().utilisation();
  ASSERT_TRUE(f.n.cut_link(2));
  f.n.run_slots(3);
  EXPECT_EQ(f.m.stats().segment_downs, 1);
  EXPECT_EQ(f.m.stats().segment_quarantines, 2);  // crosser + cbs_crosser
  EXPECT_EQ(f.m.readmit_queue_depth(), 2u);
  // Exactly their Eq. 5/6 weight came back: 1/20 + 1/25.
  const double released = u_before - f.n.admission().utilisation();
  EXPECT_NEAR(released, 1.0 / 20 + 1.0 / 25, 1e-12);
  EXPECT_NEAR(f.m.quarantined_weight(), released, 1e-12);
  EXPECT_LE(f.m.stats().reclaim_error, 1e-9);
  // Node-death quarantine paths were never involved.
  EXPECT_EQ(f.m.stats().downs, 0);
  EXPECT_EQ(f.m.stats().connections_quarantined, 0);
  EXPECT_EQ(f.m.stats().servers_quarantined, 0);
}

TEST(SegmentQuarantine, SingleCutDeratesCapacityToHalfAndSpliceRestores) {
  Fixture f;
  const double u_max = f.n.admission().u_max();
  const std::int64_t renegs_before = f.n.admission().renegotiations();
  ASSERT_TRUE(f.n.cut_link(2));
  f.n.run_slots(3);
  // Surviving-region ordered-pair fraction: exactly 0.5 for any single
  // cut on any ring size (closed form, src/services/resilience.cpp).
  EXPECT_DOUBLE_EQ(f.n.admission().capacity_factor(), 0.5);
  EXPECT_DOUBLE_EQ(f.n.admission().effective_u_max(), 0.5 * u_max);
  EXPECT_EQ(f.n.admission().renegotiations(), renegs_before + 1);
  ASSERT_TRUE(f.n.splice_link(2));
  f.n.run_slots(3);
  EXPECT_DOUBLE_EQ(f.n.admission().capacity_factor(), 1.0);
  EXPECT_DOUBLE_EQ(f.n.admission().effective_u_max(), u_max);
  EXPECT_EQ(f.n.admission().renegotiations(), renegs_before + 2);
}

TEST(SegmentQuarantine, EntriesStayParkedWhileTheCutPersists) {
  Fixture f;
  ASSERT_TRUE(f.n.cut_link(2));
  f.n.run_slots(200);  // plenty of token-bucket refills
  EXPECT_EQ(f.m.readmit_queue_depth(), 2u);
  EXPECT_EQ(f.m.stats().readmit_attempts, 0);  // parked, never charged
  EXPECT_EQ(f.m.stats().readmissions, 0);
  EXPECT_EQ(f.m.current_incarnation(f.crosser), kNoConnection);
  // The cut-disjoint transfers were never touched.
  EXPECT_EQ(f.m.current_incarnation(f.disjoint_a), f.disjoint_a);
  EXPECT_EQ(f.m.current_incarnation(f.disjoint_b), f.disjoint_b);
  EXPECT_EQ(f.m.current_incarnation(f.cbs_disjoint), f.cbs_disjoint);
}

TEST(SegmentQuarantine, SpliceStagesReadmissionThroughTheTokenBucket) {
  Fixture f;
  ASSERT_TRUE(f.n.cut_link(2));
  f.n.run_slots(50);
  ASSERT_TRUE(f.n.splice_link(2));
  f.n.run_slots(50);
  EXPECT_EQ(f.m.stats().readmissions, 2);
  EXPECT_EQ(f.m.readmit_queue_depth(), 0u);
  EXPECT_NEAR(f.m.quarantined_weight(), 0.0, 1e-12);
  // Fresh incarnations (admission never reuses ids).
  const ConnectionId reborn = f.m.current_incarnation(f.crosser);
  EXPECT_NE(reborn, kNoConnection);
  EXPECT_NE(reborn, f.crosser);
  EXPECT_NE(f.m.current_incarnation(f.cbs_crosser), kNoConnection);
}

TEST(SegmentQuarantine, UnreachableSuffixIsExcusedNotSuspected) {
  // Ring-dark (two cuts) is the stress case: every slot's collection
  // truncates at reach 1 from the parked master, leaving nodes 2..5
  // unheard for the whole outage.  They are alive -- the classified
  // loss pattern (contiguous unreachable suffix) must be excused, not
  // escalate to suspects/downs like a node death's isolated gap.
  net::Network n(cfg6());
  ResilienceMonitor m(n, fast_params(/*window=*/4));
  ASSERT_TRUE(n.cut_link(1));
  ASSERT_TRUE(n.cut_link(3));
  n.run_slots(100);
  EXPECT_EQ(m.stats().suspects, 0);
  EXPECT_EQ(m.stats().downs, 0);
  for (NodeId j = 0; j < 6; ++j) {
    EXPECT_EQ(m.state(j), NodeState::kUp) << "node " << j;
  }
  // A REAL node death inside the reachable prefix still escalates:
  // node 1 is within reach of the parked master (node 0).
  ASSERT_TRUE(n.fail_node(1));
  n.run_slots(20);
  EXPECT_EQ(m.stats().downs, 1);
  EXPECT_TRUE(m.is_down(1));
}

TEST(SegmentQuarantine, CutDisjointConnectionsMissNothingAcrossTheCycle) {
  // The headline containment gate at unit-test scale: cut -> detect ->
  // quarantine -> splice -> re-admit, and the cut-disjoint connections
  // ride through with zero user misses.
  Fixture f;
  f.n.run_slots(100);
  ASSERT_TRUE(f.n.cut_link(2));
  f.n.run_slots(300);
  ASSERT_TRUE(f.n.splice_link(2));
  f.n.run_slots(300);
  EXPECT_EQ(f.m.stats().readmissions, 2);
  for (const ConnectionId id :
       {f.disjoint_a, f.disjoint_b}) {
    const auto& cs = f.n.connection_stats(id);
    EXPECT_GT(cs.delivered, 0) << "connection " << id;
    EXPECT_EQ(cs.user_misses, 0) << "connection " << id;
    EXPECT_EQ(cs.scheduling_misses, 0) << "connection " << id;
  }
}

}  // namespace
}  // namespace ccredf::services
