// Severed-segment fault model: hard per-link cut/splice events, the
// in-protocol detection evidence (truncated heard prefix), degraded-mode
// arbitration (cut-crossing transfers masked, master re-anchored at the
// cut's downstream endpoint) and the double-cut ring-dark parking.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "net/network.hpp"
#include "support/stats_fingerprint.hpp"

namespace ccredf::net {
namespace {

using sim::Duration;
using sim::TimePoint;

NetworkConfig cfg6() {
  NetworkConfig cfg;
  cfg.nodes = 6;
  return cfg;
}

std::vector<SlotRecord> record(Network& n, std::int64_t slots) {
  std::vector<SlotRecord> recs;
  n.add_slot_observer([&](const SlotRecord& rec) { recs.push_back(rec); });
  n.run_slots(slots);
  return recs;
}

TEST(LinkFault, CutAndSpliceAreIdempotent) {
  net::Network n(cfg6());
  EXPECT_TRUE(n.severed_links().empty());
  EXPECT_FALSE(n.splice_link(2));  // splice-of-intact: no-op
  EXPECT_TRUE(n.cut_link(2));
  EXPECT_FALSE(n.cut_link(2));  // double cut: no-op
  EXPECT_EQ(n.stats().faults.link_cuts, 1);
  EXPECT_EQ(n.severed_links().mask(), LinkSet::single(2).mask());
  EXPECT_TRUE(n.splice_link(2));
  EXPECT_FALSE(n.splice_link(2));  // double splice: no-op
  EXPECT_TRUE(n.severed_links().empty());
  EXPECT_EQ(n.stats().faults.link_cuts, 1);  // splices are not cuts
}

TEST(LinkFault, DegradedAnchorIsCutDownstreamEndpoint) {
  net::Network n(cfg6());
  EXPECT_EQ(n.degraded_anchor(), kInvalidNode);  // intact: no anchor
  ASSERT_TRUE(n.cut_link(2));
  EXPECT_EQ(n.degraded_anchor(), 3u);
  // A dead downstream endpoint delegates to the next live node.
  ASSERT_TRUE(n.fail_node(3));
  EXPECT_EQ(n.degraded_anchor(), 4u);
  ASSERT_TRUE(n.restore_node(3));
  ASSERT_TRUE(n.cut_link(4));
  EXPECT_EQ(n.degraded_anchor(), kInvalidNode);  // >= 2 cuts: no anchor
}

TEST(LinkFault, FirstCollectionHearsOnlyThePrefixThenReanchors) {
  // Master 0, cut at link 2: the collection packet dies leaving node 2,
  // so slot 0 hears exactly hops 0..2 = {0, 1, 2} -- the classified
  // loss pattern (a contiguous downstream suffix of LIVE nodes gone
  // silent).  The same slot re-anchors the clock at node 3, after which
  // the break link coincides with the cut and everyone is heard again.
  net::Network n(cfg6());
  ASSERT_TRUE(n.cut_link(2));
  const auto recs = record(n, 4);
  const NodeSet prefix =
      NodeSet::single(0) | NodeSet::single(1) | NodeSet::single(2);
  EXPECT_EQ(recs[0].heard.mask(), prefix.mask());
  EXPECT_EQ(recs[0].next_master, 3u);
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].master, 3u) << "slot " << i;
    EXPECT_EQ(recs[i].heard.mask(), n.topology().all_nodes().mask())
        << "slot " << i;
  }
  EXPECT_EQ(n.stats().faults.cut_detect_slots, 1);
}

TEST(LinkFault, CutAtMastersOwnEgressHearsOnlyTheMaster) {
  // Link 0 is the master's own egress: the packet dies leaving node 0,
  // so the master hears only itself that slot, then anchors at node 1.
  net::Network n(cfg6());
  ASSERT_TRUE(n.cut_link(0));
  const auto recs = record(n, 3);
  EXPECT_EQ(recs[0].heard.mask(), NodeSet::single(0).mask());
  EXPECT_EQ(recs[0].next_master, 1u);
  EXPECT_EQ(recs[1].heard.mask(), n.topology().all_nodes().mask());
}

TEST(LinkFault, CutOneHopUpstreamOfMasterNeedsNoReanchor) {
  // Link 5 = link_into(master 0) is already the break link: the
  // collection covers the whole ring and the master never moves.
  net::Network n(cfg6());
  ASSERT_TRUE(n.cut_link(5));
  const auto recs = record(n, 4);
  for (const auto& rec : recs) {
    EXPECT_EQ(rec.master, 0u) << "slot " << rec.index;
    EXPECT_EQ(rec.heard.mask(), n.topology().all_nodes().mask())
        << "slot " << rec.index;
  }
}

TEST(LinkFault, EveryCutPositionAnchorsAtItsDownstreamEndpoint) {
  for (LinkId l = 0; l < 6; ++l) {
    net::Network n(cfg6());
    ASSERT_TRUE(n.cut_link(l));
    const auto recs = record(n, 4);
    const NodeId anchor = (l + 1) % 6;
    EXPECT_EQ(recs.back().master, anchor) << "cut " << l;
    EXPECT_EQ(recs.back().heard.mask(), n.topology().all_nodes().mask())
        << "cut " << l;
  }
}

TEST(LinkFault, CutCrossingTransferIsMaskedAndSurvivorFlows) {
  // Node 1 -> node 5 crosses links {1, 2, 3, 4}; node 4 -> node 5 rides
  // only link 4.  Cutting link 2 must mask the first and keep granting
  // the second.
  net::Network n(cfg6());
  ASSERT_TRUE(n.cut_link(2));
  n.run_slots(2);  // settle on the anchor (node 3)
  n.send_best_effort(1, NodeSet::single(5), 1, Duration::milliseconds(50));
  n.send_best_effort(4, NodeSet::single(5), 1, Duration::milliseconds(50));
  const std::int64_t delivered_before =
      n.stats().cls(core::TrafficClass::kBestEffort).delivered;
  n.run_slots(10);
  // The survivor delivered; the crosser is still queued (degraded mode
  // excludes it from arbitration -- no grant is wasted on it either).
  EXPECT_EQ(n.stats().cls(core::TrafficClass::kBestEffort).delivered,
            delivered_before + 1);
  ASSERT_TRUE(n.splice_link(2));
  n.run_slots(10);
  EXPECT_EQ(n.stats().cls(core::TrafficClass::kBestEffort).delivered,
            delivered_before + 2);  // healed ring drains the crosser
}

TEST(LinkFault, GrantInFlightAcrossFreshCutIsVoided) {
  // The message is granted on an intact ring, then the link is cut
  // between arbitration and the transmission slot (mid-gap): the grant
  // must be voided, the message stays queued and drains after splice.
  net::Network n(cfg6());
  n.send_best_effort(1, NodeSet::single(4), 1, Duration::milliseconds(50));
  // The grant for slot k+1 is decided during slot k; cut right after
  // slot 0 ends (inside the gap) so slot 1 executes into the cut.
  fault::FaultInjector inj(n);
  inj.schedule_link_cut(
      2, TimePoint::origin() + n.timing().slot() + Duration::nanoseconds(1));
  const std::int64_t wasted_before = n.stats().wasted_grants;
  n.run_slots(3);
  EXPECT_GT(n.stats().wasted_grants, wasted_before);
  EXPECT_EQ(n.stats().cls(core::TrafficClass::kBestEffort).delivered, 0);
  ASSERT_TRUE(n.splice_link(2));
  n.run_slots(8);
  EXPECT_EQ(n.stats().cls(core::TrafficClass::kBestEffort).delivered, 1);
}

TEST(LinkFault, MidSlotCutBooksTwoDetectSlots) {
  // A cut landing AFTER a slot's collection samples is first evidenced
  // by the NEXT collection: latency 2 slots, against 1 for a cut landing
  // on the slot boundary (both within the heartbeat-window + 1 bound).
  net::Network n(cfg6());
  fault::FaultInjector inj(n);
  // 90% into slot 0: collection sampled an intact ring already.
  inj.schedule_link_cut(
      2, TimePoint::origin() + (n.timing().slot() * 9) / 10);
  const auto recs = record(n, 3);
  EXPECT_EQ(recs[0].heard.mask(), n.topology().all_nodes().mask());
  // The late cut still re-anchors at the end of the slot that absorbed
  // it, so by slot 2 the clock sits on the anchor and heard is full --
  // the latency shows only in the detection counter.
  EXPECT_EQ(recs[2].master, 3u);
  EXPECT_EQ(n.stats().faults.cut_detect_slots, 2);
}

TEST(LinkFault, DoubleCutParksRingDarkAndSplicesStageRecovery) {
  // Two cuts partition the ring: like PR 4's all-failed case the clock
  // parks at the designated restarter and nothing is granted.  Splicing
  // back to one cut resumes degraded service; splicing the last cut
  // restores the full ring.
  net::Network n(cfg6());
  n.send_best_effort(1, NodeSet::single(4), 1, Duration::milliseconds(500));
  ASSERT_TRUE(n.cut_link(1));
  ASSERT_TRUE(n.cut_link(3));
  const std::int64_t dark_before = n.stats().faults.ring_dark;
  const auto recs = record(n, 6);
  EXPECT_GE(n.stats().faults.ring_dark, dark_before + 5);
  for (const auto& rec : recs) {
    EXPECT_TRUE(rec.granted.empty()) << "slot " << rec.index;
  }
  EXPECT_EQ(recs.back().master, n.config().designated_restarter);
  EXPECT_EQ(n.stats().cls(core::TrafficClass::kBestEffort).delivered, 0);

  // One splice: single-cut degraded mode; 1 -> 4 crosses the remaining
  // cut (link 3), so it stays parked...
  ASSERT_TRUE(n.splice_link(1));
  n.run_slots(6);
  const std::int64_t dark_single = n.stats().faults.ring_dark;
  EXPECT_EQ(n.stats().cls(core::TrafficClass::kBestEffort).delivered, 0);
  // ...until the second splice heals the ring and it drains.
  ASSERT_TRUE(n.splice_link(3));
  n.run_slots(8);
  EXPECT_EQ(n.stats().faults.ring_dark, dark_single);  // no more dark slots
  EXPECT_EQ(n.stats().cls(core::TrafficClass::kBestEffort).delivered, 1);
}

TEST(LinkFault, AnchoredSingleCutFastForwardMatchesSlotBySlot) {
  // Once the degraded orbit is stable (one cut, master on the anchor),
  // idle stretches fast-forward -- and the aggregate statistics must be
  // identical to slot-by-slot execution, cut bookkeeping included.
  struct Out {
    std::int64_t ff_windows = 0;
    std::string fingerprint;
  };
  auto run = [](bool ff) {
    NetworkConfig cfg;
    cfg.nodes = 6;
    cfg.fast_forward = ff;
    net::Network n(cfg);
    fault::FaultInjector inj(n);
    const Duration extent = n.timing().slot_plus_max_gap();
    inj.schedule_link_cut(2, TimePoint::origin() + extent * 10);
    inj.schedule_link_splice(2, TimePoint::origin() + extent * 120);
    n.send_best_effort(4, NodeSet::single(5), 1, Duration::milliseconds(2));
    n.run_slots(200);
    std::ostringstream os;
    os << fingerprint(n) << static_cast<int>(n.current_master()) << ' '
       << n.current_slot();
    return Out{n.stats().ff_windows, os.str()};
  };
  const Out a = run(true);
  const Out b = run(false);
  EXPECT_GT(a.ff_windows, 0);
  EXPECT_EQ(b.ff_windows, 0);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(LinkFault, CutDivergesAnEngagedPlan) {
  // The hypercycle planner's grant layout assumes an intact ring: any
  // link event must fall back to slot-by-slot TCMA, and no new plan may
  // build until the ring is spliced whole.
  NetworkConfig cfg;
  cfg.nodes = 4;
  cfg.planner = true;
  net::Network n(cfg);
  core::ConnectionParams p;
  p.source = 1;
  p.dests = NodeSet::single(2);
  p.size_slots = 1;
  p.period_slots = 8;
  ASSERT_TRUE(n.open_connection(p).admitted);
  n.run_slots(16);
  ASSERT_GT(n.stats().planned_slots, 0);
  const std::int64_t divergences = n.stats().plan_divergences;
  ASSERT_TRUE(n.cut_link(3));
  EXPECT_EQ(n.stats().plan_divergences, divergences + 1);
  n.run_slots(16);
  EXPECT_EQ(n.stats().plan_builds, 1);  // no rebuild while severed
  ASSERT_TRUE(n.splice_link(3));
  n.run_slots(1);
  EXPECT_TRUE(n.severed_links().empty());
}

}  // namespace
}  // namespace ccredf::net
