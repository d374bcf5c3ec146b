// The collection sampling rule (paper section 3, Fig. 3): the packet
// samples the node h hops downstream of the master at T_k + prop + h
// passthroughs, so an event landing between two samples reaches the later
// node's request and not the earlier one's -- with or without a fault hook.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "fault/injector.hpp"
#include "net/network.hpp"

namespace ccredf::net {
namespace {

TEST(Collection, EventBetweenSamplesReachesOnlyLaterSamples) {
  for (const bool with_hook : {false, true}) {
    SCOPED_TRACE(with_hook ? "no-op fault hook" : "no hook");
    NetworkConfig cfg;
    cfg.nodes = 6;
    Network n(cfg);
    std::optional<fault::FaultInjector> inj;
    if (with_hook) inj.emplace(n);  // injects nothing
    // Slot 0 starts at the origin with master 0, so hop h is node h.
    ASSERT_EQ(n.current_master(), 0u);
    const core::ControlTiming& ct = n.control_timing();
    const sim::TimePoint between =
        sim::TimePoint::origin() +
        (ct.sample_offset(0, 2) + ct.sample_offset(0, 3)) / 2;
    ASSERT_GT(between, sim::TimePoint::origin() + ct.sample_offset(0, 2));
    ASSERT_LT(between, sim::TimePoint::origin() + ct.sample_offset(0, 3));
    // The send from node 2 arrives after node 2's sample, so the queue's
    // eligibility rule alone keeps it out of this slot.  A failure has no
    // arrival instant: node 1 stays heard only if the walk sampled it
    // before firing the event.
    n.sim().schedule_at(between, [&n] {
      for (const NodeId src : {NodeId{2}, NodeId{3}}) {
        n.send_best_effort(src, NodeSet::single(5), 1,
                           sim::Duration::milliseconds(1));
      }
      ASSERT_TRUE(n.fail_node(1));
      ASSERT_TRUE(n.fail_node(4));
    });
    std::vector<SlotRecord> recs;
    n.add_slot_observer([&](const SlotRecord& rec) { recs.push_back(rec); });
    n.run_slots(1);
    ASSERT_EQ(recs.size(), 1u);
    const SlotRecord& rec = recs[0];
    EXPECT_TRUE(rec.requests[3].wants_slot());   // sampled after the send
    EXPECT_FALSE(rec.requests[2].wants_slot());  // sampled before it
    // Node 1 failed after its sample, node 4 before its own.
    const NodeSet heard = n.topology().all_nodes() & ~NodeSet::single(4);
    EXPECT_EQ(rec.heard.mask(), heard.mask());
  }
}

}  // namespace
}  // namespace ccredf::net
