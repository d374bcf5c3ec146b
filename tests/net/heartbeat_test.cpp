// SlotRecord::heard -- the free per-slot heartbeat the resilience layer
// feeds on.  A node is heard when its (possibly idle) request record
// validly reached the master during the collection phase; a fault hook
// that injects nothing must leave the set unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "fault/injector.hpp"
#include "net/network.hpp"

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

TEST(Heartbeat, CleanSlotHearsEveryLiveNode) {
  net::Network n(cfg6());
  // Mix idle slots with traffic: idle records count as evidence too.
  n.send_best_effort(2, NodeSet::single(5), 1, Duration::milliseconds(50));
  const auto recs = record(n, 20);
  const NodeSet all = n.topology().all_nodes();
  for (const auto& rec : recs) {
    EXPECT_EQ(rec.heard.mask(), all.mask()) << "slot " << rec.index;
  }
}

TEST(Heartbeat, FailedNodeIsUnheardUntilRestored) {
  net::Network n(cfg6());
  ASSERT_TRUE(n.fail_node(3));
  auto recs = record(n, 10);
  for (const auto& rec : recs) {
    EXPECT_FALSE(rec.heard.contains(3)) << "slot " << rec.index;
    EXPECT_TRUE(rec.heard.contains(1));
  }
  ASSERT_TRUE(n.restore_node(3));
  std::vector<SlotRecord> after;
  n.add_slot_observer([&](const SlotRecord& rec) { after.push_back(rec); });
  n.run_slots(10);
  for (const auto& rec : after) {
    EXPECT_TRUE(rec.heard.contains(3)) << "slot " << rec.index;
  }
}

TEST(Heartbeat, DroppedRecordIsUnheardForThatSlotOnly) {
  net::Network n(cfg6());
  fault::FaultInjector inj(n);
  inj.schedule_collection_drop(2, 4);
  const auto recs = record(n, 6);
  const NodeSet all = n.topology().all_nodes();
  for (const auto& rec : recs) {
    if (rec.index == 2) {
      EXPECT_FALSE(rec.heard.contains(4));
      EXPECT_EQ(rec.heard.mask(), (all & ~NodeSet::single(4)).mask());
    } else {
      EXPECT_EQ(rec.heard.mask(), all.mask()) << "slot " << rec.index;
    }
  }
}

TEST(Heartbeat, RejectedCorruptRecordIsUnheard) {
  // Frame-integrity guards rejecting a corrupted record leave the node
  // unheard: no VALID record arrived, which is exactly the evidence
  // standard the failure detector needs.
  NetworkConfig cfg = cfg6();
  cfg.with_frame_crc = true;
  net::Network n(cfg);
  fault::FaultInjector inj(n);
  inj.schedule_collection_corruption(3, 2, /*bits=*/4);
  const auto recs = record(n, 6);
  ASSERT_GE(n.stats().faults.collection_corruptions, 1);
  // Unheard exactly when the guards caught it; a silent forgery (a
  // corrupted record that still checks out) IS a valid-looking record
  // and must count as heard.
  EXPECT_EQ(recs[3].heard.contains(2),
            n.stats().faults.collection_detected == 0);
}

TEST(Heartbeat, MasterDeadSlotVoidsAllEvidence) {
  // The master dies mid-slot: whatever records it had sampled die with
  // it, so the slot must evidence NOBODY -- a conservative blank, not a
  // partial sample.
  net::Network n(cfg6());
  fault::FaultInjector inj(n);
  inj.schedule_node_failure(0, TimePoint::origin() + n.timing().slot() / 2);
  const auto recs = record(n, 10);
  ASSERT_TRUE(recs[0].token_lost);
  EXPECT_TRUE(recs[0].heard.empty());
  // Later slots (restarter's clock) hear everyone but the corpse.
  const NodeSet expect = n.topology().all_nodes() & ~NodeSet::single(0);
  EXPECT_EQ(recs.back().heard.mask(), expect.mask());
}

TEST(Heartbeat, NoOpFaultHookLeavesEvidenceUnchanged) {
  // With a hook attached, collection passes every live node's record
  // through it, idle records included; a hook that injects nothing must
  // leave the heard evidence as it is without one, slot for slot, under
  // both idle and loaded slots.
  auto run = [](bool with_hook) {
    net::Network n(cfg6());
    std::optional<fault::FaultInjector> inj;
    if (with_hook) inj.emplace(n);  // injects nothing
    n.send_best_effort(1, NodeSet::single(4), 2, Duration::milliseconds(50));
    EXPECT_TRUE(n.fail_node(5));
    std::vector<std::uint64_t> heard;
    n.add_slot_observer([&](const SlotRecord& rec) {
      heard.push_back(rec.heard.mask());
    });
    n.run_slots(30);
    return heard;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace ccredf::net
