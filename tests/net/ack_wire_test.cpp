// Wire-level fidelity: (a) the ack field of the distribution packet
// carries last slot's completed transfers when with_acks is on; (b) every
// slot's sampled requests and planned distribution are representable in
// the bit-exact TCMA frames (integration between the engine and codec).
#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "net/network.hpp"
#include "support/delivery_log.hpp"
#include "workload/poisson.hpp"

namespace ccredf::net {
namespace {

using sim::Duration;

TEST(AckField, AcksFollowDeliveriesByOneSlot) {
  NetworkConfig cfg;
  cfg.nodes = 6;
  cfg.with_acks = true;
  Network n(cfg);
  std::vector<SlotRecord> recs;
  n.add_slot_observer([&](const SlotRecord& r) { recs.push_back(r); });
  n.send_best_effort(2, NodeSet::single(4), 1, Duration::milliseconds(1));
  n.run_slots(6);
  // Slot k's acks mirror slot k-1's deliveries exactly.
  bool found = false;
  EXPECT_TRUE(recs.front().acks.empty());
  for (std::size_t i = 0; i + 1 < recs.size(); ++i) {
    if (!recs[i].deliveries.empty()) {
      EXPECT_TRUE(recs[i + 1].acks.contains(2));
      found = true;
    } else {
      EXPECT_TRUE(recs[i + 1].acks.empty());
    }
  }
  EXPECT_TRUE(found);
}

TEST(AckField, OffByDefault) {
  NetworkConfig cfg;
  cfg.nodes = 6;
  Network n(cfg);
  std::vector<SlotRecord> recs;
  n.add_slot_observer([&](const SlotRecord& r) { recs.push_back(r); });
  n.send_best_effort(2, NodeSet::single(4), 1, Duration::milliseconds(1));
  n.run_slots(6);
  for (const auto& r : recs) EXPECT_TRUE(r.acks.empty());
}

TEST(AckField, TokenLossDestroysAcks) {
  NetworkConfig cfg;
  cfg.nodes = 6;
  cfg.with_acks = true;
  Network n(cfg);
  fault::FaultInjector inj(n);
  std::vector<SlotRecord> recs;
  n.add_slot_observer([&](const SlotRecord& r) { recs.push_back(r); });
  n.send_best_effort(2, NodeSet::single(4), 1, Duration::milliseconds(1));
  // Message delivers in slot 2 (sampled slot 0/1); kill slot 3's packet.
  inj.schedule_token_loss(3);
  n.run_slots(6);
  for (const auto& r : recs) {
    if (r.token_lost) {
      EXPECT_TRUE(r.acks.empty());
    }
  }
}

// -- payload-CRC NACK wire -----------------------------------------------

NetworkConfig cfg6_nacks() {
  NetworkConfig cfg;
  cfg.nodes = 6;
  cfg.with_acks = true;
  cfg.with_payload_crc = true;
  return cfg;
}

TEST(NackField, CorruptPayloadNacksTheSourceNextSlot) {
  Network n(cfg6_nacks());
  DeliveryLog log(n);
  fault::FaultInjector inj(n);
  // Whichever slot the transfer lands in, its payload is corrupted.
  for (SlotIndex s = 0; s < 6; ++s) inj.schedule_payload_corruption(s, 2);
  std::vector<SlotRecord> recs;
  n.add_slot_observer([&](const SlotRecord& r) { recs.push_back(r); });
  n.send_best_effort(2, NodeSet::single(4), 1, Duration::milliseconds(1));
  n.run_slots(6);
  bool found = false;
  for (std::size_t i = 0; i + 1 < recs.size(); ++i) {
    if (!recs[i].corrupt_deliveries.empty()) {
      EXPECT_EQ(recs[i].corrupt_deliveries.front().source, 2u);
      // The NACK (not an ack) rides the NEXT distribution packet.
      EXPECT_TRUE(recs[i + 1].nacks.contains(2));
      EXPECT_FALSE(recs[i + 1].acks.contains(2));
      found = true;
    } else {
      EXPECT_TRUE(recs[i + 1].nacks.empty());
    }
  }
  EXPECT_TRUE(found);
  // The CRC rejected the garbage before any inbox saw it.
  EXPECT_EQ(log.inbox(4).size(), 0u);
  EXPECT_EQ(n.stats().faults.payload_detected, 1);
  EXPECT_EQ(n.stats().faults.payload_nacks, 1);
}

TEST(NackField, WithoutPayloadCrcCorruptionIsSilentAndUnNacked) {
  NetworkConfig cfg;
  cfg.nodes = 6;
  cfg.with_acks = true;  // acks on, payload CRC off: no NACK wire
  Network n(cfg);
  DeliveryLog log(n);
  fault::FaultInjector inj(n);
  for (SlotIndex s = 0; s < 6; ++s) inj.schedule_payload_corruption(s, 2);
  std::vector<SlotRecord> recs;
  n.add_slot_observer([&](const SlotRecord& r) { recs.push_back(r); });
  n.send_best_effort(2, NodeSet::single(4), 1, Duration::milliseconds(1));
  n.run_slots(6);
  for (const auto& r : recs) EXPECT_TRUE(r.nacks.empty());
  // The garbage reaches the application undetected.
  EXPECT_EQ(log.inbox(4).size(), 1u);
  EXPECT_EQ(n.stats().faults.payload_undetected, 1);
  EXPECT_EQ(n.stats().faults.payload_nacks, 0);
}

TEST(NackField, TokenLossDestroysNacks) {
  // Probe run: find the slot the corrupted transfer lands in (the
  // engine is deterministic, so an identical network repeats it).
  SlotIndex corrupt_slot = -1;
  {
    Network probe(cfg6_nacks());
    fault::FaultInjector inj(probe);
    for (SlotIndex s = 0; s < 6; ++s) inj.schedule_payload_corruption(s, 2);
    probe.add_slot_observer([&](const SlotRecord& r) {
      if (!r.corrupt_deliveries.empty()) corrupt_slot = r.index;
    });
    probe.send_best_effort(2, NodeSet::single(4), 1,
                           Duration::milliseconds(1));
    probe.run_slots(8);
  }
  ASSERT_GE(corrupt_slot, 0);

  // Real run: kill the distribution packet that would carry the NACK
  // back.  The NACK must die with the packet, exactly as acks do.
  Network n(cfg6_nacks());
  fault::FaultInjector inj(n);
  for (SlotIndex s = 0; s < 6; ++s) inj.schedule_payload_corruption(s, 2);
  inj.schedule_token_loss(corrupt_slot + 1);
  std::vector<SlotRecord> recs;
  n.add_slot_observer([&](const SlotRecord& r) { recs.push_back(r); });
  n.send_best_effort(2, NodeSet::single(4), 1, Duration::milliseconds(1));
  n.run_slots(8);
  const auto lost_idx = static_cast<std::size_t>(corrupt_slot + 1);
  ASSERT_LT(lost_idx, recs.size());
  EXPECT_FALSE(
      recs[static_cast<std::size_t>(corrupt_slot)].corrupt_deliveries
          .empty());
  EXPECT_TRUE(recs[lost_idx].token_lost);
  EXPECT_TRUE(recs[lost_idx].nacks.empty());
  EXPECT_EQ(n.stats().faults.payload_nacks, 0);
}

TEST(WireFidelity, EverySlotRoundTripsThroughTheCodec) {
  // Re-encode what the engine actually produced each slot; any field
  // overflow (priority too wide, masks out of range) would throw.
  NetworkConfig cfg;
  cfg.nodes = 12;
  cfg.with_acks = true;
  Network n(cfg);
  std::int64_t slots_checked = 0;
  n.add_slot_observer([&](const SlotRecord& rec) {
    core::CollectionPacket col;
    col.requests = rec.requests;
    const auto enc = n.codec().encode(col);
    ASSERT_EQ(n.codec().decode_collection(enc), col);

    core::DistributionPacket dist;
    dist.granted = rec.granted;
    dist.hp_node = rec.master;  // this slot's master was announced before
    dist.has_acks = true;
    dist.acks = rec.acks;
    const auto denc = n.codec().encode(dist);
    ASSERT_EQ(n.codec().decode_distribution(denc), dist);
    ++slots_checked;
  });
  workload::PoissonParams p;
  p.rate_per_node = 0.8;
  p.seed = 9;
  p.min_size_slots = 1;
  p.max_size_slots = 3;
  workload::PoissonGenerator gen(
      n, p, sim::TimePoint::origin() + n.timing().slot() * 400);
  n.run_slots(500);
  EXPECT_EQ(slots_checked, 500);
}

TEST(WireFidelity, RequestPrioritiesNeverExceedFieldWidth) {
  for (const unsigned bits : {3u, 5u, 8u}) {
    NetworkConfig cfg;
    cfg.nodes = 8;
    cfg.priority.field_bits = bits;
    Network n(cfg);
    const auto max_level = cfg.priority.max_level();
    n.add_slot_observer([&](const SlotRecord& rec) {
      for (const auto& r : rec.requests) {
        EXPECT_LE(r.priority, max_level);
      }
    });
    workload::PoissonParams p;
    p.rate_per_node = 0.5;
    p.min_laxity_slots = 1;
    p.max_laxity_slots = 100000;
    p.seed = 4;
    workload::PoissonGenerator gen(
        n, p, sim::TimePoint::origin() + n.timing().slot() * 200);
    n.run_slots(250);
  }
}

}  // namespace
}  // namespace ccredf::net
