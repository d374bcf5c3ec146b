#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "support/delivery_log.hpp"

namespace ccredf::fault {
namespace {

using core::TrafficClass;
using sim::Duration;

net::NetworkConfig cfg6() {
  net::NetworkConfig cfg;
  cfg.nodes = 6;
  return cfg;
}

TEST(Fault, TokenLossTriggersRecovery) {
  net::Network n(cfg6());
  FaultInjector inj(n);
  inj.schedule_token_loss(3);
  n.run_slots(10);
  EXPECT_EQ(inj.token_losses_injected(), 1);
  EXPECT_EQ(n.recoveries(), 1);
  EXPECT_GT(n.recovery_time(), Duration::zero());
}

TEST(Fault, DesignatedRestarterTakesOver) {
  net::NetworkConfig cfg = cfg6();
  cfg.designated_restarter = 2;
  net::Network n(cfg);
  FaultInjector inj(n);
  inj.schedule_token_loss(3);
  std::vector<net::SlotRecord> recs;
  n.add_slot_observer([&](const net::SlotRecord& rec) {
    recs.push_back(rec);
  });
  n.run_slots(6);
  ASSERT_GE(recs.size(), 5u);
  EXPECT_TRUE(recs[3].token_lost);
  EXPECT_EQ(recs[3].next_master, 2u);
  EXPECT_EQ(recs[4].master, 2u);
}

TEST(Fault, RecoveryGapMatchesTimeoutConfig) {
  net::NetworkConfig cfg = cfg6();
  cfg.recovery_timeout_slots = 7;
  net::Network n(cfg);
  FaultInjector inj(n);
  inj.schedule_token_loss(2);
  sim::Duration gap_after_loss = Duration::zero();
  n.add_slot_observer([&](const net::SlotRecord& rec) {
    if (rec.token_lost) gap_after_loss = rec.gap_after;
  });
  n.run_slots(6);
  EXPECT_EQ(gap_after_loss,
            (n.timing().slot() + n.protocol().max_gap()) * 7);
}

TEST(Fault, TrafficSurvivesTokenLoss) {
  net::Network n(cfg6());
  DeliveryLog log(n);
  FaultInjector inj(n);
  inj.schedule_token_loss(2);
  inj.schedule_token_loss(5);
  for (NodeId s = 0; s < 6; ++s) {
    n.send_best_effort(s, NodeSet::single((s + 2) % 6), 1,
                       Duration::milliseconds(50));
  }
  n.run_slots(60);
  std::size_t delivered = 0;
  for (NodeId i = 0; i < 6; ++i) delivered += log.inbox(i).size();
  EXPECT_EQ(delivered, 6u);
  EXPECT_EQ(n.recoveries(), 2);
}

TEST(Fault, GrantsDieWithTheDistributionPacket) {
  net::Network n(cfg6());
  DeliveryLog log(n);
  FaultInjector inj(n);
  // The collection of slot 0 arbitrates slot 1; losing slot 0's
  // distribution kills those grants.
  inj.schedule_token_loss(0);
  n.send_best_effort(0, NodeSet::single(2), 1, Duration::milliseconds(50));
  std::vector<net::SlotRecord> recs;
  n.add_slot_observer([&](const net::SlotRecord& rec) {
    recs.push_back(rec);
  });
  n.run_slots(5);
  EXPECT_TRUE(recs[0].token_lost);
  EXPECT_TRUE(recs[1].granted.empty());
  // The message is re-requested and still delivered afterwards.
  EXPECT_EQ(log.inbox(2).size(), 1u);
}

TEST(Fault, RandomTokenLossRecoversRepeatedly) {
  net::Network n(cfg6());
  FaultInjector inj(n, /*seed=*/5);
  inj.set_random_token_loss(0.05);
  n.run_slots(500);
  EXPECT_GT(inj.token_losses_injected(), 5);
  EXPECT_EQ(n.recoveries(), inj.token_losses_injected());
}

TEST(Fault, FailedNodeDropsTrafficButRingSurvives) {
  net::Network n(cfg6());
  DeliveryLog log(n);
  FaultInjector inj(n);
  inj.schedule_node_failure(3, sim::TimePoint::origin());
  n.send_best_effort(0, NodeSet::single(3), 1, Duration::milliseconds(5));
  n.send_best_effort(1, NodeSet::single(4), 1, Duration::milliseconds(5));
  n.run_slots(20);
  EXPECT_EQ(log.inbox(3).size(), 0u);  // failed receiver drops
  EXPECT_EQ(log.inbox(4).size(), 1u);  // others unaffected
}

TEST(Fault, FailedNodeDoesNotRequest) {
  net::Network n(cfg6());
  DeliveryLog log(n);
  n.send_best_effort(2, NodeSet::single(4), 1, Duration::milliseconds(5));
  n.fail_node(2);  // queue cleared, node silent
  n.run_slots(10);
  EXPECT_EQ(log.inbox(4).size(), 0u);
  EXPECT_EQ(n.stats().busy_slots, 0);
}

TEST(Fault, MasterFailureRecoversViaTimeout) {
  net::Network n(cfg6());
  DeliveryLog log(n);
  FaultInjector inj(n);
  // Node 0 is the initial master; kill it mid-run.
  inj.schedule_node_failure(
      0, sim::TimePoint::origin() + n.timing().slot() / 2);
  n.send_best_effort(3, NodeSet::single(5), 1, Duration::milliseconds(50));
  n.run_slots(20);
  EXPECT_GE(n.recoveries(), 1);
  EXPECT_EQ(log.inbox(5).size(), 1u);
}

TEST(Fault, RestoredNodeWorksAgain) {
  net::Network n(cfg6());
  DeliveryLog log(n);
  FaultInjector inj(n);
  inj.schedule_node_failure(2, sim::TimePoint::origin());
  inj.schedule_node_restore(
      2, sim::TimePoint::origin() + n.timing().slot() * 20);
  n.run_slots(25);
  n.send_best_effort(2, NodeSet::single(5), 1, Duration::milliseconds(5));
  n.run_slots(10);
  EXPECT_EQ(log.inbox(5).size(), 1u);
}

TEST(Fault, InjectorValidatesProbability) {
  net::Network n(cfg6());
  FaultInjector inj(n);
  EXPECT_THROW(inj.set_random_token_loss(1.0), ConfigError);
  EXPECT_THROW(inj.set_random_token_loss(-0.1), ConfigError);
}

TEST(Fault, InjectorValidatesFaultParameters) {
  net::Network n(cfg6());
  FaultInjector inj(n);
  EXPECT_THROW(inj.schedule_collection_drop(0, 6), ConfigError);
  EXPECT_THROW(inj.schedule_collection_corruption(0, 6), ConfigError);
  EXPECT_THROW(inj.schedule_collection_corruption(0, 1, 0), ConfigError);
  EXPECT_THROW(inj.schedule_distribution_corruption(0, 0), ConfigError);
  EXPECT_THROW(inj.set_babbling_node(6, 0.5), ConfigError);
  EXPECT_THROW(inj.set_babbling_node(1, 1.5), ConfigError);
  EXPECT_THROW(inj.set_control_ber(1.0), ConfigError);
  EXPECT_THROW(inj.set_control_ber({0.1, 0.1}), ConfigError);  // 6 links
  EXPECT_THROW(inj.set_data_ber(1.0), ConfigError);
  EXPECT_THROW(inj.set_data_ber({0.1, 0.1}), ConfigError);  // 6 links
  EXPECT_THROW(inj.schedule_payload_corruption(0, 6), ConfigError);
}

// -- satellite: token-loss recovery edge cases ---------------------------

TEST(Fault, AllNodesFailedLeavesRingDarkWithoutPhantomRecoveries) {
  // Regression: with EVERY node failed at token-loss time the restarter
  // search has no live candidate.  The engine must count the window as
  // ring-dark -- not as a recovery, which would poison the recovery-cost
  // statistics with events that never happened.
  net::Network n(cfg6());
  DeliveryLog log(n);
  FaultInjector inj(n);
  for (NodeId i = 0; i < 6; ++i) {
    inj.schedule_node_failure(i, sim::TimePoint::origin());
  }
  n.run_slots(8);
  const auto& f = n.stats().faults;
  EXPECT_GE(f.ring_dark, 1);
  EXPECT_EQ(n.recoveries(), 0);
  EXPECT_EQ(f.recoveries, 0);
  EXPECT_EQ(f.recovery_gap.count(), 0);
  EXPECT_EQ(n.recovery_time(), Duration::zero());

  // A restored node ends the dark window through the normal recovery.
  n.restore_node(3);
  n.restore_node(4);
  n.run_slots(10);
  EXPECT_GE(n.recoveries(), 1);
  n.send_best_effort(3, NodeSet::single(4), 1, Duration::milliseconds(5));
  n.run_slots(10);
  EXPECT_EQ(log.inbox(4).size(), 1u);
}

TEST(Fault, MasterRestoredMidRecoveryYieldsOneClockMaster) {
  // The failed master comes back BEFORE the restarter timeout elapses.
  // The restart plan was already fixed at the loss: the designated
  // restarter -- and only it -- takes the clock; the restored node
  // rejoins as an ordinary participant (no concurrent masters).
  net::NetworkConfig cfg = cfg6();
  cfg.designated_restarter = 2;
  net::Network n(cfg);
  DeliveryLog log(n);
  FaultInjector inj(n);
  inj.schedule_node_failure(
      0, sim::TimePoint::origin() + n.timing().slot() / 2);
  inj.schedule_node_restore(
      0, sim::TimePoint::origin() + n.timing().slot() * 2);
  std::vector<net::SlotRecord> recs;
  n.add_slot_observer([&](const net::SlotRecord& rec) {
    recs.push_back(rec);
  });
  n.run_slots(15);
  ASSERT_GE(recs.size(), 15u);
  std::size_t lost = recs.size();
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].token_lost) {
      lost = i;
      break;
    }
  }
  ASSERT_LT(lost, recs.size() - 1);
  EXPECT_EQ(recs[lost].next_master, 2u);
  EXPECT_EQ(recs[lost + 1].master, 2u);  // restarter, not the restored node
  EXPECT_EQ(n.recoveries(), 1);
  // One clock master: the ring is healthy after the recovery -- the
  // restored node does not break the rotation by asserting a stale clock.
  for (std::size_t i = lost + 1; i < recs.size(); ++i) {
    EXPECT_FALSE(recs[i].token_lost) << "slot " << i;
  }
  n.send_best_effort(0, NodeSet::single(3), 1, Duration::milliseconds(5));
  n.run_slots(10);
  EXPECT_EQ(log.inbox(3).size(), 1u);
}

// -- satellite: node-restore paths ---------------------------------------

TEST(Fault, RestoredMasterAtFailureTimeWorksAgain) {
  // Node 0 is the initial master; killing it breaks the clock, and a
  // restore must bring it back as an ordinary participant.
  net::Network n(cfg6());
  DeliveryLog log(n);
  FaultInjector inj(n);
  inj.schedule_node_failure(
      0, sim::TimePoint::origin() + n.timing().slot() / 2);
  inj.schedule_node_restore(
      0, sim::TimePoint::origin() + n.timing().slot() * 20);
  n.run_slots(25);
  EXPECT_GE(n.recoveries(), 1);
  n.send_best_effort(0, NodeSet::single(3), 1, Duration::milliseconds(5));
  n.run_slots(10);
  EXPECT_EQ(log.inbox(3).size(), 1u);
}

TEST(Fault, FailedRestarterDeputizesThenResumesAfterRestore) {
  // The paper's "designated node that always will start" is itself a
  // single point of failure: when it is down, the first live node
  // downstream must assume the role, and a restore hands it back.
  net::NetworkConfig cfg = cfg6();
  cfg.designated_restarter = 2;
  net::Network n(cfg);
  FaultInjector inj(n);
  inj.schedule_node_failure(2, sim::TimePoint::origin());
  inj.schedule_token_loss(3);
  std::vector<net::SlotRecord> recs;
  n.add_slot_observer([&](const net::SlotRecord& rec) {
    recs.push_back(rec);
  });
  n.run_slots(6);
  ASSERT_GE(recs.size(), 5u);
  EXPECT_TRUE(recs[3].token_lost);
  EXPECT_EQ(recs[3].next_master, 3u);  // deputy: downstream of node 2
  EXPECT_EQ(recs[4].master, 3u);

  n.restore_node(2);
  inj.schedule_token_loss(8);
  n.run_slots(6);
  ASSERT_GE(recs.size(), 10u);
  EXPECT_TRUE(recs[8].token_lost);
  EXPECT_EQ(recs[8].next_master, 2u);  // restored restarter is back
  EXPECT_EQ(recs[9].master, 2u);
}

// -- targeted control-channel corruption ---------------------------------

net::NetworkConfig cfg6_crc() {
  net::NetworkConfig cfg = cfg6();
  cfg.with_frame_crc = true;
  return cfg;
}

TEST(Fault, CollectionCorruptionIsDetectedWithCrcAndMessageSurvives) {
  net::Network n(cfg6_crc());
  DeliveryLog log(n);
  FaultInjector inj(n);
  for (SlotIndex s = 0; s < 5; ++s) {
    inj.schedule_collection_corruption(s, 1);
  }
  n.send_best_effort(1, NodeSet::single(4), 1, Duration::milliseconds(50));
  n.run_slots(20);
  const auto& f = n.stats().faults;
  EXPECT_EQ(f.collection_corruptions, 5);
  EXPECT_EQ(f.collection_detected, 5);
  EXPECT_EQ(f.silent(), 0);
  EXPECT_EQ(n.stats().per_node_faults[1].requests_corrupted, 5);
  EXPECT_EQ(n.stats().per_node_faults[1].requests_rejected, 5);
  EXPECT_GT(inj.bits_flipped(), 0);
  // Containment, not loss: the rejected node re-requests and delivers.
  EXPECT_EQ(log.inbox(4).size(), 1u);
}

TEST(Fault, PriorityFieldCorruptionNeverMisarbitratesWithCrc) {
  // Acceptance check: odd-weight flips (1 or 3 bits) across the record
  // -- priority, reservation and destination fields included -- must
  // all be caught by the CRC (poly 0x07 divides x+1, so every
  // odd-weight error is detected).  No silent misarbitration allowed.
  net::Network n(cfg6_crc());
  FaultInjector inj(n);
  for (SlotIndex s = 0; s < 12; ++s) {
    inj.schedule_collection_corruption(s, 2, s % 2 == 0 ? 1 : 3);
  }
  for (int i = 0; i < 15; ++i) {
    n.send_best_effort(2, NodeSet::single(5), 1,
                       Duration::milliseconds(50));
  }
  n.run_slots(30);
  const auto& f = n.stats().faults;
  EXPECT_EQ(f.collection_corruptions, 12);
  EXPECT_EQ(f.collection_detected, 12);
  EXPECT_EQ(f.silent(), 0);
  EXPECT_EQ(n.stats().priority_inversions, 0);
}

TEST(Fault, WithoutCrcSomeCorruptionSlipsThroughTheGuards) {
  // The plausibility guards alone cannot catch flips that keep the
  // record well-formed (e.g. a mutated priority value): those reach
  // arbitration as silent corruption.  This is the hazard the CRC
  // extension removes -- compare the test above.
  net::Network n(cfg6());  // no CRC
  FaultInjector inj(n);
  for (SlotIndex s = 0; s < 30; ++s) {
    inj.schedule_collection_corruption(s, 2, 1);
  }
  for (int i = 0; i < 35; ++i) {
    n.send_best_effort(2, NodeSet::single(5), 1,
                       Duration::milliseconds(50));
  }
  n.run_slots(40);
  const auto& f = n.stats().faults;
  // Every injected corruption is accounted: detected or silent.
  EXPECT_EQ(f.collection_corruptions,
            f.collection_detected + f.collection_silent);
  EXPECT_EQ(f.collection_corruptions, 30);
  EXPECT_GT(f.collection_silent, 0);
}

TEST(Fault, CollectionDropDelaysButDeliversMessage) {
  net::Network n(cfg6());
  DeliveryLog log(n);
  FaultInjector inj(n);
  inj.schedule_collection_drop(0, 4);
  n.send_best_effort(4, NodeSet::single(1), 1, Duration::milliseconds(50));
  n.run_slots(10);
  EXPECT_EQ(n.stats().faults.collection_drops, 1);
  EXPECT_EQ(n.stats().per_node_faults[4].requests_dropped, 1);
  EXPECT_EQ(log.inbox(1).size(), 1u);
}

TEST(Fault, DistributionCorruptionDetectedTriggersRecovery) {
  // A receiver rejecting the distribution packet is exactly the
  // token-loss condition: the restarter timeout recovers, bounded.
  net::Network n(cfg6_crc());
  FaultInjector inj(n);
  inj.schedule_distribution_corruption(2);
  n.run_slots(10);
  const auto& f = n.stats().faults;
  EXPECT_EQ(f.distribution_corruptions, 1);
  EXPECT_EQ(f.distribution_detected, 1);
  EXPECT_EQ(f.silent(), 0);
  EXPECT_EQ(n.recoveries(), 1);
  EXPECT_EQ(f.recoveries, 1);
  EXPECT_EQ(f.recovery_gap.count(), 1);
  EXPECT_GT(f.recovery_gap.mean(), 0.0);
}

TEST(Fault, BabblingNodeWastesGrantsAndIsCounted) {
  net::Network n(cfg6());
  FaultInjector inj(n);
  inj.set_babbling_node(5, 1.0);
  n.run_slots(20);
  const auto& f = n.stats().faults;
  EXPECT_EQ(f.spurious_requests, 20);
  EXPECT_EQ(n.stats().per_node_faults[5].spurious_requests, 20);
  // Fabricated requests carry no message: every grant they win is waste.
  EXPECT_GT(n.stats().wasted_grants, 0);
  EXPECT_EQ(n.stats().busy_slots, 0);
}

TEST(Fault, BerRunIsDeterministicAcrossIdenticalNetworks) {
  // The keyed fault streams make a BER run a pure function of (seed,
  // slot, channel): two identical networks see identical faults.
  auto run = [](net::NetworkStats* out) -> std::int64_t {
    net::Network n(cfg6_crc());
    FaultInjector inj(n, /*seed=*/7);
    inj.set_control_ber(2e-3);
    for (NodeId i = 0; i < 10; ++i) {
      n.send_best_effort(i % 6, NodeSet::single((i + 3) % 6), 1,
                         Duration::milliseconds(50));
    }
    n.run_slots(300);
    *out = n.stats();
    return inj.bits_flipped();
  };
  net::NetworkStats a, b;
  const std::int64_t fa = run(&a);
  const std::int64_t fb = run(&b);
  EXPECT_EQ(fa, fb);
  EXPECT_GT(fa, 0);
  EXPECT_EQ(a.faults.collection_corruptions, b.faults.collection_corruptions);
  EXPECT_EQ(a.faults.collection_detected, b.faults.collection_detected);
  EXPECT_EQ(a.faults.distribution_corruptions,
            b.faults.distribution_corruptions);
  EXPECT_EQ(a.faults.recoveries, b.faults.recoveries);
  // Accounting identity: every corrupted record is classified.
  EXPECT_EQ(a.faults.collection_corruptions,
            a.faults.collection_detected + a.faults.collection_silent);
}

TEST(Fault, IdleInjectorLeavesTheNetworkUntouched) {
  // An attached hook with nothing configured must not perturb the run:
  // the fault counters stay zero and traffic behaves as without it.
  net::Network clean(cfg6());
  DeliveryLog clean_log(clean);
  net::Network hooked(cfg6());
  DeliveryLog hooked_log(hooked);
  FaultInjector inj(hooked, /*seed=*/9);
  for (net::Network* n : {&clean, &hooked}) {
    for (NodeId s = 0; s < 6; ++s) {
      n->send_best_effort(s, NodeSet::single((s + 2) % 6), 1,
                          Duration::milliseconds(50));
    }
    n->run_slots(30);
  }
  EXPECT_EQ(inj.bits_flipped(), 0);
  EXPECT_EQ(hooked.stats().faults.detected(), 0);
  EXPECT_EQ(hooked.stats().faults.silent(), 0);
  EXPECT_EQ(hooked.stats().faults.token_losses, 0);
  for (NodeId i = 0; i < 6; ++i) {
    EXPECT_EQ(hooked_log.inbox(i).size(), clean_log.inbox(i).size());
  }
  EXPECT_EQ(hooked.stats().busy_slots, clean.stats().busy_slots);
}

TEST(Fault, FramesMissedByTheBerStillGetTheEncoderFieldChecks) {
  // At a BER whose keyed draws flip nothing, the filters never build a
  // wire image, yet a record or packet the encoder would refuse must be
  // refused all the same.
  net::Network n(cfg6());
  FaultInjector inj(n);
  inj.set_control_ber(1e-15);
  using RF = net::FaultHook::RequestFault;
  using DF = net::FaultHook::DistributionFault;

  core::Request live;
  live.priority = n.codec().layout().max_level();
  live.dests = NodeSet::single(3);
  live.links = LinkSet::from_mask(0b0110);  // links 1..2: node 1 -> 3
  core::Request wide = live;
  wide.priority = static_cast<core::Priority>(live.priority + 1);
  EXPECT_THROW((void)inj.filter_request(0, 1, 1, wide), ConfigError);
  core::Request idle;
  idle.dests = NodeSet::single(3);  // priority 0 with a non-zero field
  EXPECT_THROW((void)inj.filter_request(0, 1, 1, idle), ConfigError);
  EXPECT_EQ(inj.filter_request(0, 1, 1, live), RF::kNone);

  core::DistributionPacket p;
  p.granted = NodeSet::single(1);
  p.hp_node = 1;
  EXPECT_EQ(inj.filter_distribution(0, p), DF::kNone);
  core::DistributionPacket bad_hp = p;
  bad_hp.hp_node = 6;
  EXPECT_THROW((void)inj.filter_distribution(0, bad_hp), ConfigError);
  core::DistributionPacket stray_acks = p;
  stray_acks.has_acks = true;  // this network carries no ack field
  EXPECT_THROW((void)inj.filter_distribution(0, stray_acks), ConfigError);
  core::DistributionPacket stray_nacks = p;
  stray_nacks.has_nacks = true;
  EXPECT_THROW((void)inj.filter_distribution(0, stray_nacks), ConfigError);

  EXPECT_EQ(inj.bits_flipped(), 0);  // every frame above took the miss
}

// -- data-channel (payload) faults ---------------------------------------

net::NetworkConfig cfg6_payload_crc() {
  net::NetworkConfig cfg = cfg6();
  cfg.with_acks = true;
  cfg.with_payload_crc = true;
  return cfg;
}

TEST(Fault, PayloadCorruptionDetectedWithPayloadCrc) {
  net::Network n(cfg6_payload_crc());
  DeliveryLog log(n);
  FaultInjector inj(n);
  for (SlotIndex s = 0; s < 6; ++s) inj.schedule_payload_corruption(s, 1);
  n.send_best_effort(1, NodeSet::single(4), 1, Duration::milliseconds(50));
  n.run_slots(10);
  const auto& f = n.stats().faults;
  EXPECT_EQ(f.payload_corruptions, 1);
  EXPECT_EQ(f.payload_detected, 1);
  EXPECT_EQ(f.payload_undetected, 0);
  EXPECT_EQ(f.payload_nacks, 1);
  EXPECT_EQ(n.stats().per_node_faults[1].payloads_corrupted, 1);
  EXPECT_GT(inj.data_bits_flipped(), 0);
  EXPECT_EQ(inj.bits_flipped(), 0);  // control channel untouched
  // The receivers drop the garbage; the engine itself never retries
  // (end-to-end repair is the ReliableChannel's job).
  EXPECT_EQ(log.inbox(4).size(), 0u);
}

TEST(Fault, PayloadCorruptionSilentWithoutPayloadCrc) {
  net::Network n(cfg6());
  DeliveryLog log(n);
  FaultInjector inj(n);
  for (SlotIndex s = 0; s < 6; ++s) inj.schedule_payload_corruption(s, 1);
  n.send_best_effort(1, NodeSet::single(4), 1, Duration::milliseconds(50));
  n.run_slots(10);
  const auto& f = n.stats().faults;
  EXPECT_EQ(f.payload_corruptions, 1);
  EXPECT_EQ(f.payload_detected, 0);
  EXPECT_EQ(f.payload_undetected, 1);
  EXPECT_EQ(f.payload_nacks, 0);
  EXPECT_GE(f.silent(), 1);
  // The corrupted payload reaches the application as garbage.
  EXPECT_EQ(log.inbox(4).size(), 1u);
}

TEST(Fault, DataBerRunIsDeterministicAcrossIdenticalNetworks) {
  // The data-channel fault stream is keyed on (seed, slot, channel)
  // exactly as the control stream: identical networks see identical
  // payload corruption, and every corruption is classified.
  auto run = [](net::NetworkStats* out) -> std::int64_t {
    net::Network n(cfg6_payload_crc());
    FaultInjector inj(n, /*seed=*/7);
    inj.set_data_ber(1e-4);
    for (NodeId i = 0; i < 24; ++i) {
      n.send_best_effort(i % 6, NodeSet::single((i + 3) % 6), 1,
                         Duration::milliseconds(50));
    }
    n.run_slots(300);
    *out = n.stats();
    return inj.data_bits_flipped();
  };
  net::NetworkStats a, b;
  const std::int64_t fa = run(&a);
  const std::int64_t fb = run(&b);
  EXPECT_EQ(fa, fb);
  EXPECT_GT(fa, 0);
  EXPECT_EQ(a.faults.payload_corruptions, b.faults.payload_corruptions);
  EXPECT_EQ(a.faults.payload_detected, b.faults.payload_detected);
  EXPECT_EQ(a.faults.payload_nacks, b.faults.payload_nacks);
  EXPECT_GT(a.faults.payload_corruptions, 0);
  // Accounting identity: every corrupted payload is classified.
  EXPECT_EQ(a.faults.payload_corruptions,
            a.faults.payload_detected + a.faults.payload_undetected);
}

}  // namespace
}  // namespace ccredf::fault
