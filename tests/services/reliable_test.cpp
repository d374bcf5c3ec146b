#include "services/reliable.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "fault/injector.hpp"

namespace ccredf::services {
namespace {

using sim::Duration;

net::NetworkConfig cfg6() {
  net::NetworkConfig cfg;
  cfg.nodes = 6;
  return cfg;
}

net::NetworkConfig cfg6_payload_crc() {
  net::NetworkConfig cfg = cfg6();
  cfg.with_acks = true;
  cfg.with_payload_crc = true;
  return cfg;
}

TEST(Reliable, LosslessTransferCompletesFirstAttempt) {
  net::Network n(cfg6());
  ReliableChannel ch(n, ReliableChannel::Params{});
  ReliableChannel::TransferResult result;
  bool done = false;
  ch.send(0, 3, 1, Duration::milliseconds(1),
          [&](const ReliableChannel::TransferResult& r) {
            result = r;
            done = true;
          });
  n.run_slots(10);
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.delivered);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(ch.retransmissions(), 0);
  EXPECT_EQ(ch.transfers_delivered(), 1);
}

TEST(Reliable, RetriedTransferTakesLonger) {
  net::Network clean(cfg6_payload_crc());
  net::Network noisy(cfg6_payload_crc());
  // Every transfer node 0 completes in the first 20 slots is corrupted,
  // so the noisy transfer needs retransmissions to land.
  fault::FaultInjector inj(noisy);
  for (SlotIndex s = 0; s < 20; ++s) inj.schedule_payload_corruption(s, 0);
  ReliableChannel ok(clean, ReliableChannel::Params{});
  ReliableChannel bad(noisy, ReliableChannel::Params{});

  ReliableChannel::TransferResult r_ok, r_bad;
  ok.send(0, 3, 1, Duration::milliseconds(100),
          [&](const ReliableChannel::TransferResult& r) { r_ok = r; });
  bad.send(0, 3, 1, Duration::milliseconds(100),
           [&](const ReliableChannel::TransferResult& r) { r_bad = r; });
  clean.run_slots(800);
  noisy.run_slots(800);
  ASSERT_TRUE(r_ok.delivered);
  ASSERT_TRUE(r_bad.delivered);
  EXPECT_EQ(r_ok.attempts, 1);
  EXPECT_GT(r_bad.attempts, 1);
  EXPECT_GT(r_bad.completed, r_ok.completed);
}

TEST(Reliable, ManyConcurrentTransfers) {
  net::Network n(cfg6_payload_crc());
  fault::FaultInjector inj(n, /*seed=*/11);
  inj.set_data_ber(5e-5);
  ReliableChannel ch(n, ReliableChannel::Params{});
  int completed = 0;
  for (NodeId src = 0; src < 6; ++src) {
    for (int k = 0; k < 5; ++k) {
      ch.send(src, (src + 1 + static_cast<NodeId>(k)) % 6, 1,
              Duration::milliseconds(50),
              [&](const ReliableChannel::TransferResult& r) {
                EXPECT_TRUE(r.delivered);
                ++completed;
              });
    }
  }
  n.run_slots(3000);
  EXPECT_EQ(completed, 30);
  EXPECT_GT(ch.retransmissions(), 0);
}

TEST(Reliable, RejectsBadParams) {
  net::Network n(cfg6());
  ReliableChannel::Params p;
  p.ack_margin_slots = -1;
  EXPECT_THROW(ReliableChannel(n, p), ConfigError);
}

TEST(Reliable, RejectsSelfSend) {
  net::Network n(cfg6());
  ReliableChannel ch(n, ReliableChannel::Params{});
  EXPECT_THROW(ch.send(2, 2, 1, Duration::milliseconds(1), nullptr),
               ConfigError);
}

TEST(Reliable, NackFromPayloadCrcTriggersRetransmission) {
  // Corruption comes from the data fibres, is caught by the receivers'
  // CRC-32, and the NACK on the distribution packet drives the
  // retransmission.
  net::Network n(cfg6_payload_crc());
  fault::FaultInjector inj(n, /*seed=*/17);
  inj.set_data_ber(5e-5);
  ReliableChannel ch(n, ReliableChannel::Params{});
  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    ch.send(0, 3, 1, Duration::milliseconds(50),
            [&](const ReliableChannel::TransferResult& r) {
              EXPECT_TRUE(r.delivered);
              ++completed;
            });
  }
  n.run_slots(1500);
  EXPECT_EQ(completed, 20);
  EXPECT_GT(ch.nacks_received(), 0);
  EXPECT_GT(ch.retransmissions(), 0);
  EXPECT_EQ(ch.transfers_failed(), 0);
  // Every NACK the channel saw is one the engine counted on the wire.
  EXPECT_GE(n.stats().faults.payload_nacks, ch.nacks_received());
  // With the CRC on, nothing reached an application as garbage (the
  // 2^-32 residual is unobservable at these sample sizes).
  EXPECT_EQ(n.stats().faults.payload_undetected, 0);
}

TEST(Reliable, HopelessTransferIsAbandonedEarly) {
  // Every attempt's payload is corrupted; with a deadline that covers
  // only a couple of attempts, the laxity budget must abandon the
  // transfer long before the attempt cap.
  net::Network n(cfg6_payload_crc());
  fault::FaultInjector inj(n);
  for (SlotIndex s = 0; s < 200; ++s) inj.schedule_payload_corruption(s, 0);
  ReliableChannel::Params p;
  p.max_attempts = 16;
  ReliableChannel ch(n, p);
  ReliableChannel::TransferResult result;
  bool done = false;
  ch.send(0, 3, 1, n.timing().slot_plus_max_gap() * 6,
          [&](const ReliableChannel::TransferResult& r) {
            result = r;
            done = true;
          });
  n.run_slots(200);
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.delivered);
  EXPECT_TRUE(result.abandoned);
  EXPECT_LT(result.attempts, p.max_attempts);
  EXPECT_EQ(ch.transfers_abandoned(), 1);
  EXPECT_EQ(ch.transfers_failed(), 1);
  EXPECT_GT(ch.nacks_received(), 0);
}

TEST(Reliable, FixedRetryBaselineBurnsAllAttempts) {
  // Same hopeless scenario with the budget off: the baseline keeps
  // resending until the attempt cap -- the contrast the laxity budget
  // exists to remove.
  net::Network n(cfg6_payload_crc());
  fault::FaultInjector inj(n);
  for (SlotIndex s = 0; s < 400; ++s) inj.schedule_payload_corruption(s, 0);
  ReliableChannel::Params p;
  p.laxity_budgeted = false;
  p.max_attempts = 5;
  ReliableChannel ch(n, p);
  ReliableChannel::TransferResult result;
  bool done = false;
  ch.send(0, 3, 1, n.timing().slot_plus_max_gap() * 6,
          [&](const ReliableChannel::TransferResult& r) {
            result = r;
            done = true;
          });
  n.run_slots(400);
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.delivered);
  EXPECT_FALSE(result.abandoned);
  EXPECT_EQ(result.attempts, 5);
  EXPECT_EQ(ch.transfers_abandoned(), 0);
  EXPECT_EQ(ch.transfers_failed(), 1);
}

TEST(Reliable, InfiniteDeadlineIsNeverAbandoned) {
  // The budget only bites when there IS a deadline.
  net::Network n(cfg6_payload_crc());
  fault::FaultInjector inj(n);
  for (SlotIndex s = 0; s < 400; ++s) inj.schedule_payload_corruption(s, 0);
  ReliableChannel::Params p;
  p.max_attempts = 4;
  ReliableChannel ch(n, p);
  ReliableChannel::TransferResult result;
  bool done = false;
  ch.send(0, 3, 1, Duration::infinity(),
          [&](const ReliableChannel::TransferResult& r) {
            result = r;
            done = true;
          });
  n.run_slots(400);
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.abandoned);
  EXPECT_EQ(result.attempts, 4);  // the cap, not the budget, ended it
  EXPECT_EQ(ch.transfers_abandoned(), 0);
}

}  // namespace
}  // namespace ccredf::services
