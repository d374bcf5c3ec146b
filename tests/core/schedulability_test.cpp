#include "core/schedulability.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/clocking.hpp"

namespace ccredf::core {
namespace {

using sim::Duration;

phy::RingPhy test_ring(NodeId n = 8, double len = 10.0) {
  return phy::RingPhy(phy::optobus(), n, len);
}

TEST(SlotTiming, MinSlotMatchesEq2) {
  // Eq. 2: t_minslot = N * t_node + t_prop.
  const auto ring = test_ring(8, 10.0);
  const SlotTiming t(ring, 512);
  // N * t_node: 8 nodes * 2 bits * 2.5 ns = 40 ns; t_prop: 8 * 50 = 400 ns.
  EXPECT_EQ(t.min_slot(), Duration::nanoseconds(440));
}

TEST(SlotTiming, SlotIsPayloadBytesTimesBitTime) {
  const auto ring = test_ring();
  const SlotTiming t(ring, 1024);
  EXPECT_EQ(t.slot(), Duration::nanoseconds(2560));  // 1024 * 2.5 ns
  EXPECT_EQ(t.payload_bytes(), 1024);
}

TEST(SlotTiming, PayloadBelowEq2Rejected) {
  const auto ring = test_ring(8, 10.0);
  // min slot 440 ns => min payload 176 bytes.
  EXPECT_THROW(SlotTiming(ring, 100), ConfigError);
  EXPECT_NO_THROW(SlotTiming(ring, 176));
}

TEST(SlotTiming, MinPayloadBytesIsTight) {
  const auto ring = test_ring(8, 10.0);
  const std::int64_t min = SlotTiming::min_payload_bytes(ring);
  EXPECT_EQ(min, 176);
  EXPECT_NO_THROW(SlotTiming(ring, min));
  EXPECT_THROW(SlotTiming(ring, min - 1), ConfigError);
}

TEST(SlotTiming, MinPayloadGrowsWithRingSize) {
  const std::int64_t small = SlotTiming::min_payload_bytes(test_ring(4));
  const std::int64_t large = SlotTiming::min_payload_bytes(test_ring(32));
  EXPECT_LT(small, large);
}

TEST(SlotTiming, MaxHandoverMatchesEq1WorstCase) {
  const auto ring = test_ring(8, 10.0);
  const SlotTiming t(ring, 512);
  // Eq. 1 with D = N-1: 7 * 50 ns, plus stop+detect bits (2 * 2.5 ns).
  EXPECT_EQ(t.max_handover(), Duration::nanoseconds(355));
}

TEST(SlotTiming, UmaxMatchesEq6) {
  const auto ring = test_ring(8, 10.0);
  const SlotTiming t(ring, 512);
  const double t_slot = 512 * 2.5;       // ns
  const double t_gap = 7 * 50 + 2 * 2.5;  // ns
  EXPECT_NEAR(t.u_max(), t_slot / (t_slot + t_gap), 1e-12);
  EXPECT_LT(t.u_max(), 1.0);
  EXPECT_GT(t.u_max(), 0.0);
}

TEST(SlotTiming, UmaxImprovesWithLargerSlots) {
  // Eq. 6: a longer slot amortises the hand-over gap.
  const auto ring = test_ring(8, 10.0);
  EXPECT_GT(SlotTiming(ring, 4096).u_max(), SlotTiming(ring, 512).u_max());
}

TEST(SlotTiming, UmaxDegradesWithLongerRing) {
  const auto near = test_ring(8, 10.0);
  const auto far = test_ring(8, 100.0);
  EXPECT_GT(SlotTiming(near, 4096).u_max(), SlotTiming(far, 4096).u_max());
}

TEST(SlotTiming, WorstCaseLatencyMatchesEq4) {
  const auto ring = test_ring(8, 10.0);
  const SlotTiming t(ring, 512);
  EXPECT_EQ(t.worst_case_latency(), 2 * t.slot() + t.max_handover());
}

TEST(SlotTiming, MaxDelayMatchesEq3) {
  const auto ring = test_ring(8, 10.0);
  const SlotTiming t(ring, 512);
  const Duration deadline = Duration::microseconds(50);
  EXPECT_EQ(t.max_delay(deadline), deadline + t.worst_case_latency());
}

TEST(SlotTiming, SlotPlusMaxGap) {
  const auto ring = test_ring(8, 10.0);
  const SlotTiming t(ring, 512);
  EXPECT_EQ(t.slot_plus_max_gap(), t.slot() + t.max_handover());
}

TEST(HandoverModel, GapMatchesEq1PlusStopBits) {
  const auto ring = test_ring(8, 10.0);
  const HandoverModel h(&ring);
  // 2 stop/detect bits at 2.5 ns.
  const Duration bits = Duration::nanoseconds(5);
  EXPECT_EQ(h.gap(0, 0), bits);                                  // D = 0
  EXPECT_EQ(h.gap(0, 1), Duration::nanoseconds(50) + bits);      // D = 1
  EXPECT_EQ(h.gap(0, 7), Duration::nanoseconds(350) + bits);     // D = 7
  EXPECT_EQ(h.gap(5, 4), Duration::nanoseconds(350) + bits);     // wraps
}

TEST(HandoverModel, MaxGapIsWorstCase) {
  const auto ring = test_ring(8, 10.0);
  const HandoverModel h(&ring);
  for (NodeId f = 0; f < 8; ++f) {
    for (NodeId t = 0; t < 8; ++t) {
      EXPECT_LE(h.gap(f, t), h.max_gap());
    }
  }
}

TEST(HandoverModel, RoundRobinGapIsOneHop) {
  const auto ring = test_ring(8, 10.0);
  const HandoverModel h(&ring);
  EXPECT_EQ(h.round_robin_gap(3), h.gap(3, 4));
}

ConnectionParams conn(std::int64_t e, std::int64_t p) {
  ConnectionParams c;
  c.source = 0;
  c.dests = NodeSet::single(1);
  c.size_slots = e;
  c.period_slots = p;
  return c;
}

TEST(EdfFeasibility, TotalUtilisationSums) {
  const std::vector<ConnectionParams> set{conn(1, 4), conn(1, 2), conn(3, 12)};
  EXPECT_NEAR(total_utilisation(set), 0.25 + 0.5 + 0.25, 1e-12);
}

TEST(ConnectionParams, UtilisationAndValidation) {
  auto c = conn(2, 10);
  EXPECT_DOUBLE_EQ(c.utilisation(), 0.2);
  EXPECT_EQ(c.effective_deadline_slots(), 10);
  c.deadline_slots = 5;
  EXPECT_EQ(c.effective_deadline_slots(), 5);
  c.validate();

  auto bad = conn(5, 4);  // size > period
  EXPECT_THROW(bad.validate(), ConfigError);
  auto bad2 = conn(1, 4);
  bad2.dests = NodeSet{};
  EXPECT_THROW(bad2.validate(), ConfigError);
  auto bad3 = conn(4, 8);
  bad3.deadline_slots = 2;  // shorter than the message itself
  EXPECT_THROW(bad3.validate(), ConfigError);
}

}  // namespace
}  // namespace ccredf::core
