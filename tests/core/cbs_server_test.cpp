#include "core/cbs.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/nodeset.hpp"

namespace ccredf::core {
namespace {

using sim::Duration;
using sim::TimePoint;

constexpr Duration kSlot = Duration::microseconds(1);

CbsParams params(std::int64_t q, std::int64_t t) {
  CbsParams p;
  p.source = 0;
  p.dests = NodeSet::single(1);
  p.budget_slots = q;
  p.period_slots = t;
  return p;
}

TEST(CbsParams, ValidatesRanges) {
  EXPECT_THROW(CbsServer(params(0, 10), kSlot), ConfigError);
  EXPECT_THROW(CbsServer(params(5, 4), kSlot), ConfigError);
  CbsParams no_dest = params(1, 10);
  no_dest.dests = NodeSet{};
  EXPECT_THROW(CbsServer(no_dest, kSlot), ConfigError);
  CbsParams self = params(1, 10);
  self.dests.insert(0);
  EXPECT_THROW(CbsServer(self, kSlot), ConfigError);
  EXPECT_THROW(CbsServer(params(1, 10), Duration::zero()), ConfigError);
}

TEST(CbsParams, AdmissionRecordWeighsLikePeriodicQOverT) {
  const CbsParams p = params(2, 50);
  EXPECT_DOUBLE_EQ(p.utilisation(), 0.04);
  const ConnectionParams rec = p.admission_params();
  EXPECT_EQ(rec.size_slots, 2);
  EXPECT_EQ(rec.period_slots, 50);
  EXPECT_DOUBLE_EQ(rec.utilisation(), p.utilisation());
  EXPECT_EQ(rec.source, p.source);
  EXPECT_EQ(rec.dests, p.dests);
}

TEST(CbsServer, FirstArrivalRecharges) {
  CbsServer s(params(2, 10), kSlot);
  const TimePoint t0 = TimePoint::origin() + Duration::microseconds(3);
  const TimePoint d = s.on_arrival(t0, /*backlogged=*/false);
  // The fresh server's deadline lies in the past, so the wake-up rule
  // must recharge: c = Q, d = t + T.
  EXPECT_EQ(d, t0 + kSlot * 10);
  EXPECT_EQ(s.budget_remaining(), 2);
  EXPECT_EQ(s.recharges(), 1);
}

TEST(CbsServer, IdleArrivalWithinBandwidthInheritsDeadline) {
  CbsServer s(params(2, 10), kSlot);
  const TimePoint t0 = TimePoint::origin();
  const TimePoint d0 = s.on_arrival(t0, false);
  // Consume one budget slot: c = 1, so the wake-up bound c * T/Q = 5us.
  EXPECT_FALSE(s.charge_slot());
  // An idle arrival 2us in: d - now = 8us > 5us, within the reserved
  // bandwidth -- the job inherits (c, d) unchanged.
  const TimePoint d1 =
      s.on_arrival(t0 + Duration::microseconds(2), false);
  EXPECT_EQ(d1, d0);
  EXPECT_EQ(s.budget_remaining(), 1);
  EXPECT_EQ(s.recharges(), 1);
}

TEST(CbsServer, LateIdleArrivalRecharges) {
  CbsServer s(params(2, 10), kSlot);
  const TimePoint t0 = TimePoint::origin();
  s.on_arrival(t0, false);
  EXPECT_FALSE(s.charge_slot());
  // 7us in: d - now = 3us <= bound 5us -- the pair (c, d) would exceed
  // the reserved bandwidth, so the server recharges.
  const TimePoint late = t0 + Duration::microseconds(7);
  const TimePoint d = s.on_arrival(late, false);
  EXPECT_EQ(d, late + kSlot * 10);
  EXPECT_EQ(s.budget_remaining(), 2);
  EXPECT_EQ(s.recharges(), 2);
}

TEST(CbsServer, BackloggedArrivalNeverRecharges) {
  CbsServer s(params(2, 10), kSlot);
  const TimePoint t0 = TimePoint::origin();
  const TimePoint d0 = s.on_arrival(t0, false);
  EXPECT_FALSE(s.charge_slot());
  // Far past the bandwidth bound, but the server is backlogged: the job
  // queues behind the in-service one and inherits the deadline as-is.
  const TimePoint d1 =
      s.on_arrival(t0 + Duration::microseconds(9), /*backlogged=*/true);
  EXPECT_EQ(d1, d0);
  EXPECT_EQ(s.recharges(), 1);
}

TEST(CbsServer, ExhaustionExactlyAtSlotBoundaryPostpones) {
  CbsServer s(params(2, 10), kSlot);
  const TimePoint t0 = TimePoint::origin();
  const TimePoint d0 = s.on_arrival(t0, false);
  // Q = 2: the first granted slot leaves budget, the second exhausts it
  // EXACTLY at the slot boundary -- the postponement must fire on that
  // slot, not one late.
  EXPECT_FALSE(s.charge_slot());
  EXPECT_EQ(s.budget_remaining(), 1);
  EXPECT_TRUE(s.charge_slot());
  EXPECT_EQ(s.budget_remaining(), 2);       // refilled
  EXPECT_EQ(s.deadline(), d0 + kSlot * 10);  // d += T
  EXPECT_EQ(s.postponements(), 1);
}

TEST(CbsServer, RepeatedOverrunSlidesDeadlineLinearly) {
  CbsServer s(params(1, 4), kSlot);
  const TimePoint t0 = TimePoint::origin();
  const TimePoint d0 = s.on_arrival(t0, false);
  for (int k = 1; k <= 5; ++k) {
    EXPECT_TRUE(s.charge_slot());  // Q = 1: every grant postpones
    EXPECT_EQ(s.deadline(), d0 + kSlot * (4 * k));
  }
  EXPECT_EQ(s.postponements(), 5);
}

}  // namespace
}  // namespace ccredf::core
