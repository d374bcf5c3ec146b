#include "core/message.hpp"

#include <gtest/gtest.h>

namespace ccredf::core {
namespace {

using sim::Duration;
using sim::TimePoint;

Message rt_msg(std::int64_t deadline_ns) {
  Message m;
  m.id = 1;
  m.source = 0;
  m.dests = NodeSet::single(1);
  m.traffic_class = TrafficClass::kRealTime;
  m.deadline = TimePoint::origin() + Duration::nanoseconds(deadline_ns);
  return m;
}

TEST(Message, LaxityInWholeSlots) {
  const Message m = rt_msg(1'000);
  const Duration slot = Duration::nanoseconds(100);
  EXPECT_EQ(m.laxity_slots(TimePoint::origin(), slot), 10);
  EXPECT_EQ(m.laxity_slots(TimePoint::origin() + Duration::nanoseconds(50),
                           slot),
            9);  // rounds down
  EXPECT_EQ(m.laxity_slots(TimePoint::origin() + Duration::nanoseconds(999),
                           slot),
            0);
}

TEST(Message, LaxityNegativeWhenLate) {
  const Message m = rt_msg(100);
  const Duration slot = Duration::nanoseconds(100);
  EXPECT_LT(m.laxity_slots(TimePoint::origin() + Duration::nanoseconds(300),
                           slot),
            0);
}

TEST(Message, InfiniteDeadlineLaxityIsHuge) {
  Message m = rt_msg(0);
  m.deadline = TimePoint::infinity();
  EXPECT_GT(m.laxity_slots(TimePoint::origin(), Duration::nanoseconds(1)),
            std::int64_t{1} << 60);
}

TEST(Delivery, LatencyAndDeadlineChecks) {
  Delivery d;
  d.arrival = TimePoint::origin() + Duration::nanoseconds(100);
  d.completed = TimePoint::origin() + Duration::nanoseconds(450);
  d.deadline = TimePoint::origin() + Duration::nanoseconds(500);
  EXPECT_EQ(d.latency(), Duration::nanoseconds(350));
  EXPECT_TRUE(d.met_deadline());
  d.deadline = TimePoint::origin() + Duration::nanoseconds(400);
  EXPECT_FALSE(d.met_deadline());
  d.deadline = TimePoint::infinity();
  EXPECT_TRUE(d.met_deadline());
}

TEST(Delivery, ExactDeadlineCounts) {
  Delivery d;
  d.completed = TimePoint::origin() + Duration::nanoseconds(500);
  d.deadline = d.completed;
  EXPECT_TRUE(d.met_deadline());
}

}  // namespace
}  // namespace ccredf::core
