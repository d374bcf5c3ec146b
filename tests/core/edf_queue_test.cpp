#include "core/edf_queue.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace ccredf::core {
namespace {

using sim::Duration;
using sim::TimePoint;

Message make_msg(MessageId id, TrafficClass cls, std::int64_t deadline_ns,
                 std::int64_t arrival_ns = 0, std::int64_t size = 1) {
  Message m;
  m.id = id;
  m.source = 0;
  m.dests = NodeSet::single(1);
  m.traffic_class = cls;
  m.size_slots = size;
  m.remaining_slots = size;
  m.arrival = TimePoint::origin() + Duration::nanoseconds(arrival_ns);
  m.deadline = deadline_ns < 0
                   ? TimePoint::infinity()
                   : TimePoint::origin() + Duration::nanoseconds(deadline_ns);
  return m;
}

TimePoint later() { return TimePoint::origin() + Duration::seconds(1); }

TEST(EdfQueue, EmptyHeadIsNull) {
  EdfQueueSet q;
  EXPECT_EQ(q.head(later()), nullptr);
  EXPECT_TRUE(q.empty());
}

TEST(EdfQueue, RtOrderedByDeadline) {
  EdfQueueSet q;
  q.push(make_msg(1, TrafficClass::kRealTime, 300));
  q.push(make_msg(2, TrafficClass::kRealTime, 100));
  q.push(make_msg(3, TrafficClass::kRealTime, 200));
  EXPECT_EQ(q.head(later())->id, 2u);
}

TEST(EdfQueue, DeadlineTieBrokenByArrivalThenId) {
  EdfQueueSet q;
  q.push(make_msg(5, TrafficClass::kRealTime, 100, 20));
  q.push(make_msg(4, TrafficClass::kRealTime, 100, 10));
  EXPECT_EQ(q.head(later())->id, 4u);

  EdfQueueSet q2;
  q2.push(make_msg(9, TrafficClass::kRealTime, 100, 10));
  q2.push(make_msg(8, TrafficClass::kRealTime, 100, 10));
  EXPECT_EQ(q2.head(later())->id, 8u);
}

TEST(EdfQueue, ClassPrecedenceRtOverBeOverNrt) {
  // Paper §3: BE only requested when no RT queued; NRT only when neither.
  EdfQueueSet q;
  q.push(make_msg(1, TrafficClass::kNonRealTime, -1));
  EXPECT_EQ(q.head(later())->id, 1u);
  q.push(make_msg(2, TrafficClass::kBestEffort, 1'000'000));
  EXPECT_EQ(q.head(later())->id, 2u);
  q.push(make_msg(3, TrafficClass::kRealTime, 2'000'000));
  EXPECT_EQ(q.head(later())->id, 3u);
}

TEST(EdfQueue, RtWinsEvenWithLooserDeadline) {
  EdfQueueSet q;
  q.push(make_msg(1, TrafficClass::kBestEffort, 10));      // very urgent BE
  q.push(make_msg(2, TrafficClass::kRealTime, 1'000'000));  // relaxed RT
  EXPECT_EQ(q.head(later())->id, 2u);
}

TEST(EdfQueue, EligibilityBySampleTime) {
  EdfQueueSet q;
  q.push(make_msg(1, TrafficClass::kRealTime, 100, /*arrival=*/50));
  const TimePoint before = TimePoint::origin() + Duration::nanoseconds(40);
  const TimePoint after = TimePoint::origin() + Duration::nanoseconds(60);
  EXPECT_EQ(q.head(before), nullptr);
  ASSERT_NE(q.head(after), nullptr);
}

TEST(EdfQueue, IneligibleHeadFallsThroughToLaterMessage) {
  EdfQueueSet q;
  q.push(make_msg(1, TrafficClass::kRealTime, 100, /*arrival=*/50));
  q.push(make_msg(2, TrafficClass::kRealTime, 200, /*arrival=*/0));
  const TimePoint sample = TimePoint::origin() + Duration::nanoseconds(10);
  ASSERT_NE(q.head(sample), nullptr);
  EXPECT_EQ(q.head(sample)->id, 2u);
}

TEST(EdfQueue, IneligibleRtDoesNotUnlockBe) {
  // Class precedence is by *queued* state: an RT message queued but not
  // yet sampled still blocks BE? No -- eligibility is per sampling time;
  // if no RT message is eligible the node may request BE (it cannot know
  // about an RT message that has not arrived yet).
  EdfQueueSet q;
  q.push(make_msg(1, TrafficClass::kRealTime, 100, /*arrival=*/50));
  q.push(make_msg(2, TrafficClass::kBestEffort, 200, /*arrival=*/0));
  const TimePoint sample = TimePoint::origin() + Duration::nanoseconds(10);
  ASSERT_NE(q.head(sample), nullptr);
  EXPECT_EQ(q.head(sample)->id, 2u);
}

TEST(EdfQueue, NrtIsFifoNotDeadlineOrdered) {
  EdfQueueSet q;
  q.push(make_msg(7, TrafficClass::kNonRealTime, -1, 10));
  q.push(make_msg(6, TrafficClass::kNonRealTime, -1, 20));
  EXPECT_EQ(q.head(later())->id, 7u);
}

TEST(EdfQueue, ConsumeSingleSlotMessageCompletes) {
  EdfQueueSet q;
  q.push(make_msg(1, TrafficClass::kRealTime, 100));
  const auto done = q.consume_slot(1);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->id, 1u);
  EXPECT_TRUE(q.empty());
}

TEST(EdfQueue, ConsumeMultiSlotMessageStays) {
  EdfQueueSet q;
  q.push(make_msg(1, TrafficClass::kRealTime, 100, 0, /*size=*/3));
  EXPECT_FALSE(q.consume_slot(1).has_value());
  EXPECT_FALSE(q.consume_slot(1).has_value());
  const auto done = q.consume_slot(1);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->size_slots, 3);
  EXPECT_TRUE(q.empty());
}

TEST(EdfQueue, ConsumeUnknownThrows) {
  EdfQueueSet q;
  EXPECT_THROW((void)q.consume_slot(42), ProtocolError);
}

TEST(EdfQueue, Contains) {
  EdfQueueSet q;
  q.push(make_msg(1, TrafficClass::kBestEffort, 100));
  EXPECT_TRUE(q.contains(1));
  EXPECT_FALSE(q.contains(2));
  (void)q.consume_slot(1);
  EXPECT_FALSE(q.contains(1));
}

TEST(EdfQueue, DropConnection) {
  EdfQueueSet q;
  auto a = make_msg(1, TrafficClass::kRealTime, 100);
  a.connection = 7;
  auto b = make_msg(2, TrafficClass::kRealTime, 200);
  b.connection = 8;
  auto c = make_msg(3, TrafficClass::kRealTime, 300);
  c.connection = 7;
  q.push(a);
  q.push(b);
  q.push(c);
  EXPECT_EQ(q.drop_connection(7), 2u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.head(later())->id, 2u);
}

TEST(EdfQueue, ClearDropsEverything) {
  EdfQueueSet q;
  q.push(make_msg(1, TrafficClass::kRealTime, 100));
  q.push(make_msg(2, TrafficClass::kBestEffort, 100));
  q.push(make_msg(3, TrafficClass::kNonRealTime, -1));
  EXPECT_EQ(q.clear(), 3u);
  EXPECT_TRUE(q.empty());
}

TEST(EdfQueue, SizeOfPerClass) {
  EdfQueueSet q;
  q.push(make_msg(1, TrafficClass::kRealTime, 100));
  q.push(make_msg(2, TrafficClass::kRealTime, 200));
  q.push(make_msg(3, TrafficClass::kBestEffort, 100));
  EXPECT_EQ(q.size_of(TrafficClass::kRealTime), 2u);
  EXPECT_EQ(q.size_of(TrafficClass::kBestEffort), 1u);
  EXPECT_EQ(q.size_of(TrafficClass::kNonRealTime), 0u);
}

TEST(EdfQueue, NrtConsumeLeavesRtAndBeOrderUntouched) {
  // Regression for the old triple-scan consume_slot: consuming an NRT
  // message must not disturb the RT/BE queues or their iteration order.
  EdfQueueSet q;
  q.push(make_msg(10, TrafficClass::kRealTime, 300));
  q.push(make_msg(11, TrafficClass::kRealTime, 100));
  q.push(make_msg(20, TrafficClass::kBestEffort, 200));
  q.push(make_msg(21, TrafficClass::kBestEffort, 50));
  q.push(make_msg(30, TrafficClass::kNonRealTime, -1));
  q.push(make_msg(31, TrafficClass::kNonRealTime, -1));

  const auto done = q.consume_slot(30);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->id, 30u);

  EXPECT_EQ(q.size_of(TrafficClass::kRealTime), 2u);
  EXPECT_EQ(q.size_of(TrafficClass::kBestEffort), 2u);
  EXPECT_EQ(q.size_of(TrafficClass::kNonRealTime), 1u);
  // Drain by precedence and verify the EDF / FIFO order survived.
  const MessageId expect_order[] = {11, 10, 21, 20, 31};
  for (const MessageId id : expect_order) {
    ASSERT_NE(q.head(later()), nullptr);
    EXPECT_EQ(q.head(later())->id, id);
    EXPECT_TRUE(q.consume_slot(id).has_value());
  }
  EXPECT_TRUE(q.empty());
}

TEST(EdfQueue, ConsumeNonFrontNrtMessage) {
  EdfQueueSet q;
  q.push(make_msg(1, TrafficClass::kNonRealTime, -1));
  q.push(make_msg(2, TrafficClass::kNonRealTime, -1));
  q.push(make_msg(3, TrafficClass::kNonRealTime, -1));
  const auto done = q.consume_slot(2);  // middle of the FIFO
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->id, 2u);
  EXPECT_EQ(q.head(later())->id, 1u);
  (void)q.consume_slot(1);
  EXPECT_EQ(q.head(later())->id, 3u);
}

TEST(EdfQueue, RejectsZeroSlotMessage) {
  EdfQueueSet q;
  auto m = make_msg(1, TrafficClass::kRealTime, 100);
  m.size_slots = 0;
  m.remaining_slots = 0;
  EXPECT_THROW(q.push(m), ConfigError);
}

}  // namespace
}  // namespace ccredf::core
