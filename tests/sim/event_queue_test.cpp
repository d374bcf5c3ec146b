#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"

namespace ccredf::sim {
namespace {

using namespace ccredf::sim::literals;

TimePoint at(Duration d) { return TimePoint::origin() + d; }

// Fires the earliest event and returns its time.
TimePoint fire(EventQueue& q) {
  TimePoint t;
  q.fire_next(t);
  return t;
}

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), TimePoint::infinity());
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(at(30_ns), [&] { fired.push_back(3); });
  q.schedule(at(10_ns), [&] { fired.push_back(1); });
  q.schedule(at(20_ns), [&] { fired.push_back(2); });
  while (!q.empty()) fire(q);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(at(5_ns), [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) fire(q);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, PopReportsEventTime) {
  EventQueue q;
  q.schedule(at(42_ns), [] {});
  EXPECT_EQ(fire(q), at(42_ns));
}

TEST(EventQueue, NextTimeTracksEarliest) {
  EventQueue q;
  q.schedule(at(50_ns), [] {});
  EXPECT_EQ(q.next_time(), at(50_ns));
  q.schedule(at(20_ns), [] {});
  EXPECT_EQ(q.next_time(), at(20_ns));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(at(10_ns), [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.schedule(at(10_ns), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(9999));
}

TEST(EventQueue, CancelledHeadIsSkipped) {
  EventQueue q;
  std::vector<int> fired;
  const EventId first = q.schedule(at(10_ns), [&] { fired.push_back(1); });
  q.schedule(at(20_ns), [&] { fired.push_back(2); });
  q.cancel(first);
  EXPECT_EQ(q.next_time(), at(20_ns));
  EXPECT_EQ(fire(q), at(20_ns));
  EXPECT_EQ(fired, std::vector<int>{2});
}

TEST(EventQueue, SizeCountsLiveOnly) {
  EventQueue q;
  const EventId a = q.schedule(at(1_ns), [] {});
  q.schedule(at(2_ns), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW((void)fire(q), ConfigError);
}

TEST(EventQueue, ManyInterleavedOperations) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1'000; ++i) {
    ids.push_back(q.schedule(at(Duration::nanoseconds((i * 7) % 100)), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
  TimePoint last = TimePoint::origin();
  std::size_t popped = 0;
  while (!q.empty()) {
    const TimePoint t = fire(q);
    EXPECT_GE(t, last);
    last = t;
    ++popped;
  }
  EXPECT_EQ(popped, 1'000u - (1'000u + 2) / 3);
}

}  // namespace
}  // namespace ccredf::sim
