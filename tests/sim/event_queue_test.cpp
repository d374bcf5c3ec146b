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

// Fires each key once, recording the keys in firing order.
class Recorder final : public ArrivalProcess {
 public:
  std::vector<std::uint32_t> fired;

  TimePoint arrive(std::uint32_t key) override {
    fired.push_back(key);
    return TimePoint::infinity();
  }
};

// Cancelling a timer is disarming its key.
TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  Recorder p;
  q.arm(at(10_ns), p, 1);
  EXPECT_TRUE(q.disarm(p, 1));
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(p.fired.empty());
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  Recorder p;
  q.arm(at(10_ns), p, 1);
  EXPECT_TRUE(q.disarm(p, 1));
  EXPECT_FALSE(q.disarm(p, 1));
  q.arm(at(10_ns), p, 2);
  EXPECT_TRUE(q.disarm(p));
  EXPECT_FALSE(q.disarm(p));
}

TEST(EventQueue, CancelUnknownFails) {
  EventQueue q;
  Recorder armed;
  Recorder never;
  q.arm(at(10_ns), armed, 1);
  EXPECT_FALSE(q.disarm(armed, 2));
  EXPECT_FALSE(q.disarm(never, 1));
  EXPECT_FALSE(q.disarm(never));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelledHeadIsSkipped) {
  EventQueue q;
  Recorder p;
  q.arm(at(10_ns), p, 1);
  q.arm(at(20_ns), p, 2);
  q.disarm(p, 1);
  EXPECT_EQ(q.next_time(), at(20_ns));
  EXPECT_EQ(fire(q), at(20_ns));
  EXPECT_EQ(p.fired, std::vector<std::uint32_t>{2});
}

TEST(EventQueue, SizeCountsLiveOnly) {
  EventQueue q;
  Recorder p;
  q.arm(at(1_ns), p, 1);
  q.arm(at(2_ns), p, 2);
  q.schedule(at(3_ns), [] {});
  EXPECT_EQ(q.size(), 3u);
  q.disarm(p, 1);
  EXPECT_EQ(q.size(), 2u);
  q.disarm(p);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW((void)fire(q), ConfigError);
}

TEST(EventQueue, ManyInterleavedOperations) {
  EventQueue q;
  Recorder p;
  for (std::uint32_t i = 0; i < 1'000; ++i) {
    q.arm(at(Duration::nanoseconds((i * 7) % 100)), p, i);
  }
  for (std::uint32_t i = 0; i < 1'000; i += 3) EXPECT_TRUE(q.disarm(p, i));
  TimePoint last = TimePoint::origin();
  while (!q.empty()) {
    const TimePoint t = fire(q);
    EXPECT_GE(t, last);
    last = t;
  }
  ASSERT_EQ(p.fired.size(), 1'000u - (1'000u + 2) / 3);
  for (const std::uint32_t key : p.fired) EXPECT_NE(key % 3, 0u);
}

}  // namespace
}  // namespace ccredf::sim
