#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"

namespace ccredf::sim {
namespace {

using namespace ccredf::sim::literals;

TEST(Simulator, StartsAtOrigin) {
  Simulator s;
  EXPECT_EQ(s.now(), TimePoint::origin());
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, ScheduleInFiresAtRightTime) {
  Simulator s;
  TimePoint fired_at;
  s.schedule_in(10_ns, [&] { fired_at = s.now(); });
  s.run_until(TimePoint::origin() + 20_ns);
  EXPECT_EQ(fired_at, TimePoint::origin() + 10_ns);
  EXPECT_EQ(s.now(), TimePoint::origin() + 20_ns);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator s;
  bool ran = false;
  s.schedule_in(50_ns, [&] { ran = true; });
  const std::size_t fired = s.run_until(TimePoint::origin() + 10_ns);
  EXPECT_EQ(fired, 0u);
  EXPECT_FALSE(ran);
  EXPECT_FALSE(s.idle());
  EXPECT_EQ(s.now(), TimePoint::origin() + 10_ns);
}

TEST(Simulator, EventAtHorizonFires) {
  Simulator s;
  bool ran = false;
  s.schedule_in(10_ns, [&] { ran = true; });
  s.run_until(TimePoint::origin() + 10_ns);
  EXPECT_TRUE(ran);
}

TEST(Simulator, EventsChainRecursively) {
  Simulator s;
  std::vector<std::int64_t> times;
  std::function<void()> tick = [&] {
    times.push_back(s.now().since_origin().ps());
    if (times.size() < 5) s.schedule_in(10_ns, tick);
  };
  s.schedule_in(10_ns, tick);
  s.run_all();
  ASSERT_EQ(times.size(), 5u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(times[i], static_cast<std::int64_t>(10'000 * (i + 1)));
  }
}

TEST(Simulator, CannotSchedulePast) {
  Simulator s;
  s.schedule_in(5_ns, [] {});
  s.run_until(TimePoint::origin() + 10_ns);
  EXPECT_THROW(s.schedule_at(TimePoint::origin() + 5_ns, [] {}),
               ConfigError);
  EXPECT_THROW(s.schedule_in(Duration::nanoseconds(-1), [] {}), ConfigError);
}

TEST(Simulator, CancelWorks) {
  struct Once final : ArrivalProcess {
    bool ran = false;
    TimePoint arrive(std::uint32_t /*key*/) override {
      ran = true;
      return TimePoint::infinity();
    }
  } once;
  Simulator s;
  s.arm(TimePoint::origin() + 10_ns, once, 0);
  EXPECT_TRUE(s.disarm(once, 0));
  EXPECT_EQ(s.run_all(), 0u);
  EXPECT_FALSE(once.ran);
}

TEST(Simulator, RunAllCountsEvents) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule_in(Duration::nanoseconds(i), [] {});
  EXPECT_EQ(s.run_all(), 7u);
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, NextEventTime) {
  Simulator s;
  EXPECT_EQ(s.next_event_time(), TimePoint::infinity());
  s.schedule_in(3_ns, [] {});
  EXPECT_EQ(s.next_event_time(), TimePoint::origin() + 3_ns);
}

TEST(Simulator, EventScheduledDuringRunAtSameHorizonFires) {
  Simulator s;
  bool inner = false;
  s.schedule_in(5_ns, [&] { s.schedule_in(0_ps, [&] { inner = true; }); });
  s.run_until(TimePoint::origin() + 5_ns);
  EXPECT_TRUE(inner);
}

}  // namespace
}  // namespace ccredf::sim
