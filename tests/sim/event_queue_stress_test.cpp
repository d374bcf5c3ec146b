// Stress the event queue: long interleavings of arm / disarm / fire must
// preserve (time, arming-order) firing, and the closure store must
// recycle its slots instead of growing without bound.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/rng.hpp"

namespace ccredf::sim {
namespace {

TimePoint at_ns(std::int64_t ns) {
  return TimePoint::origin() + Duration::nanoseconds(ns);
}

struct Armed {
  std::int64_t time_ns = 0;
  std::uint32_t serial = 0;  // arming order, the documented tie-break
};

// Fires each key once, recording the keys in firing order.
class Recorder final : public ArrivalProcess {
 public:
  std::vector<std::uint32_t> fired;

  TimePoint arrive(std::uint32_t key) override {
    fired.push_back(key);
    return TimePoint::infinity();
  }
};

TEST(EventQueueStress, InterleavedScheduleCancelPopKeepsOrder) {
  EventQueue q;
  Recorder p;
  Rng rng(0xC0FFEE);
  std::vector<Armed> pending;
  std::vector<Armed> expected;
  std::uint32_t next_serial = 0;
  std::int64_t now_ns = 0;
  const auto in_order = [](const Armed& a, const Armed& b) {
    if (a.time_ns != b.time_ns) return a.time_ns < b.time_ns;
    return a.serial < b.serial;
  };

  for (int round = 0; round < 2'000; ++round) {
    // Arm a burst of fresh keys; a narrow time range forces plenty of
    // ties.
    const int burst = static_cast<int>(rng.uniform_int(1, 6));
    for (int i = 0; i < burst; ++i) {
      Armed a;
      a.time_ns = now_ns + rng.uniform_int(0, 40);
      a.serial = next_serial++;
      q.arm(at_ns(a.time_ns), p, a.serial);
      pending.push_back(a);
    }
    // Disarm a few pending keys at random.
    const int disarms = static_cast<int>(rng.uniform_int(0, 2));
    for (int i = 0; i < disarms && !pending.empty(); ++i) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1));
      EXPECT_TRUE(q.disarm(p, pending[pick].serial));
      EXPECT_FALSE(q.disarm(p, pending[pick].serial));  // already gone
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    // Fire a few entries; the queue decides which fire first.
    const int pops = static_cast<int>(rng.uniform_int(0, 4));
    for (int i = 0; i < pops && !q.empty(); ++i) {
      TimePoint t;
      q.fire_next(t);
      now_ns = std::max(now_ns, (t - TimePoint::origin()).ps() / 1000);
    }
    // Firing consumes from `pending` in (time, serial) order.
    std::sort(pending.begin(), pending.end(), in_order);
    while (expected.size() < p.fired.size() && !pending.empty()) {
      expected.push_back(pending.front());
      pending.erase(pending.begin());
    }
    ASSERT_EQ(q.size(), pending.size());
  }
  TimePoint t;
  while (!q.empty()) q.fire_next(t);
  std::sort(pending.begin(), pending.end(), in_order);
  for (const Armed& a : pending) expected.push_back(a);

  ASSERT_EQ(p.fired.size(), expected.size());
  for (std::size_t i = 0; i < p.fired.size(); ++i) {
    EXPECT_EQ(p.fired[i], expected[i].serial) << "position " << i;
  }
}

TEST(EventQueueStress, SlabPlateausUnderSteadyChurn) {
  EventQueue q;
  Rng rng(42);
  std::size_t live = 0;
  std::int64_t t = 0;

  // Every closure that fires frees a store slot for the next schedule.
  auto churn = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      q.schedule(at_ns(t + rng.uniform_int(1, 100)), [&live] { --live; });
      ++live;
      // Fire one closure whenever the pending population tops 64.
      if (live > 64) {
        TimePoint fired_at;
        q.fire_next(fired_at);
        t = std::max(t, (fired_at - TimePoint::origin()).ps() / 1000);
      }
      ASSERT_EQ(q.size(), live);
    }
  };

  churn(2'000);  // warm-up: reach the peak pending population
  const std::size_t plateau = q.slab_slots();
  EXPECT_EQ(plateau, 65u);
  churn(20'000);
  EXPECT_EQ(q.slab_slots(), plateau)
      << "closure store grew under steady churn: slots are not recycled";
}

}  // namespace
}  // namespace ccredf::sim
