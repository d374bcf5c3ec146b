// Stress the pooled event queue: long interleavings of schedule / cancel
// / fire must preserve (time, scheduling-order) firing, and the slab must
// recycle slots instead of growing without bound.
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

struct Scheduled {
  EventId id = 0;
  std::int64_t time_ns = 0;
  std::uint64_t serial = 0;  // scheduling order, the documented tie-break
  bool cancelled = false;
};

TEST(EventQueueStress, InterleavedScheduleCancelPopKeepsOrder) {
  EventQueue q;
  Rng rng(0xC0FFEE);
  std::vector<Scheduled> pending;
  std::vector<std::uint64_t> fired;  // serials, in firing order
  std::vector<Scheduled> expected;
  std::uint64_t next_serial = 0;
  std::int64_t now_ns = 0;

  for (int round = 0; round < 2'000; ++round) {
    // Schedule a burst; a narrow time range forces plenty of ties.
    const int burst = static_cast<int>(rng.uniform_int(1, 6));
    for (int i = 0; i < burst; ++i) {
      Scheduled s;
      s.time_ns = now_ns + rng.uniform_int(0, 40);
      s.serial = next_serial++;
      s.id = q.schedule(at_ns(s.time_ns), [&fired, serial = s.serial] {
        fired.push_back(serial);
      });
      pending.push_back(s);
    }
    // Cancel a few pending events at random.
    const int cancels = static_cast<int>(rng.uniform_int(0, 2));
    for (int i = 0; i < cancels && !pending.empty(); ++i) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1));
      Scheduled& victim = pending[pick];
      EXPECT_TRUE(q.cancel(victim.id));
      EXPECT_FALSE(q.cancel(victim.id));  // second cancel must fail
      victim.cancelled = true;
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    // Fire a few events; the queue decides which fire first.
    const int pops = static_cast<int>(rng.uniform_int(0, 4));
    for (int i = 0; i < pops && !q.empty(); ++i) {
      TimePoint t;
      q.fire_next(t);
      now_ns = std::max(now_ns, (t - TimePoint::origin()).ps() / 1000);
    }
    // Firing consumes from `pending` in (time, serial) order.
    std::sort(pending.begin(), pending.end(),
              [](const Scheduled& a, const Scheduled& b) {
                if (a.time_ns != b.time_ns) return a.time_ns < b.time_ns;
                return a.serial < b.serial;
              });
    while (expected.size() < fired.size() && !pending.empty()) {
      expected.push_back(pending.front());
      pending.erase(pending.begin());
    }
  }
  TimePoint t;
  while (!q.empty()) q.fire_next(t);
  std::sort(pending.begin(), pending.end(),
            [](const Scheduled& a, const Scheduled& b) {
              if (a.time_ns != b.time_ns) return a.time_ns < b.time_ns;
              return a.serial < b.serial;
            });
  for (const Scheduled& s : pending) expected.push_back(s);

  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], expected[i].serial) << "position " << i;
  }
}

TEST(EventQueueStress, SlabPlateausUnderSteadyChurn) {
  EventQueue q;
  Rng rng(42);
  std::vector<std::pair<EventId, std::uint64_t>> live;  // (handle, serial)
  std::vector<std::uint64_t> fired;
  std::uint64_t serial = 0;
  std::int64_t t = 0;

  auto churn = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      live.emplace_back(
          q.schedule(at_ns(t + rng.uniform_int(1, 100)),
                     [&fired, s = serial] { fired.push_back(s); }),
          serial);
      ++serial;
      // Retire one event whenever the pending population tops 64; half
      // the turnover goes through cancel, half through firing.
      if (live.size() > 64) {
        if (rng.bernoulli(0.5)) {
          const auto pick = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
          EXPECT_TRUE(q.cancel(live[pick].first));
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        } else {
          fired.clear();
          TimePoint fired_at;
          q.fire_next(fired_at);
          t = std::max(t, (fired_at - TimePoint::origin()).ps() / 1000);
          ASSERT_EQ(fired.size(), 1u);
          std::erase_if(live, [&](const auto& e) {
            return e.second == fired.front();
          });
        }
      }
      ASSERT_EQ(q.size(), live.size());
    }
  };

  churn(2'000);  // warm-up: reach the peak pending population
  const std::size_t plateau = q.slab_slots();
  churn(20'000);
  EXPECT_EQ(q.slab_slots(), plateau)
      << "slab grew under steady churn: slots are not being recycled";
}

}  // namespace
}  // namespace ccredf::sim
