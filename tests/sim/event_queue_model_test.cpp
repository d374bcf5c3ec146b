// Model-based fuzz of EventQueue against a std::multimap reference.
//
// The queue holds closures and arrival entries in one heap.  The
// reference keys every pending entry by (time, seq), where seq counts
// schedules, arms and re-keys in the order the queue performs them -- a
// re-keyed arrival draws its seq after arrive() returns.  Arrivals come
// from FuzzProcesses whose arrive() may itself schedule and cancel
// closures, arm keys and destroy processes (its own included), all
// mirrored into the reference as they happen.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace ccredf::sim {
namespace {

using Handler = std::function<TimePoint(int process, std::uint32_t key)>;

class FuzzProcess final : public ArrivalProcess {
 public:
  FuzzProcess(int id, const Handler& on_arrive)
      : id_(id), on_arrive_(on_arrive) {}

  TimePoint arrive(std::uint32_t key) override {
    return on_arrive_(id_, key);
  }

 private:
  int id_;
  const Handler& on_arrive_;
};

// A fired or pending entry: closure `tag` (process < 0) or `key` of
// `process`.
struct Entry {
  int process = -1;
  std::uint32_t key = 0;
  int tag = -1;
  bool operator==(const Entry&) const = default;
};

using Key = std::pair<std::int64_t, std::uint64_t>;  // (time ps, seq)

TimePoint at_ps(std::int64_t ps) {
  return TimePoint::origin() + Duration::picoseconds(ps);
}

class EventQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueFuzz, MatchesReferenceOrdering) {
  constexpr int kProcesses = 4;
  constexpr std::uint32_t kKeys = 3;
  Rng rng(GetParam());
  EventQueue real;
  std::multimap<Key, Entry> ref;
  std::vector<EventId> live_ids;
  std::vector<Key> id_keys;  // by index into live_ids
  std::vector<Entry> fired_real;
  std::vector<std::unique_ptr<FuzzProcess>> procs(kProcesses);
  std::uint64_t seq = 0;
  int payload = 0;
  TimePoint now = TimePoint::origin();
  // A coarse 10 ps grain makes shared instants common.
  const auto later = [&](std::int64_t span) {
    return now.since_origin().ps() + 10 * rng.uniform_int(0, span);
  };

  const auto schedule = [&](std::int64_t t_ps) {
    const int tag = payload++;
    live_ids.push_back(real.schedule(at_ps(t_ps), [tag, &fired_real] {
      fired_real.push_back(Entry{-1, 0, tag});
    }));
    id_keys.push_back({t_ps, seq});
    ref.emplace(Key{t_ps, seq++}, Entry{-1, 0, tag});
  };
  const auto cancel_random = [&] {
    if (live_ids.empty()) return;
    const auto idx =
        static_cast<std::size_t>(rng.uniform_u64(live_ids.size()));
    const bool ok = real.cancel(live_ids[idx]);
    // The key is unique because seq is unique.
    const auto it = ref.find(id_keys[idx]);
    EXPECT_EQ(ok, it != ref.end());
    if (it != ref.end()) ref.erase(it);
  };
  Handler on_arrive;
  const auto proc = [&](int p) -> std::unique_ptr<FuzzProcess>& {
    return procs[static_cast<std::size_t>(p)];
  };
  const auto arm = [&](std::int64_t t_ps, int p, std::uint32_t key) {
    if (!proc(p)) proc(p) = std::make_unique<FuzzProcess>(p, on_arrive);
    real.arm(at_ps(t_ps), *proc(p), key);
    ref.emplace(Key{t_ps, seq++}, Entry{p, key, -1});
  };
  const auto destroy = [&](int p) {
    proc(p).reset();
    std::erase_if(ref,
                  [p](const auto& kv) { return kv.second.process == p; });
  };
  const auto random_process = [&] {
    return static_cast<int>(rng.uniform_u64(kProcesses));
  };
  const auto random_key = [&] {
    return static_cast<std::uint32_t>(rng.uniform_u64(kKeys));
  };

  // An arrival fires: record it, act on the queue from inside arrive()
  // (never before now), then return the key's next instant.  The narrow
  // window makes the returned instant often equal one just scheduled or
  // armed, which must then fire first: the re-key's seq is drawn last.
  std::optional<TimePoint> returned;
  on_arrive = [&](int p, std::uint32_t key) {
    fired_real.push_back(Entry{p, key, -1});
    for (auto i = rng.uniform_u64(4); i > 0; --i) {
      const auto what = rng.uniform_u64(8);
      if (what < 3) {
        schedule(later(4));
      } else if (what < 6) {
        arm(later(4), random_process(), random_key());
      } else if (what < 7) {
        cancel_random();
      } else {
        destroy(random_process());
      }
    }
    returned = rng.bernoulli(0.15) ? TimePoint::infinity() : at_ps(later(4));
    return *returned;
  };

  // Fires the head and mirrors it: a closure leaves the reference; an
  // arrival whose process survived is re-keyed with a seq drawn now.
  std::int64_t mixed_ties = 0;
  std::optional<std::pair<std::int64_t, bool>> last;  // (time, closure)
  const auto fire = [&] {
    ASSERT_FALSE(ref.empty());
    const Key key = ref.begin()->first;
    const Entry expected = ref.begin()->second;
    const std::size_t fired_before = fired_real.size();
    returned.reset();
    real.fire_next(now);
    ASSERT_EQ(now.since_origin().ps(), key.first);
    // Exactly the head fired: arrive() only schedules and arms.
    ASSERT_EQ(fired_real.size(), fired_before + 1);
    ASSERT_EQ(fired_real.back(), expected);
    const bool closure = expected.process < 0;
    if (last && last->first == key.first && last->second != closure) {
      ++mixed_ties;
    }
    last = {key.first, closure};
    const auto still = ref.find(key);
    if (still == ref.end()) return;  // its process destroyed itself
    ref.erase(still);
    if (!closure) {
      ASSERT_TRUE(returned.has_value());
      if (*returned != TimePoint::infinity()) {
        ref.emplace(Key{returned->since_origin().ps(), seq++}, expected);
      }
    }
  };

  const auto check = [&] {
    ASSERT_EQ(real.size(), ref.size());
    if (ref.empty()) {
      ASSERT_TRUE(real.empty());
      ASSERT_EQ(real.next_time(), TimePoint::infinity());
    } else {
      ASSERT_EQ(real.next_time().since_origin().ps(),
                ref.begin()->first.first);
    }
  };

  for (int op = 0; op < 5'000; ++op) {
    SCOPED_TRACE(op);
    const auto action = rng.uniform_u64(12);
    if (action < 4) {
      schedule(later(40));
    } else if (action < 6) {
      arm(later(40), random_process(), random_key());
    } else if (action < 9) {
      if (!real.empty()) fire();
    } else if (action < 11) {
      cancel_random();
    } else {
      destroy(random_process());
    }
    check();
    if (HasFailure()) return;
  }
  // Destroying every process leaves only closures; drain them.
  for (int p = 0; p < kProcesses; ++p) destroy(p);
  check();
  while (!real.empty() && !HasFailure()) {
    fire();
    check();
  }
  EXPECT_TRUE(ref.empty());
  // The run must have fired a closure and an arrival at one instant.
  EXPECT_GT(mixed_ties, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzz,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace ccredf::sim
