// Model-based fuzzing of EdfQueueSet: random operation sequences checked
// against a deliberately naive reference implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/edf_queue.hpp"
#include "sim/rng.hpp"

namespace ccredf::core {
namespace {

using sim::Duration;
using sim::TimePoint;

/// A brain-dead reference: flat vector + linear scans.
class ReferenceQueue {
 public:
  void push(Message m) { msgs_.push_back(std::move(m)); }

  [[nodiscard]] const Message* head(TimePoint sample) const {
    const Message* best = nullptr;
    // Class precedence first, then EDF (deadline, arrival, id).  For NRT
    // the order is FIFO, which we emulate with (arrival, push order);
    // push order is id order in this fuzz (ids ascend).
    for (int cls = 2; cls >= 0; --cls) {
      for (const auto& m : msgs_) {
        if (static_cast<int>(m.traffic_class) != cls) continue;
        if (m.arrival > sample) continue;
        if (best == nullptr) {
          best = &m;
          continue;
        }
        if (cls == 0) {  // NRT FIFO: first pushed wins (ids ascend)
          if (m.id < best->id) best = &m;
          continue;
        }
        const auto key = [](const Message& x) {
          return std::tuple(x.deadline, x.arrival, x.id);
        };
        if (key(m) < key(*best)) best = &m;
      }
      if (best != nullptr) return best;
    }
    return nullptr;
  }

  [[nodiscard]] bool contains(MessageId id) const {
    return std::ranges::any_of(msgs_,
                               [id](const Message& m) { return m.id == id; });
  }

  std::optional<Message> consume_slot(MessageId id) {
    for (auto it = msgs_.begin(); it != msgs_.end(); ++it) {
      if (it->id != id) continue;
      if (--it->remaining_slots > 0) return std::nullopt;
      Message done = *it;
      msgs_.erase(it);
      return done;
    }
    return std::nullopt;  // unreachable: the fuzz checks contains first
  }

  std::size_t drop_connection(ConnectionId c) {
    const auto before = msgs_.size();
    std::erase_if(msgs_, [c](const Message& m) { return m.connection == c; });
    return before - msgs_.size();
  }

  /// New deadline for the connection's RT/BE messages; NRT keeps its
  /// infinite deadline and FIFO place.
  std::size_t reschedule_connection(ConnectionId c, TimePoint deadline) {
    std::size_t moved = 0;
    for (auto& m : msgs_) {
      if (m.connection != c || m.traffic_class == TrafficClass::kNonRealTime ||
          m.deadline == deadline) {
        continue;
      }
      m.deadline = deadline;
      ++moved;
    }
    return moved;
  }

  std::size_t clear() {
    const auto n = msgs_.size();
    msgs_.clear();
    return n;
  }

  [[nodiscard]] std::size_t size() const { return msgs_.size(); }
  [[nodiscard]] std::size_t size_of(TrafficClass c) const {
    return static_cast<std::size_t>(std::ranges::count(
        msgs_, c, [](const Message& m) { return m.traffic_class; }));
  }

 private:
  std::vector<Message> msgs_;
};

class EdfModelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EdfModelFuzz, MatchesReferenceOnRandomOps) {
  sim::Rng rng(GetParam());
  EdfQueueSet real;
  ReferenceQueue ref;
  MessageId next_id = 1;
  std::int64_t now_ns = 0;
  // The head the last sample bound.  Like the engine's grant one slot
  // later, it is consumed at the next sample, after the pushes, drops and
  // re-keys in between.
  MessageId bound = 0;

  for (int op = 0; op < 2'000; ++op) {
    now_ns += rng.uniform_int(0, 50);
    const TimePoint now = TimePoint::origin() + Duration::nanoseconds(now_ns);
    const auto action = rng.uniform_u64(20);
    if (action < 9) {  // push
      Message m;
      m.id = next_id++;
      m.source = 0;
      m.dests = NodeSet::single(1);
      const auto cls = rng.uniform_u64(3);
      m.traffic_class = static_cast<TrafficClass>(cls);
      m.size_slots = rng.uniform_int(1, 4);
      m.remaining_slots = m.size_slots;
      // Arrivals may be "in the future" relative to later samples.
      m.arrival = now + Duration::nanoseconds(rng.uniform_int(0, 100));
      m.deadline = m.traffic_class == TrafficClass::kNonRealTime
                       ? TimePoint::infinity()
                       : m.arrival + Duration::nanoseconds(
                                         rng.uniform_int(1, 1'000));
      m.connection = static_cast<ConnectionId>(rng.uniform_u64(5));
      real.push(m);
      ref.push(m);
    } else if (action < 14) {  // grant the bound head, then sample anew
      if (bound != 0) {
        ASSERT_EQ(real.contains(bound), ref.contains(bound)) << "op " << op;
        if (ref.contains(bound)) {
          const auto da = real.consume_slot(bound);
          const auto db = ref.consume_slot(bound);
          ASSERT_EQ(da.has_value(), db.has_value()) << "op " << op;
          if (da) {
            ASSERT_EQ(da->id, db->id);
            ASSERT_EQ(da->deadline, db->deadline);
          }
        }
      }
      const TimePoint sample =
          now + Duration::nanoseconds(rng.uniform_int(0, 120));
      const Message* a = real.head(sample);
      const Message* b = ref.head(sample);
      ASSERT_EQ(a == nullptr, b == nullptr) << "op " << op;
      bound = 0;
      if (a != nullptr) {
        ASSERT_EQ(a->id, b->id) << "op " << op;
        ASSERT_EQ(a->deadline, b->deadline) << "op " << op;
        bound = a->id;
      }
    } else if (action == 14) {  // drop a random connection
      const auto c = static_cast<ConnectionId>(rng.uniform_u64(5));
      ASSERT_EQ(real.drop_connection(c), ref.drop_connection(c));
    } else if (action < 17) {  // CBS-style re-key of a connection
      const auto c = static_cast<ConnectionId>(rng.uniform_u64(5));
      const TimePoint d =
          now + Duration::nanoseconds(rng.uniform_int(1, 1'000));
      ASSERT_EQ(real.reschedule_connection(c, d),
                ref.reschedule_connection(c, d))
          << "op " << op;
    } else if (action == 17) {  // live, consumed or never-pushed id
      const auto id = static_cast<MessageId>(
          rng.uniform_int(1, static_cast<std::int64_t>(next_id) + 4));
      ASSERT_EQ(real.contains(id), ref.contains(id)) << "op " << op;
    } else if (action == 18 && rng.uniform_u64(10) == 0) {  // node failure
      ASSERT_EQ(real.clear(), ref.clear());
    } else {  // size probe
      ASSERT_EQ(real.size(), ref.size());
      for (const auto c : {TrafficClass::kRealTime, TrafficClass::kBestEffort,
                           TrafficClass::kNonRealTime}) {
        ASSERT_EQ(real.size_of(c), ref.size_of(c)) << "op " << op;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdfModelFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace ccredf::core
