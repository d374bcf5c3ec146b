// The discrete-event simulator driving all experiments.
//
// The protocol engines (net::Network and the MAC drivers) advance the clock
// slot by slot.  Releases, timeouts, faults and churn are closure events
// on this queue; workload generators are arrival processes armed on it
// (sim::ArrivalProcess).  Network::run_*() interleaves the two: before
// each slot boundary it fires every event with timestamp <= that boundary.
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace ccredf::sim {

class Simulator {
 public:
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` after `delay` from now.
  EventId schedule_in(Duration delay, EventQueue::Callback fn) {
    CCREDF_EXPECT(delay >= Duration::zero(),
                  "Simulator: cannot schedule into the past");
    return queue_.schedule(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at absolute time `at` (must not precede now()).
  EventId schedule_at(TimePoint at, EventQueue::Callback fn) {
    CCREDF_EXPECT(at >= now_, "Simulator: cannot schedule into the past");
    return queue_.schedule(at, std::move(fn));
  }

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Arms `key` of `process` at absolute time `at` (must not precede
  /// now(); infinity arms nothing).  See ArrivalProcess.
  void arm(TimePoint at, ArrivalProcess& process, std::uint32_t key) {
    CCREDF_EXPECT(at >= now_, "Simulator: cannot arm into the past");
    queue_.arm(at, process, key);
  }

  /// Runs all events with time <= horizon, advancing now() to each event
  /// time; finally sets now() = horizon.  Returns the number of events run.
  /// The slot engine calls this at every intra-slot phase boundary and
  /// usually nothing is due, so that case stays inline (one heap peek).
  std::size_t run_until(TimePoint horizon) {
    if (queue_.next_time() > horizon) {
      if (horizon > now_) now_ = horizon;
      return 0;
    }
    return run_until_slow(horizon);
  }

  /// Runs every pending event; returns the number run.
  std::size_t run_all();

  /// Advances the clock with no event processing (used by the slot engine
  /// for intra-slot phases; callers must have drained earlier events).
  void advance_to(TimePoint t) {
    CCREDF_EXPECT(t >= now_, "Simulator: clock cannot move backwards");
    now_ = t;
  }

  [[nodiscard]] bool idle() { return queue_.empty(); }
  [[nodiscard]] TimePoint next_event_time() { return queue_.next_time(); }

  /// Cumulative number of events fired since construction, closures and
  /// arrivals alike (throughput accounting for the bench harness).
  [[nodiscard]] std::uint64_t events_fired() const { return events_fired_; }

 private:
  std::size_t run_until_slow(TimePoint horizon);

  EventQueue queue_;
  TimePoint now_ = TimePoint::origin();
  std::uint64_t events_fired_ = 0;
};

}  // namespace ccredf::sim
