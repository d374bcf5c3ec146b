// The discrete-event simulator driving all experiments.
//
// The protocol engines (net::Network and the MAC drivers) advance the clock
// slot by slot.  Every timed action of the library -- periodic releases,
// scheduled faults, NACK resolutions, workload arrivals -- is a key of the
// sim::ArrivalProcess that owns it, armed on this queue; closures are for
// tests, examples and replay drivers.  Network::run_*() interleaves the
// queue with the slots: before each slot boundary it fires every entry
// with timestamp <= that boundary.
#pragma once

#include <cstdint>
#include <utility>

#include "common/error.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace ccredf::sim {

class Simulator {
 public:
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` after `delay` from now.
  void schedule_in(Duration delay, EventQueue::Callback fn) {
    CCREDF_EXPECT(delay >= Duration::zero(),
                  "Simulator: cannot schedule into the past");
    queue_.schedule(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at absolute time `at` (must not precede now()).
  void schedule_at(TimePoint at, EventQueue::Callback fn) {
    CCREDF_EXPECT(at >= now_, "Simulator: cannot schedule into the past");
    queue_.schedule(at, std::move(fn));
  }

  /// Arms `key` of `process` at absolute time `at` (must not precede
  /// now(); infinity arms nothing).  See ArrivalProcess.
  void arm(TimePoint at, ArrivalProcess& process, std::uint32_t key) {
    CCREDF_EXPECT(at >= now_, "Simulator: cannot arm into the past");
    queue_.arm(at, process, key);
  }

  /// Disarms `key` of `process`, or all of `process`'s keys; false when
  /// nothing was armed.  See EventQueue::disarm.
  bool disarm(ArrivalProcess& process, std::uint32_t key) {
    return queue_.disarm(process, key);
  }
  bool disarm(ArrivalProcess& process) { return queue_.disarm(process); }

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

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] TimePoint next_event_time() const {
    return queue_.next_time();
  }

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
