// Per-layer measurement for the traced run: engine counters and the
// capture/replay harness.
//
// Attaching a SlotObserver moves the engine off its fast paths, so the
// per-layer timings never observe the timed network.  Instead a separate,
// bounded capture pass runs an identically built network with an observer
// attached and records what each layer was handed: the collected requests
// and master per slot (core::Arbiter), the message stream and the grant
// pattern (core::EdfQueueSet), and the release/arrival instants
// (sim::Simulator).  The replays then time the layers' public calls on
// exactly those inputs, with nothing else in the loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/frames.hpp"
#include "core/message.hpp"
#include "harness.hpp"
#include "net/network.hpp"

namespace perfbench {

/// Engine-path and event counters summed over one or more networks,
/// reported as the net.* and sim.events_per_slot per-layer metrics.
struct NetCounters {
  std::int64_t slots = 0;
  std::int64_t ff_slots = 0;
  std::int64_t ff_windows = 0;
  std::int64_t planned = 0;
  std::int64_t plan_wait = 0;
  std::int64_t divergences = 0;
  std::int64_t requests = 0;
  std::int64_t grants = 0;
  std::int64_t events = 0;

  void add(const ccredf::net::Network& n);
  void report(Report& rep) const;
};

/// What the observer of the capture pass recorded.
struct Capture {
  struct Slot {
    ccredf::sim::TimePoint start;
    ccredf::NodeId master = 0;
    ccredf::NodeSet requesters;
    ccredf::NodeSet granted;
  };
  ccredf::NodeId nodes = 0;
  std::vector<Slot> slots;
  /// Per slot, the full request vector (one record per node).
  std::vector<std::vector<ccredf::core::Request>> requests;
  /// Delivered messages, rebuilt from the delivery records.
  std::vector<ccredf::core::Message> messages;
  /// Transmit-queue depth of every node with a queued message, per slot.
  std::vector<double> depth;

  /// Registers the recording observer on `n` (observers cannot be
  /// detached: `n` is a capture-only network).
  void attach(ccredf::net::Network& n);
};

struct ArbiterReplay {
  double ns_per_call = 0.0;
  double candidates_per_call = 0.0;
};
/// Replays every captured slot through core::Arbiter::arbitrate.
[[nodiscard]] ArbiterReplay replay_arbiter(const Capture& cap,
                                           const ccredf::net::Network& n,
                                           Tracer& tr);

struct EdfReplay {
  double push_ns = 0.0;
  double head_ns = 0.0;
  double consume_ns = 0.0;
};
/// Replays the captured message stream through per-node
/// core::EdfQueueSets: releases are pushed at their arrival instant, each
/// slot consumes the message its granted nodes bound one slot earlier and
/// re-binds the head of every node with a queued message.
[[nodiscard]] EdfReplay replay_edf(const Capture& cap, Tracer& tr);

/// Replays the captured release/arrival instants through sim::Simulator
/// as self-rescheduling event chains (one per connection or source),
/// polled at every captured slot start; returns ns per fired event.
[[nodiscard]] double replay_simulator(const Capture& cap, Tracer& tr);

struct PlannerTiming {
  double build_ms = 0.0;
  double lookup_ns = 0.0;
  bool valid = false;
};
/// Builds a core::HypercyclePlanner for `set` on the ring of `n` (as if
/// every connection opened at time 0) and times build and plan_for_slot.
[[nodiscard]] PlannerTiming time_planner(
    const ccredf::net::Network& n,
    const std::vector<ccredf::core::ConnectionParams>& set, Tracer& tr);

}  // namespace perfbench
