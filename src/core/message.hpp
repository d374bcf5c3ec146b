// Messages: the unit a node queues and requests slots for.
//
// A message of size e occupies e slots; each granted slot moves one
// data-packet of the message one segment downstream.  Deadlines are
// absolute simulated times; NRT messages carry an infinite deadline.
// Destinations are a node set: one bit for unicast, several for multicast,
// all-but-source for broadcast (paper supports all three, §1).
#pragma once

#include <cstdint>

#include "common/nodeset.hpp"
#include "common/types.hpp"
#include "core/priority.hpp"
#include "sim/time.hpp"

namespace ccredf::core {

struct Message {
  MessageId id = 0;
  NodeId source = kInvalidNode;
  NodeSet dests;
  TrafficClass traffic_class = TrafficClass::kBestEffort;
  /// Total size in slots (>= 1).
  std::int64_t size_slots = 1;
  /// Slots still to transmit; the message leaves the queue at zero.
  std::int64_t remaining_slots = 1;
  /// Arrival at the source queue.
  sim::TimePoint arrival;
  /// Absolute deadline used for EDF ordering and the laxity mapping;
  /// TimePoint::infinity() for non-real-time traffic.
  sim::TimePoint deadline = sim::TimePoint::infinity();
  /// Owning logical real-time connection, or kNoConnection.
  ConnectionId connection = kNoConnection;
  /// Payload byte count, for throughput accounting (defaults to the full
  /// slots' worth; set by the sender for accounting only).
  std::int64_t payload_bytes = 0;

  /// Laxity in whole slots at time `now` with the given slot length;
  /// negative when the deadline has passed.
  [[nodiscard]] std::int64_t laxity_slots(sim::TimePoint now,
                                          sim::Duration slot) const {
    if (deadline == sim::TimePoint::infinity()) return INT64_MAX / 2;
    return (deadline - now).ps() / slot.ps();
  }
};

/// Delivery record emitted when the final slot of a message reaches its
/// destinations.
struct Delivery {
  MessageId id = 0;
  NodeId source = kInvalidNode;
  NodeSet dests;
  /// The destinations that received it: those not failed when the
  /// transfer completed.  Empty when the receivers' CRC rejected it.
  NodeSet receivers;
  TrafficClass traffic_class = TrafficClass::kBestEffort;
  ConnectionId connection = kNoConnection;
  sim::TimePoint arrival;
  sim::TimePoint completed;
  sim::TimePoint deadline;
  std::int64_t size_slots = 0;

  [[nodiscard]] sim::Duration latency() const { return completed - arrival; }
  [[nodiscard]] bool met_deadline() const {
    return deadline == sim::TimePoint::infinity() || completed <= deadline;
  }
};

}  // namespace ccredf::core
