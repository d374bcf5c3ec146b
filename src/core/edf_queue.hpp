// Per-node message queues with EDF ordering and class precedence.
//
// The paper's local queueing rules (§3): a node offers its logical
// real-time connection traffic first; best-effort is requested only when
// no RT message is queued; non-real-time only when neither RT nor BE is
// queued.  Within the RT and BE queues, messages are kept in
// earliest-deadline-first order (ties broken by arrival, then id, for
// determinism); the NRT queue is FIFO.
//
// Each class is one plain sorted vector, and every lookup scans it from
// the front.  That suffices because the engine only ever looks there:
//   * `net::Network::enqueue` stamps every arrival at or before the
//     current time, and collection drains the events up to each node's
//     sample instant before it reads that node's queue, so every queued
//     message is eligible when sampled and `head` returns a class front;
//   * a grant consumes the message collection sampled as the head one
//     slot earlier, and only messages pushed since then with an earlier
//     EDF key can sit ahead of it, so `contains` and `consume_slot` find
//     it within a few entries.
// `head` still skips messages that arrive after the sample, for callers
// that queue future arrivals.  Message ids must be unique within one set,
// which the network guarantees by numbering messages from a single
// counter.
#pragma once

#include <optional>
#include <vector>

#include "core/message.hpp"
#include "sim/time.hpp"

namespace ccredf::core {

class EdfQueueSet {
 public:
  /// Inserts a message into its class queue (EDF position for RT/BE).
  void push(Message msg);

  /// The message the node would request a slot for at time `sample`:
  /// the earliest-deadline *eligible* (arrival <= sample) message of the
  /// highest non-empty class.  Returns nullptr when nothing is eligible.
  /// The pointer stays valid until the next mutating call.  Inline: the
  /// collection phase calls this once per candidate per slot, and in the
  /// engine the answer is a class front.
  [[nodiscard]] const Message* head(sim::TimePoint sample) const {
    // Class precedence (paper §3): RT strictly before BE before NRT,
    // even if a queued BE message has a tighter deadline.
    for (const std::vector<Message>* q : {&rt_, &be_, &nrt_}) {
      for (const Message& m : *q) {
        if (m.arrival <= sample) return &m;
      }
    }
    return nullptr;
  }

  /// True iff message `id` is still queued.
  [[nodiscard]] bool contains(MessageId id) const;

  /// Marks one slot of message `id` as transmitted; removes the message
  /// when its last slot has been sent and returns the completed Message.
  /// Throws ProtocolError when `id` is not queued.
  std::optional<Message> consume_slot(MessageId id);

  /// Removes every queued message of a closed connection; returns how
  /// many were dropped.
  std::size_t drop_connection(ConnectionId id);

  /// Re-keys every queued RT/BE message of connection `id` to a new
  /// absolute deadline (CBS postponement: the server slid its deadline
  /// one period and its whole backlog must follow) and re-sorts the
  /// class.  EDF order is a total order on (deadline, arrival, id), so
  /// every message lands where a fresh push would, and the server's jobs
  /// stay in FIFO order among themselves.  Returns how many messages
  /// changed deadline.
  std::size_t reschedule_connection(ConnectionId id,
                                    sim::TimePoint deadline);

  /// Removes all queued messages (node failure); returns how many.
  std::size_t clear();

  [[nodiscard]] std::size_t size() const {
    return rt_.size() + be_.size() + nrt_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t size_of(TrafficClass c) const;

 private:
  // Sorted vectors (EDF order via insertion; FIFO for NRT).  Traffic is
  // light enough per node that O(n) insertion moves are immaterial, and
  // contiguous storage beats deque chunk churn on the per-slot scan.
  std::vector<Message> rt_;
  std::vector<Message> be_;
  std::vector<Message> nrt_;
};

}  // namespace ccredf::core
