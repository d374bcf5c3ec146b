// One station on the ring: its transmit queues.
//
// The Node is deliberately passive -- the slot engine samples its queues
// during the collection phase; user code enqueues messages through
// Network's send_* API and reads deliveries from SlotRecord::deliveries.
#pragma once

#include "core/edf_queue.hpp"

namespace ccredf::net {

class Node {
 public:
  /// The node's transmit queues.  While a hypercycle plan drives the
  /// ring they do not hold the node's planned messages: the network
  /// holds those per connection until collection decides again.
  [[nodiscard]] core::EdfQueueSet& queues() { return queues_; }
  [[nodiscard]] const core::EdfQueueSet& queues() const { return queues_; }

 private:
  core::EdfQueueSet queues_;
};

}  // namespace ccredf::net
