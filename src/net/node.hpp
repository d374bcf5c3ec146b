// One station on the ring: user-facing queues, inbox and counters.
//
// The Node is deliberately passive -- the slot engine samples its queues
// during the collection phase and pushes deliveries into its inbox; user
// code enqueues messages through Network's send_* API and drains the
// inbox.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "core/edf_queue.hpp"
#include "core/message.hpp"

namespace ccredf::net {

class Node {
 public:
  explicit Node(NodeId id) : id_(id) {}

  [[nodiscard]] NodeId id() const { return id_; }
  /// The node's transmit queues.  While a hypercycle plan drives the
  /// ring they do not hold the node's planned messages: the network
  /// holds those per connection until collection decides again.
  [[nodiscard]] core::EdfQueueSet& queues() { return queues_; }
  [[nodiscard]] const core::EdfQueueSet& queues() const { return queues_; }

  /// Messages delivered to this node, in completion order.
  [[nodiscard]] const std::vector<core::Delivery>& inbox() const {
    return inbox_;
  }
  void clear_inbox() { inbox_.clear(); }

  /// Inbox recording toggle (NetworkConfig::record_inboxes); statistics
  /// are unaffected.
  void set_inbox_recording(bool on) { record_inbox_ = on; }

  void deliver(const core::Delivery& d) {
    if (record_inbox_) inbox_.push_back(d);
  }

 private:
  NodeId id_;
  core::EdfQueueSet queues_;
  std::vector<core::Delivery> inbox_;
  bool record_inbox_ = true;
};

}  // namespace ccredf::net
