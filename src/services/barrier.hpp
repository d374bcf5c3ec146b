// Barrier synchronisation service (paper §1, §7: "group communication
// such as barrier synchronisation").
//
// Model: each participant sets its barrier flag, which rides the control
// channel in the collection phase of the first slot whose sampling time
// at that node is not earlier than the arrival.  When the master has seen
// every participant's flag, the completion is announced in that slot's
// distribution packet, i.e. at slot end.  No data slots are consumed --
// the service is free-riding on the control channel, exactly the appeal
// of the dedicated control fibre.
//
// A barrier is a global reduction whose operands nobody reads, so it is
// one: each arrival contributes a zero to a GlobalReduceService round.
#pragma once

#include <cstdint>
#include <optional>

#include "common/nodeset.hpp"
#include "common/types.hpp"
#include "net/network.hpp"
#include "services/reduce.hpp"
#include "sim/time.hpp"

namespace ccredf::services {

class BarrierService {
 public:
  /// Attaches its reduction to `net` until destroyed.
  explicit BarrierService(net::Network& net) : reduce_(net) {}

  /// Starts a new barrier over `participants`.  Any previous barrier must
  /// have completed.
  void begin(NodeSet participants) {
    reduce_.begin(participants, ReduceOp::kBitOr);
  }

  /// Participant `node` reaches the barrier at current simulated time.
  void arrive(NodeId node) { reduce_.contribute(node, 0); }

  [[nodiscard]] bool complete() const { return reduce_.complete(); }
  /// Slot-end instant at which every node learned of completion.
  [[nodiscard]] std::optional<sim::TimePoint> completion_time() const {
    return reduce_.completion_time();
  }
  /// Completion latency measured from the *last* arrival.
  [[nodiscard]] std::optional<sim::Duration> latency() const {
    if (!complete()) return std::nullopt;
    return *completion_time() - reduce_.last_contribution();
  }

  [[nodiscard]] std::int64_t barriers_completed() const {
    return reduce_.rounds_completed();
  }

 private:
  GlobalReduceService reduce_;
};

}  // namespace ccredf::services
