// Pluggable medium-access protocol interface.
//
// The slot engine (net::Network) is protocol-agnostic: each slot it
// collects one Request per node and asks the protocol to plan the next
// slot (grants + next master).  CCR-EDF, the baseline CC-FPR and static
// TDMA all implement this interface, so every experiment compares them on
// an identical substrate.
#pragma once

#include <vector>

#include "common/nodeset.hpp"
#include "common/types.hpp"
#include "core/frames.hpp"
#include "sim/time.hpp"

namespace ccredf::net {

struct SlotPlan {
  /// Master (clock generator) of the next slot.
  NodeId next_master = kInvalidNode;
  /// Nodes granted a transmission in the next slot.
  NodeSet granted;
};

class MacProtocol {
 public:
  virtual ~MacProtocol() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Plans the next slot from the requests collected during the current
  /// one.  `requests` has exactly one entry per node (priority 0 = idle);
  /// `requesters` is a superset of the nodes whose request has
  /// wants_slot() set (every node outside it is guaranteed idle), so a
  /// protocol that sorts or scans requests may restrict its work to it.
  [[nodiscard]] virtual SlotPlan plan_next_slot(
      const std::vector<core::Request>& requests, NodeId current_master,
      SlotIndex slot, NodeSet requesters) = 0;

  /// Clock hand-over gap between a slot mastered by `from` and the next
  /// mastered by `to`.
  [[nodiscard]] virtual sim::Duration gap(NodeId from, NodeId to) const = 0;

  /// Worst-case gap (enters Eq. 4 and Eq. 6 for this protocol).
  [[nodiscard]] virtual sim::Duration max_gap() const = 0;

  /// True iff an all-idle slot is a fixed point of this protocol:
  /// plan_next_slot() on N idle requests grants nobody and keeps the
  /// current master, for every slot index.  CCR-EDF qualifies (the
  /// master keeps clocking when nobody requests, §3); CC-FPR and TDMA
  /// rotate the clock every slot regardless of load, so they do not.
  /// The engine only fast-forwards idle stretches when this holds --
  /// otherwise the master (and with it every gap) changes slot to slot.
  [[nodiscard]] virtual bool idle_keeps_master() const { return false; }

  /// True iff the hypercycle planner may stand in for this protocol's
  /// arbitration: a planned bundle must be exactly what plan_next_slot
  /// would have granted had every planned job requested (EDF order,
  /// spatial-reuse packing, master = highest-priority source, idle keeps
  /// master).  Only CCR-EDF satisfies this; CC-FPR's fixed-priority
  /// clocking and TDMA's rotation do not, so they stay slot-by-slot.
  [[nodiscard]] virtual bool supports_planning() const { return false; }
};

}  // namespace ccredf::net
