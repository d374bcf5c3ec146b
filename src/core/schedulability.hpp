// The paper's closed-form timing and schedulability results (Eq. 1-6).
//
//   Eq. 1  t_handover   = P * L * D          (clock hand-over over D hops)
//   Eq. 2  t_minslot    = N * t_node + t_prop (collection must fit a slot)
//   Eq. 3  t_maxdelay   = t_deadline + t_latency
//   Eq. 4  t_latency    = 2 * t_slot + t_handover_max
//   Eq. 5  sum(e_i/P_i) <= U_max             (EDF feasibility)
//   Eq. 6  U_max        = t_slot / (t_slot + t_handover_max)
//
// SlotTiming derives every quantity from the physical ring and the chosen
// slot payload; the admission controller consumes u_max().
#pragma once

#include <cstdint>
#include <span>

#include "common/error.hpp"
#include "core/connection.hpp"
#include "phy/ring_phy.hpp"
#include "sim/time.hpp"

namespace ccredf::core {

class SlotTiming {
 public:
  /// `payload_bytes` is the data-packet size carried per slot; it must be
  /// large enough that the collection phase fits the slot (Eq. 2).
  SlotTiming(const phy::RingPhy& phy, std::int64_t payload_bytes);

  [[nodiscard]] sim::Duration slot() const { return t_slot_; }
  [[nodiscard]] std::int64_t payload_bytes() const { return payload_bytes_; }

  /// Eq. 2: minimum slot duration so that the collection-phase packet
  /// (appended at each of the N nodes, propagating once around) returns to
  /// the master within the slot.
  [[nodiscard]] sim::Duration min_slot() const { return t_minslot_; }

  /// Smallest payload (bytes) satisfying Eq. 2 for a given ring -- the
  /// "minimum slot length" the paper discusses in §4.
  static std::int64_t min_payload_bytes(const phy::RingPhy& phy);

  /// Eq. 1 with D = N-1: worst-case clock hand-over.
  [[nodiscard]] sim::Duration max_handover() const { return t_handover_max_; }

  /// Eq. 6: worst-case guaranteed utilisation at full load.
  [[nodiscard]] double u_max() const {
    return t_slot_.ratio(t_slot_ + t_handover_max_);
  }

  /// Eq. 4: worst-case protocol latency experienced by any message beyond
  /// its EDF schedule: one just-missed slot, one arbitration slot, and a
  /// worst-case hand-over gap.
  [[nodiscard]] sim::Duration worst_case_latency() const {
    return 2 * t_slot_ + t_handover_max_;
  }

  /// Eq. 3: the delay bound perceived at user level for a message with the
  /// given scheduling deadline.
  [[nodiscard]] sim::Duration max_delay(sim::Duration t_deadline) const {
    return t_deadline + worst_case_latency();
  }

  /// Upper bound on a slot's wall-clock extent including the worst gap --
  /// the denominator of Eq. 6.
  [[nodiscard]] sim::Duration slot_plus_max_gap() const {
    return t_slot_ + t_handover_max_;
  }

 private:
  std::int64_t payload_bytes_;
  sim::Duration t_slot_;
  sim::Duration t_minslot_;
  sim::Duration t_handover_max_;
};

/// Total utilisation sum(e_i / P_i) of a connection set.
[[nodiscard]] double total_utilisation(std::span<const ConnectionParams> set);

}  // namespace ccredf::core
