// Aggregated measurements collected by the slot engine.
//
// Latencies and deadline accounting are kept per traffic class.  For
// real-time traffic two miss notions are tracked (paper §5): a
// *scheduling* miss (delivery after the EDF deadline t_deadline) and a
// *user-level* miss (delivery after t_maxdelay = t_deadline + t_latency,
// Eq. 3) -- the admission guarantee covers the latter.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "core/message.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace ccredf::net {

/// The delivery record: what a traffic class and a connection each
/// account per completed message.
struct DeliveryStats {
  std::int64_t delivered = 0;
  std::int64_t scheduling_misses = 0;
  std::int64_t user_misses = 0;
  std::int64_t bytes = 0;
  sim::OnlineStats latency;  // arrival -> completion, ps

  /// Accounts one delivered message; the engine decides both misses.
  void record(std::int64_t payload_bytes, sim::Duration arrival_to_completion,
              bool scheduling_miss, bool user_miss) {
    ++delivered;
    bytes += payload_bytes;
    latency.add(arrival_to_completion);
    if (scheduling_miss) ++scheduling_misses;
    if (user_miss) ++user_misses;
  }

  [[nodiscard]] double scheduling_miss_ratio() const {
    return delivered == 0
               ? 0.0
               : static_cast<double>(scheduling_misses) /
                     static_cast<double>(delivered);
  }
  [[nodiscard]] double user_miss_ratio() const {
    return delivered == 0 ? 0.0
                          : static_cast<double>(user_misses) /
                                static_cast<double>(delivered);
  }
};

/// Per-traffic-class accounting.
using ClassStats = DeliveryStats;

/// Per-logical-connection accounting (hard-RT connections and CBS
/// servers share the map; `bytes` is what the fairness index compares).
/// A record exists from the id's first release or delivery on.
struct ConnectionStats : DeliveryStats {
  std::int64_t released = 0;
};

/// Constant-Bandwidth-Server accounting (zero unless servers are open).
struct CbsStats {
  /// Servers admitted over the run (open_cbs_server successes).
  std::int64_t servers_opened = 0;
  /// Jobs accepted into server queues (cbs_send minus drops).
  std::int64_t jobs = 0;
  /// Budget-exhaustion postponements across all servers (c = Q, d += T).
  std::int64_t postponements = 0;
};

/// Per-node fault containment accounting (fault experiments).  Indexed by
/// the node whose request record the fault struck (or that babbled).
struct NodeFaultCounters {
  std::int64_t requests_dropped = 0;    // record destroyed in transit
  std::int64_t requests_corrupted = 0;  // bit errors hit the record
  std::int64_t requests_rejected = 0;   // guards rejected -> treated idle
  std::int64_t spurious_requests = 0;   // babbling fabrications
  std::int64_t payloads_corrupted = 0;  // data packets sourced here that
                                        // were hit on the data fibres
};

/// Network-wide fault / detection / recovery accounting.  All zero unless
/// a FaultHook is attached -- the clean path never touches these.
struct FaultStats {
  /// Distribution packets destroyed whole (drop_distribution hook).
  std::int64_t token_losses = 0;
  /// Collection-packet request records destroyed in transit.
  std::int64_t collection_drops = 0;
  /// Request records hit by bit errors (detected + silent).
  std::int64_t collection_corruptions = 0;
  /// ... of which the frame-integrity guards rejected (record treated as
  /// idle; the requester retries next slot).
  std::int64_t collection_detected = 0;
  /// ... of which passed the guards and reached arbitration mutated.
  std::int64_t collection_silent = 0;
  /// Fabricated requests from babbling nodes.
  std::int64_t spurious_requests = 0;
  /// Distribution packets hit by bit errors (detected + grant-view +
  /// silent-master).
  std::int64_t distribution_corruptions = 0;
  /// ... of which receivers rejected outright (handled as token loss).
  std::int64_t distribution_detected = 0;
  /// Slots voided because receivers proved the grant view inconsistent
  /// (a grant bit on a known non-requester) -- re-arbitration instead of
  /// a clock break.
  std::int64_t rearbitration_slots = 0;
  /// Corruptions no receiver could detect: a grant bit landing on an
  /// ungranted requester (data-channel collision) or a mutated
  /// next-master index (clock break).  The hazard class the guards
  /// cannot remove, only shrink.
  std::int64_t silent_misarbitrations = 0;
  /// Token-loss recoveries performed (Network::recoveries()).
  std::int64_t recoveries = 0;
  /// Distribution of the recovery timeout gaps, ps; its exact sum is
  /// Network::recovery_time().
  sim::ExactStats recovery_gap;
  /// Exact per-value counts of the same gaps: the gap is a deterministic
  /// function of the configuration, so distinct values stay few and the
  /// p50/p99 sweep metrics (kRecoveryGapP50Us/P99Us) come out as exact
  /// sample values -- deterministic to the last bit, as the sweep's
  /// byte-equality gates require.
  sim::ExactQuantiles recovery_gap_quantiles;
  /// Token-loss windows during which EVERY node was failed: no live
  /// restarter exists, so the ring stays dark until a node is restored
  /// (no phantom recovery is counted for these).
  std::int64_t ring_dark = 0;

  // -- data channel (payload) axis ---------------------------------------
  /// Data packets whose payload was hit by bit errors on the data
  /// fibres (detected + undetected).
  std::int64_t payload_corruptions = 0;
  /// ... of which the payload CRC-32 caught at the receivers: the
  /// garbage is dropped before any inbox and the source is NACKed.
  std::int64_t payload_detected = 0;
  /// ... of which reached the application as garbage (no payload CRC,
  /// or the 2^-32 residual that forges a valid checksum).
  std::int64_t payload_undetected = 0;
  /// NACK bits that rode a distribution packet back to a source.
  std::int64_t payload_nacks = 0;

  // -- severed-segment (hard link cut) axis -------------------------------
  /// Hard link cuts applied (Network::cut_link transitions; splices are
  /// the complementary transition and are not separately counted).
  std::int64_t link_cuts = 0;
  /// Summed in-protocol detection latency, in slots: for every cut, the
  /// distance from the cut event to the first slot whose collection
  /// phase ran with the cut in effect (the slot whose truncated heard
  /// evidence classifies the loss pattern).
  std::int64_t cut_detect_slots = 0;

  /// Corruptions the receivers caught before acting on them.
  [[nodiscard]] std::int64_t detected() const {
    return collection_detected + distribution_detected +
           rearbitration_slots + payload_detected;
  }
  /// Corruptions that mutated behaviour without any receiver noticing.
  [[nodiscard]] std::int64_t silent() const {
    return collection_silent + silent_misarbitrations +
           payload_undetected;
  }
};

struct NetworkStats {
  std::int64_t slots = 0;
  /// Slots in which at least one transmission was granted.
  std::int64_t busy_slots = 0;
  std::int64_t total_grants = 0;
  /// Slots carrying two or more simultaneous transmissions (spatial reuse).
  std::int64_t reuse_slots = 0;
  /// Grants whose bound message had vanished by transmission time
  /// (connection torn down between arbitration and slot).
  std::int64_t wasted_grants = 0;
  /// Messages tail-dropped at a full transmit buffer (BE/NRT only; see
  /// NetworkConfig::max_queue_messages).
  std::int64_t buffer_drops = 0;
  /// Slots where the globally highest-priority requester was NOT granted
  /// -- the priority-inversion pathology of the simple clocking strategy;
  /// always zero for CCR-EDF.
  std::int64_t priority_inversions = 0;
  /// Clock hand-over hops distribution and gap durations.  Exact integer
  /// moments: the fast-forward path batches k idle slots into one
  /// add_n() call and must stay bitwise identical to k sequential adds
  /// (see ExactStats).
  sim::ExactStats handover_hops;
  sim::ExactStats gap;  // ps
  /// Wall-clock accounting.
  sim::Duration time_in_slots = sim::Duration::zero();
  sim::Duration time_in_gaps = sim::Duration::zero();

  /// Slots the engine fast-forwarded over (idle stretches and plan-wait
  /// stretches computed arithmetically instead of simulated;
  /// NetworkConfig::fast_forward).  Every skipped slot is also counted in
  /// `slots` -- skipping and stepping produce identical aggregate
  /// statistics; these two counters alone record which was taken.
  std::int64_t ff_slots_skipped = 0;
  /// Number of contiguous fast-forward windows taken.
  std::int64_t ff_windows = 0;

  /// Hypercycle-planner accounting (NetworkConfig::planner; all zero
  /// when the planner is off or never engaged).  A slot's next-slot
  /// decision either GRANTS a planned bundle (planned_slots) or WAITS
  /// for the next bundle's release instant (plan_wait_slots, including
  /// wait stretches batched arithmetically) -- both counters identical
  /// with fast-forward on and off.
  std::int64_t planned_slots = 0;
  std::int64_t plan_wait_slots = 0;
  /// Successful plan builds (admit/close-time relayouts).
  std::int64_t plan_builds = 0;
  /// Times an in-effect plan was abandoned for slot-by-slot TCMA
  /// (divergence: faults, churn, CBS, aperiodic traffic, queue drift).
  std::int64_t plan_divergences = 0;

  /// Per-node activity, parallel flat arrays sized to the node count at
  /// construction (SoA: a slot touches only the entries that changed).
  /// node_requests[j]: slots whose collection phase sampled a live
  /// request from node j; node_grants[j]: transmissions node j executed.
  std::vector<std::int64_t> node_requests;
  std::vector<std::int64_t> node_grants;

  std::array<ClassStats, 3> per_class;  // indexed by TrafficClass
  /// Keyed by connection id, so it iterates in id order.
  std::map<ConnectionId, ConnectionStats> per_connection;

  /// Fault / detection / recovery accounting (zero on clean runs).
  FaultStats faults;
  /// CBS accounting (zero when no servers are opened).
  CbsStats cbs;
  /// Per-node fault counters, sized to the node count at construction.
  std::vector<NodeFaultCounters> per_node_faults;

  [[nodiscard]] ClassStats& cls(core::TrafficClass c) {
    return per_class[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const ClassStats& cls(core::TrafficClass c) const {
    return per_class[static_cast<std::size_t>(c)];
  }

  /// Fraction of all slots the engine fast-forwarded over.
  [[nodiscard]] double fast_forward_ratio() const {
    return slots == 0 ? 0.0
                      : static_cast<double>(ff_slots_skipped) /
                            static_cast<double>(slots);
  }

  /// Fraction of all slots whose decision granted a planned bundle.
  [[nodiscard]] double planned_slot_fraction() const {
    return slots == 0 ? 0.0
                      : static_cast<double>(planned_slots) /
                            static_cast<double>(slots);
  }

  /// Fraction of wall time spent inside slots (upper-bounds throughput;
  /// compare with Eq. 6's U_max).
  [[nodiscard]] double slot_time_fraction() const {
    const sim::Duration total = time_in_slots + time_in_gaps;
    return total == sim::Duration::zero() ? 0.0
                                          : time_in_slots.ratio(total);
  }

  /// Mean simultaneous transmissions per busy slot (>1 iff spatial reuse
  /// pays off; paper Fig. 2).
  [[nodiscard]] double mean_grants_per_busy_slot() const {
    return busy_slots == 0 ? 0.0
                           : static_cast<double>(total_grants) /
                                 static_cast<double>(busy_slots);
  }

  /// Delivered payload bits per second of simulated wall time.
  [[nodiscard]] double goodput_bps() const {
    const sim::Duration total = time_in_slots + time_in_gaps;
    if (total == sim::Duration::zero()) return 0.0;
    std::int64_t bytes = 0;
    for (const auto& c : per_class) bytes += c.bytes;
    return static_cast<double>(bytes) * 8.0 / total.s();
  }
};

}  // namespace ccredf::net
