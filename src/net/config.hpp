// Network construction parameters.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "core/admission.hpp"
#include "core/priority.hpp"
#include "phy/link.hpp"

namespace ccredf::phy {
class RingPhy;
}
namespace ccredf::ring {
class RingTopology;
}

namespace ccredf::net {

class MacProtocol;
struct NetworkConfig;

/// Builds the MAC protocol once the physical ring exists.  Leaving the
/// factory empty selects CCR-EDF; the baseline module provides factories
/// for CC-FPR and TDMA.
using ProtocolFactory = std::function<std::unique_ptr<MacProtocol>(
    const phy::RingPhy&, const ring::RingTopology&, const NetworkConfig&)>;

struct NetworkConfig {
  NodeId nodes = 8;

  phy::RibbonLinkParams link = phy::optobus();
  /// Uniform link length (paper assumes equal lengths); ignored when
  /// `link_lengths_m` is non-empty.
  double link_length_m = 10.0;
  std::vector<double> link_lengths_m;

  /// Data payload per slot in bytes; 0 selects the Eq. 2 minimum plus
  /// the control frames' bits, at least default_payload_floor (the rule
  /// lives in Network's constructor).
  std::int64_t slot_payload_bytes = 0;
  std::int64_t default_payload_floor = 64;

  core::PriorityLayout priority{};

  /// Spatial reuse on (run-time behaviour) or off (the §5 analysis mode:
  /// one message per slot).
  bool spatial_reuse = true;

  /// Carry the reliable-service ack field in the distribution packet.
  bool with_acks = false;

  /// Frame-integrity extension: append a CRC-8 to every request record
  /// in the collection packet and to the distribution packet, so
  /// receivers detect control-channel bit errors instead of acting on
  /// garbage (see PROTOCOL.md §7).  Off by default: the paper's frames
  /// carry no checksum, and enabling it lengthens both control packets.
  bool with_frame_crc = false;

  /// Data-channel integrity extension: every data packet carries a
  /// CRC-32 per payload slot, so receivers detect payload corruption
  /// instead of delivering garbage.  A detected packet is dropped before
  /// the inbox and its source is NACKed through the distribution
  /// packet's ack field on the next slot (requires with_acks for the
  /// NACK bits to have a wire to ride; without acks, detection still
  /// suppresses the delivery).  Off by default: the paper's data fibres
  /// are raw byte lanes, and the checksum costs 4 bytes per slot of
  /// payload.  See PROTOCOL.md §7.3.
  bool with_payload_crc = false;

  /// Laxity-to-priority mapping (core::map_laxity): 0 is the paper's
  /// logarithmic mapping; k > 0 is the linear E8 ablation with k slots
  /// per priority level.  Negative values are rejected.
  std::int64_t linear_quantum_slots = 0;

  /// Node designated to restart the clock after token loss (paper §8
  /// suggests "a designated node that always will start").
  NodeId designated_restarter = 0;
  /// Idle slots-equivalents the restarter waits before declaring the
  /// token lost.
  std::int64_t recovery_timeout_slots = 4;

  /// Record every delivery in the receiving node's inbox vector.  On by
  /// default (tests and examples drain inboxes); long-running throughput
  /// and soak experiments turn it off so steady-state slots stay
  /// allocation-free and memory stays bounded -- NetworkStats still
  /// sees every delivery.
  bool record_inboxes = true;

  /// Slot fast-forward: when the next slots provably grant nobody and
  /// keep the master (an idle ring, or an engaged plan waiting for its
  /// next bundle) and no event fires before a slot's end, the engine
  /// advances whole slots arithmetically instead of simulating them.
  /// Statistics are bitwise identical either way (DESIGN.md §8); off only
  /// to benchmark the slot-by-slot path or to debug the engine itself.
  bool fast_forward = true;

  /// Hypercycle reservation planner (PROTOCOL.md §8):
  /// at connection admit/close time the engine lays the whole grant
  /// schedule out over the hyperperiod H = lcm(P_i) and, while the plan
  /// is in effect, skips the collection phase and arbitration for
  /// planned traffic -- falling back to slot-by-slot TCMA on any
  /// divergence (faults, churn, CBS, aperiodic sends).  Admission may
  /// then exceed the Eq. 6 U_max ceiling when the planner's exact
  /// feasibility simulation proves the layout meets every deadline.
  /// CCR-EDF only; other protocols ignore the flag.
  bool planner = false;
  /// Hyperperiod cap for the planner: connection sets whose lcm of
  /// periods exceeds this (or overflows) are simply never planned.
  std::int64_t planner_max_hyperperiod_slots = std::int64_t{1} << 16;

  /// Per-node transmit-buffer capacity in messages; 0 = unlimited.
  /// When full, new best-effort / non-real-time messages are tail-dropped
  /// (counted in NetworkStats); real-time releases are never dropped --
  /// admitted connections have bounded backlog by Eq. 5, so a sane cap
  /// cannot be exceeded by well-behaved sources.
  std::size_t max_queue_messages = 0;

  /// Feasibility test used by the admission controller; kDensity stays
  /// safe for connections with constrained deadlines D_i < P_i.
  core::AdmissionPolicy admission_policy =
      core::AdmissionPolicy::kUtilisation;

  /// Empty => CCR-EDF.
  ProtocolFactory protocol_factory;
};

}  // namespace ccredf::net
