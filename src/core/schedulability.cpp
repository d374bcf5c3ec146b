#include "core/schedulability.hpp"

namespace ccredf::core {

SlotTiming::SlotTiming(const phy::RingPhy& phy, std::int64_t payload_bytes)
    : payload_bytes_(payload_bytes) {
  CCREDF_EXPECT(payload_bytes >= 1, "SlotTiming: payload must be >= 1 byte");
  const auto& lp = phy.link();
  t_slot_ = lp.data_time(payload_bytes);
  // Eq. 2: N nodes' passthrough plus one full ring propagation.
  t_minslot_ = lp.control_time(static_cast<std::int64_t>(phy.nodes()) *
                               lp.node_passthrough_bits) +
               phy.ring_delay();
  t_handover_max_ =
      phy.max_handover_time() +
      lp.control_time(2 * lp.clock_stop_bits);  // stop + detect silence
  CCREDF_EXPECT(t_slot_ >= t_minslot_,
                "SlotTiming: payload too small for Eq. 2 (collection phase "
                "does not fit the slot); increase payload_bytes");
}

std::int64_t SlotTiming::min_payload_bytes(const phy::RingPhy& phy) {
  const auto& lp = phy.link();
  const sim::Duration t_minslot =
      lp.control_time(static_cast<std::int64_t>(phy.nodes()) *
                      lp.node_passthrough_bits) +
      phy.ring_delay();
  const sim::Duration byte_time = lp.bit_time();
  // Round up to the next whole byte time.
  return (t_minslot.ps() + byte_time.ps() - 1) / byte_time.ps();
}

double total_utilisation(std::span<const ConnectionParams> set) {
  double u = 0.0;
  for (const auto& c : set) u += c.utilisation();
  return u;
}

}  // namespace ccredf::core
