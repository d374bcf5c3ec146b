// One fingerprint of every engine statistic, for the tests that require
// two engine paths (fast-forward on and off, planned and slot by slot,
// with and without listeners) to agree.  Doubles print as hexfloats, so
// one flipped mantissa bit fails a comparison.  The fast-forward
// telemetry (ff_slots_skipped, ff_windows) is left out: it counts the
// skipping, so it differs between the paths by design.
#pragma once

#include <ostream>
#include <sstream>
#include <string>

#include "net/network.hpp"
#include "net/stats.hpp"

namespace ccredf {

inline void put_fingerprint(std::ostream& os, const sim::OnlineStats& s) {
  os << s.count() << ' ' << s.mean() << ' ' << s.variance() << ' '
     << s.sum() << ' ' << s.min() << ' ' << s.max() << '\n';
}

inline void put_fingerprint(std::ostream& os, const sim::ExactStats& s) {
  os << s.count() << ' ' << s.sum_exact() << ' ' << s.variance() << ' '
     << s.min() << ' ' << s.max() << '\n';
}

/// Every NetworkStats field except the fast-forward telemetry, one
/// labelled line per group; per_connection in id (map) order.
inline std::string stats_fingerprint(const net::NetworkStats& st) {
  std::ostringstream os;
  os << std::hexfloat;
  os << "slots " << st.slots << ' ' << st.busy_slots << ' '
     << st.total_grants << ' ' << st.reuse_slots << ' ' << st.wasted_grants
     << ' ' << st.buffer_drops << ' ' << st.priority_inversions << '\n';
  os << "handover_hops ";
  put_fingerprint(os, st.handover_hops);
  os << "gap ";
  put_fingerprint(os, st.gap);
  os << "time " << st.time_in_slots.ps() << ' ' << st.time_in_gaps.ps()
     << '\n';
  os << "plan " << st.planned_slots << ' ' << st.plan_wait_slots << ' '
     << st.plan_builds << ' ' << st.plan_divergences << '\n';
  os << "nodes";
  for (std::size_t j = 0; j < st.node_requests.size(); ++j) {
    os << ' ' << st.node_requests[j] << ' ' << st.node_grants[j];
  }
  os << '\n';
  for (const net::ClassStats& c : st.per_class) {
    os << "class " << c.delivered << ' ' << c.scheduling_misses << ' '
       << c.user_misses << ' ' << c.bytes << ' ';
    put_fingerprint(os, c.latency);
  }
  for (const auto& [id, cs] : st.per_connection) {
    os << "connection " << id << ": " << cs.released << ' ' << cs.delivered
       << ' ' << cs.scheduling_misses << ' ' << cs.user_misses << ' '
       << cs.bytes << ' ';
    put_fingerprint(os, cs.latency);
  }
  const net::FaultStats& f = st.faults;
  os << "collection " << f.collection_drops << ' ' << f.collection_corruptions
     << ' ' << f.collection_detected << ' ' << f.collection_silent << ' '
     << f.spurious_requests << '\n';
  os << "distribution " << f.token_losses << ' '
     << f.distribution_corruptions << ' ' << f.distribution_detected << ' '
     << f.rearbitration_slots << ' ' << f.silent_misarbitrations << '\n';
  os << "recovery " << f.recoveries << ' ' << f.ring_dark << ' ';
  put_fingerprint(os, f.recovery_gap);
  const sim::ExactQuantiles& q = f.recovery_gap_quantiles;
  os << "recovery_quantiles " << q.count() << ' ' << q.distinct() << ' '
     << q.quantile(0.0) << ' ' << q.quantile(0.5) << ' ' << q.quantile(0.99)
     << ' ' << q.quantile(1.0) << '\n';
  os << "payload " << f.payload_corruptions << ' ' << f.payload_detected
     << ' ' << f.payload_undetected << ' ' << f.payload_nacks << '\n';
  os << "degraded " << f.admission_renegotiations << ' ' << f.link_cuts
     << ' ' << f.segment_quarantines << ' ' << f.cut_detect_slots << '\n';
  os << "cbs " << st.cbs.servers_opened << ' ' << st.cbs.jobs << ' '
     << st.cbs.postponements << '\n';
  os << "node_faults";
  for (const net::NodeFaultCounters& nf : st.per_node_faults) {
    os << ' ' << nf.requests_dropped << ' ' << nf.requests_corrupted << ' '
       << nf.requests_rejected << ' ' << nf.spurious_requests << ' '
       << nf.payloads_corrupted;
  }
  os << '\n';
  return os.str();
}

/// stats_fingerprint plus the run's discrete-event count.
inline std::string fingerprint(const net::Network& n) {
  return stats_fingerprint(n.stats()) +
         "events_fired=" + std::to_string(n.sim().events_fired()) + '\n';
}

}  // namespace ccredf
