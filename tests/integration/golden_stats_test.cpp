// Golden end-to-end statistics for fixed-seed scenario runs.
//
// The constants below were captured from the simulator BEFORE the pooled
// event queue, indexed EDF queues and reused slot scratch were introduced,
// so this test pins two properties at once: bit-exact determinism across
// runs, and that the performance work did not change a single scheduling
// decision.  If an intentional semantic change lands, re-capture the
// numbers and update them in the same commit with a note explaining why.
#include <gtest/gtest.h>

#include <tuple>

#include "fault/injector.hpp"
#include "net/network.hpp"
#include "workload/multimedia.hpp"
#include "workload/periodic.hpp"
#include "workload/poisson.hpp"
#include "workload/radar.hpp"

namespace ccredf {
namespace {

using core::TrafficClass;

TEST(GoldenStats, RadarScenario20kSlots) {
  const auto sc = workload::make_radar_scenario(workload::RadarParams{});
  net::NetworkConfig cfg;
  cfg.nodes = sc.nodes_required;
  net::Network n(cfg);
  for (const auto& c : sc.connections) (void)n.open_connection(c);
  n.run_slots(20'000);

  const auto& st = n.stats();
  const auto& rt = st.cls(TrafficClass::kRealTime);
  EXPECT_EQ(rt.delivered, 340);
  EXPECT_EQ(rt.scheduling_misses, 0);
  EXPECT_EQ(rt.user_misses, 0);
  EXPECT_EQ(st.cls(TrafficClass::kBestEffort).delivered, 0);
  EXPECT_EQ(st.cls(TrafficClass::kNonRealTime).delivered, 0);
  EXPECT_EQ(st.total_grants, 4964);
  EXPECT_EQ(st.busy_slots, 3672);
  EXPECT_EQ(st.reuse_slots, 827);
  EXPECT_EQ(st.wasted_grants, 0);
  EXPECT_EQ(st.priority_inversions, 0);
  EXPECT_EQ(st.gap.sum(), 116'100'000.0);
  EXPECT_EQ(st.time_in_slots.ps(), 17'850'000'000);
  EXPECT_EQ(st.time_in_gaps.ps(), 116'100'000);
}

TEST(GoldenStats, MultimediaScenarioWithBackground20kSlots) {
  workload::MultimediaParams mp;
  const auto sc = workload::make_multimedia_scenario(mp);
  net::NetworkConfig cfg;
  cfg.nodes = mp.nodes;
  net::Network n(cfg);
  for (const auto& c : sc.connections) (void)n.open_connection(c);
  workload::PoissonParams pp = sc.background;
  pp.seed = 99;
  workload::PoissonGenerator gen(
      n, pp, sim::TimePoint::origin() + n.timing().slot() * 15'000);
  n.run_slots(20'000);

  const auto& st = n.stats();
  const auto& rt = st.cls(TrafficClass::kRealTime);
  EXPECT_EQ(rt.delivered, 1195);
  EXPECT_EQ(rt.scheduling_misses, 0);
  EXPECT_EQ(rt.user_misses, 0);
  EXPECT_EQ(st.cls(TrafficClass::kBestEffort).delivered, 1747);
  EXPECT_EQ(st.cls(TrafficClass::kNonRealTime).delivered, 0);
  EXPECT_EQ(st.total_grants, 12679);
  EXPECT_EQ(st.busy_slots, 11810);
  EXPECT_EQ(st.reuse_slots, 851);
  EXPECT_EQ(st.wasted_grants, 0);
  EXPECT_EQ(st.priority_inversions, 0);
  EXPECT_EQ(st.gap.sum(), 701'650'000.0);
  EXPECT_EQ(st.time_in_slots.ps(), 17'850'000'000);
  EXPECT_EQ(st.time_in_gaps.ps(), 701'650'000);
}

struct FaultOutcome {
  net::FaultStats faults;
  std::int64_t rt_delivered = 0;
  std::int64_t bits_flipped = 0;
  std::int64_t data_bits_flipped = 0;
  std::int64_t renegotiations = 0;
};

/// 16 nodes, a periodic RT set plus Poisson background, control BER 1e-4
/// and data BER 2e-6 with acks and the payload CRC, for 20k slots.
FaultOutcome run_ber_scenario(bool frame_crc) {
  net::NetworkConfig cfg;
  cfg.nodes = 16;
  cfg.with_acks = true;
  cfg.with_payload_crc = true;
  cfg.with_frame_crc = frame_crc;
  net::Network n(cfg);
  fault::FaultInjector inj(n, /*seed=*/11);
  inj.set_control_ber(1e-4);
  inj.set_data_ber(2e-6);
  workload::PeriodicSetParams wp;
  wp.nodes = cfg.nodes;
  wp.connections = 16;
  wp.total_utilisation = 0.5 * n.admission().u_max();
  wp.seed = 5;
  for (const auto& c : workload::make_periodic_set(wp)) {
    (void)n.open_connection(c);
  }
  workload::PoissonParams pp;
  pp.rate_per_node = 0.02;
  pp.seed = 13;
  workload::PoissonGenerator gen(
      n, pp, sim::TimePoint::origin() + n.timing().slot() * 20'000);
  n.run_slots(20'000);
  FaultOutcome out;
  out.faults = n.stats().faults;
  out.rt_delivered = n.stats().cls(TrafficClass::kRealTime).delivered;
  out.bits_flipped = inj.bits_flipped();
  out.data_bits_flipped = inj.data_bits_flipped();
  out.renegotiations = n.admission().renegotiations();
  return out;
}

/// Axes the BER scenario does not arm stay untouched, and the 2^-32
/// CRC-32 forgery residual never fires at this size.
void expect_unarmed_axes_untouched(const FaultOutcome& o) {
  const net::FaultStats& f = o.faults;
  EXPECT_EQ(f.token_losses, 0);
  EXPECT_EQ(f.collection_drops, 0);
  EXPECT_EQ(f.spurious_requests, 0);
  EXPECT_EQ(f.ring_dark, 0);
  EXPECT_EQ(f.payload_undetected, 0);
  EXPECT_EQ(o.renegotiations, 0);
  EXPECT_EQ(f.link_cuts, 0);
  EXPECT_EQ(f.cut_detect_slots, 0);
}

/// Control- and data-channel fault outcomes.  Every fault draw is keyed
/// on (seed, slot, channel), so a BER run is a pure function of its
/// configuration; these constants pin every draw and its classification
/// across commits, which the same-build determinism tests cannot.  The
/// frame-CRC leg reaches the detected outcome classes, the CRC-off leg
/// the silent ones as well.
TEST(GoldenStats, BerFaultOutcomes20kSlots) {
  {
    SCOPED_TRACE("frame CRC on");
    const FaultOutcome o = run_ber_scenario(/*frame_crc=*/true);
    const net::FaultStats& f = o.faults;
    EXPECT_EQ(o.rt_delivered, 3646);
    EXPECT_EQ(o.bits_flipped, 14103);
    EXPECT_EQ(o.data_bits_flipped, 2743);
    EXPECT_EQ(f.collection_corruptions, 11961);
    EXPECT_EQ(f.collection_detected, 11961);
    EXPECT_EQ(f.collection_silent, 0);
    EXPECT_EQ(f.distribution_corruptions, 1723);
    EXPECT_EQ(f.distribution_detected, 1723);
    EXPECT_EQ(f.rearbitration_slots, 0);
    EXPECT_EQ(f.silent_misarbitrations, 0);
    EXPECT_EQ(f.recoveries, 1723);
    EXPECT_EQ(f.recovery_gap.count(), 1723);
    EXPECT_EQ(f.payload_corruptions, 1791);
    EXPECT_EQ(f.payload_detected, 1791);
    EXPECT_EQ(f.payload_nacks, 1660);
    expect_unarmed_axes_untouched(o);
    EXPECT_GT(f.collection_detected, 0);
    EXPECT_GT(f.distribution_detected, 0);
    EXPECT_GT(f.recoveries, 0);
    EXPECT_GT(f.payload_detected, 0);
  }
  {
    SCOPED_TRACE("frame CRC off");
    const FaultOutcome o = run_ber_scenario(/*frame_crc=*/false);
    const net::FaultStats& f = o.faults;
    EXPECT_EQ(o.rt_delivered, 2758);
    EXPECT_EQ(o.bits_flipped, 11693);
    EXPECT_EQ(o.data_bits_flipped, 2627);
    EXPECT_EQ(f.collection_corruptions, 9942);
    EXPECT_EQ(f.collection_detected, 8302);
    EXPECT_EQ(f.collection_silent, 1640);
    EXPECT_EQ(f.distribution_corruptions, 1498);
    EXPECT_EQ(f.distribution_detected, 302);
    EXPECT_EQ(f.rearbitration_slots, 265);
    EXPECT_EQ(f.silent_misarbitrations, 297);
    EXPECT_EQ(f.recoveries, 159);
    EXPECT_EQ(f.recovery_gap.count(), 159);
    EXPECT_EQ(f.payload_corruptions, 1874);
    EXPECT_EQ(f.payload_detected, 1874);
    EXPECT_EQ(f.payload_nacks, 2270);
    expect_unarmed_axes_untouched(o);
    EXPECT_GT(f.collection_detected, 0);
    EXPECT_GT(f.collection_silent, 0);
    EXPECT_GT(f.distribution_detected, 0);
    EXPECT_GT(f.rearbitration_slots, 0);
    EXPECT_GT(f.silent_misarbitrations, 0);
    EXPECT_GT(f.recoveries, 0);
    EXPECT_GT(f.payload_detected, 0);
  }
}

/// The same construction twice in one process must agree field for field
/// (no hidden global state; pools and caches are per-network).
TEST(GoldenStats, BackToBackRunsAreIdentical) {
  auto run = [] {
    const auto sc = workload::make_radar_scenario(workload::RadarParams{});
    net::NetworkConfig cfg;
    cfg.nodes = sc.nodes_required;
    net::Network n(cfg);
    for (const auto& c : sc.connections) (void)n.open_connection(c);
    n.run_slots(5'000);
    return std::tuple{n.stats().total_grants, n.stats().busy_slots,
                      n.stats().cls(TrafficClass::kRealTime).delivered,
                      n.stats().gap.sum(), n.sim().events_fired()};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace ccredf
