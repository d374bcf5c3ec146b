// The paper's claims as EXPERIMENTS.md states them (E1-E15), one case
// per claim that no other test already checks.  Each case runs its
// experiment's scenario with the section's seed and horizon, asserts the
// claim, and pins the counts and ratios the section quotes: the
// simulations are deterministic, so a pinned number moves only when
// behaviour does.  Ratios are pinned to the precision EXPERIMENTS.md
// prints them at.  `ctest -L claims` runs exactly these cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/frames.hpp"
#include "core/schedulability.hpp"
#include "net/network.hpp"
#include "ring/segment.hpp"
#include "services/barrier.hpp"
#include "services/reduce.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sweep/grid.hpp"
#include "sweep/runner.hpp"
#include "workload/periodic.hpp"
#include "workload/poisson.hpp"

namespace ccredf {
namespace {

using core::TrafficClass;
using net::Network;
using net::NetworkConfig;
using sim::Duration;
using sim::TimePoint;
using sweep::Metric;
using sweep::Protocol;

/// The experiment ring: `nodes` nodes on equal `link_m` links, configured
/// the way the sweep configures a cell, with inboxes recorded.
NetworkConfig ring_config(NodeId nodes, Protocol proto = Protocol::kCcrEdf,
                          double link_m = 10.0) {
  sweep::GridSpec spec;
  spec.link_length_m = link_m;
  sweep::GridPoint point;
  point.protocol = proto;
  point.nodes = nodes;
  NetworkConfig cfg = sweep::make_network_config(spec, point);
  cfg.record_inboxes = true;
  return cfg;
}

TimePoint after_slots(const Network& n, std::int64_t slots) {
  return TimePoint::origin() + n.timing().slot() * slots;
}

int open_all(Network& n, const std::vector<core::ConnectionParams>& set) {
  int admitted = 0;
  for (const auto& c : set) {
    if (n.open_connection(c).admitted) ++admitted;
  }
  return admitted;
}

const net::ClassStats& rt_stats(const Network& n) {
  return n.stats().cls(TrafficClass::kRealTime);
}

/// Saturating best-effort traffic: every node floods `rate` messages per
/// slot extent at `locality` hops (0 = uniform) until `slots` slots.
void saturate(Network& n, NodeId locality, std::int64_t min_laxity,
              std::int64_t max_laxity, std::uint64_t seed,
              std::int64_t slots) {
  workload::PoissonParams p;
  p.rate_per_node = 2.0;
  p.locality_hops = locality;
  p.min_laxity_slots = min_laxity;
  p.max_laxity_slots = max_laxity;
  p.seed = seed;
  workload::PoissonGenerator gen(n, p, after_slots(n, slots));
  n.run_slots(slots);
}

std::string hops_name(NodeId hops) {
  return hops == 0 ? "uniform" : std::to_string(hops) + "hop";
}

// -- E1: spatial reuse (Fig. 2, §2) ---------------------------------------

// E1b.  The literal Fig. 2 pair on a 5-node ring: a node 0 -> 2 unicast
// and a node 3 -> {4, 0} multicast.  They share a slot only when the
// master's clock-break link lies outside both segments.  With equal
// laxities the tie goes to the lower index, node 0 becomes master, and
// its break link 4 -> 0 lies inside the multicast, which waits one slot.
// A tighter multicast deadline makes node 3 master (break link 2 -> 3)
// and both transmissions share slot 1.
TEST(PaperClaims, E1bFig2ReuseNeedsTheBreakLinkOutsideBothSegments) {
  const ring::RingTopology topo(5);
  NodeSet multicast;
  multicast.insert(4);
  multicast.insert(0);
  const auto unicast_seg =
      ring::Segment::for_transmission(topo, 0, NodeSet::single(2));
  const auto multicast_seg =
      ring::Segment::for_transmission(topo, 3, multicast);
  EXPECT_TRUE(unicast_seg.compatible_with(multicast_seg));
  EXPECT_FALSE(multicast_seg.feasible_under_master(topo, 0));
  EXPECT_TRUE(unicast_seg.feasible_under_master(topo, 3));
  EXPECT_TRUE(multicast_seg.feasible_under_master(topo, 3));

  struct Outcome {
    std::vector<NodeId> masters;
    std::vector<NodeSet> granted;
    std::int64_t reuse_slots = 0;
  };
  const auto run = [&](Duration multicast_deadline) {
    Network n(ring_config(5));
    n.send_best_effort(0, NodeSet::single(2), 1, Duration::milliseconds(1));
    n.send(3, multicast, TrafficClass::kBestEffort, 1, multicast_deadline);
    Outcome out;
    n.add_slot_observer([&](const net::SlotRecord& rec) {
      out.masters.push_back(rec.master);
      out.granted.push_back(rec.granted);
    });
    n.run_slots(4);
    EXPECT_EQ(n.node(2).inbox().size(), 1u);
    EXPECT_EQ(n.node(4).inbox().size(), 1u);
    EXPECT_EQ(n.node(0).inbox().size(), 1u);
    out.reuse_slots = n.stats().reuse_slots;
    return out;
  };

  const Outcome tie = run(Duration::milliseconds(1));
  EXPECT_EQ(tie.masters, (std::vector<NodeId>{0, 0, 3, 3}));
  EXPECT_EQ(tie.granted[1], NodeSet::single(0));
  EXPECT_EQ(tie.granted[2], NodeSet::single(3));
  EXPECT_EQ(tie.reuse_slots, 0);

  const Outcome urgent = run(Duration::microseconds(20));
  NodeSet both = NodeSet::single(0);
  both.insert(3);
  EXPECT_EQ(urgent.masters, (std::vector<NodeId>{0, 3, 3, 3}));
  EXPECT_EQ(urgent.granted[1], both);
  EXPECT_EQ(urgent.reuse_slots, 1);
}

// E1a.  Saturated 16-node ring: aggregate throughput exceeds the single
// link's rate at every traffic locality, by up to ~N-1 for
// nearest-neighbour traffic and ~1x for uniform traffic.
struct LocalityCell {
  NodeId hops;
  double grants_per_busy_slot;
  double x_link_rate;
};

void PrintTo(const LocalityCell& cell, std::ostream* os) {
  *os << "16 nodes, " << hops_name(cell.hops);
}

class PaperClaimsE1a : public ::testing::TestWithParam<LocalityCell> {};

TEST_P(PaperClaimsE1a, AggregateThroughputExceedsTheLinkRate) {
  const LocalityCell& cell = GetParam();
  Network n(ring_config(16));
  saturate(n, cell.hops, 50, 500, 17 + cell.hops, 3000);
  const double link_rate =
      static_cast<double>(n.phy().link().aggregate_data_rate());
  const double x_link = n.stats().goodput_bps() /
                        (link_rate * n.stats().slot_time_fraction());
  EXPECT_GT(x_link, 1.0);
  EXPECT_NEAR(n.stats().mean_grants_per_busy_slot(),
              cell.grants_per_busy_slot, 0.005);
  EXPECT_NEAR(x_link, cell.x_link_rate, 0.005);
}

INSTANTIATE_TEST_SUITE_P(
    Cells, PaperClaimsE1a,
    ::testing::Values(LocalityCell{1, 15.00, 14.99},
                      LocalityCell{2, 9.51, 9.50},
                      LocalityCell{4, 5.21, 5.20},
                      LocalityCell{8, 2.31, 2.30},
                      LocalityCell{0, 1.04, 1.04}),
    [](const auto& cell) { return hops_name(cell.param.hops); });

// -- E2: minimum slot length (Fig. 3, Eq. 2, §4) --------------------------

// E2a.  Eq. 2 over N x link length.  On short rings the collection and
// distribution packets' own bits exceed the Eq. 2 minimum payload, so
// the frame-bit budget, not Eq. 2, sets the real minimum there (the
// network's auto payload adds both).
TEST(PaperClaims, E2aFrameBitsExceedEq2OnShortRings) {
  struct Cell {
    NodeId nodes;
    double link_m;
    std::int64_t min_slot_ps;
    std::int64_t min_payload;
    std::int64_t collection_bits;
    bool control_fits;
  };
  const Cell cells[] = {{4, 5, 120'000, 48, 53, false},
                        {4, 10, 220'000, 88, 53, true},
                        {4, 50, 1'020'000, 408, 53, true},
                        {8, 5, 240'000, 96, 169, false},
                        {8, 10, 440'000, 176, 169, true},
                        {8, 50, 2'040'000, 816, 169, true},
                        {16, 5, 480'000, 192, 593, false},
                        {16, 10, 880'000, 352, 593, false},
                        {16, 50, 4'080'000, 1632, 593, true},
                        {32, 5, 960'000, 384, 2209, false},
                        {32, 10, 1'760'000, 704, 2209, false},
                        {32, 50, 8'160'000, 3264, 2209, true},
                        {64, 5, 1'920'000, 768, 8513, false},
                        {64, 10, 3'520'000, 1408, 8513, false},
                        {64, 50, 16'320'000, 6528, 8513, false}};
  for (const Cell& c : cells) {
    SCOPED_TRACE(std::to_string(c.nodes) + " nodes, " +
                 std::to_string(c.link_m) + " m");
    const phy::RingPhy ring(phy::optobus(), c.nodes, c.link_m);
    const std::int64_t min_payload =
        core::SlotTiming::min_payload_bytes(ring);
    const core::SlotTiming timing(ring, min_payload);
    const core::FrameCodec codec(c.nodes, core::PriorityLayout{}, false);
    const std::int64_t frame_bits =
        codec.collection_bits() + codec.distribution_bits();
    const bool fits =
        frame_bits <= min_payload + static_cast<std::int64_t>(c.nodes) *
                                        ring.link().node_passthrough_bits;
    EXPECT_EQ(timing.min_slot().ps(), c.min_slot_ps);
    EXPECT_EQ(min_payload, c.min_payload);
    EXPECT_EQ(codec.collection_bits(), c.collection_bits);
    EXPECT_EQ(fits, c.control_fits);
  }
  // The short-ring finding itself: 4 nodes on 5 m links.
  const phy::RingPhy ring(phy::optobus(), 4, 5.0);
  const core::FrameCodec codec(4, core::PriorityLayout{}, false);
  EXPECT_GT(codec.collection_bits() + codec.distribution_bits(),
            core::SlotTiming::min_payload_bytes(ring));
}

// E2b.  At the minimum (auto) slot a saturated ring keeps every slot busy
// after the pipeline fill: arbitration for slot k+1 rides the control
// channel during slot k (Fig. 3).
TEST(PaperClaims, E2bPipelineStaysFullAtTheMinimumSlot) {
  for (const NodeId nodes : {NodeId{4}, NodeId{16}, NodeId{32}}) {
    SCOPED_TRACE(std::to_string(nodes) + " nodes");
    Network n(ring_config(nodes));
    workload::PoissonParams p;
    p.rate_per_node = 3.0;
    p.seed = 5;
    workload::PoissonGenerator gen(n, p, after_slots(n, 1200));
    n.run_slots(1000);
    EXPECT_EQ(n.stats().slots, 1000);
    EXPECT_GE(n.stats().busy_slots, n.stats().slots - 3);
    EXPECT_EQ(n.stats().busy_slots, 999);
  }
}

// -- E3: clock hand-over (Fig. 6-7, Eq. 1, §4) ----------------------------

// E3a.  8 nodes on 10 m links under Poisson load: every observed gap
// equals Eq. 1's P*L*D plus the stop and detect bit times, to the
// picosecond, at every hand-over distance D that occurs.
TEST(PaperClaims, E3aEveryObservedGapMatchesEq1) {
  Network n(ring_config(8));
  const Duration bit = n.phy().link().bit_time();
  std::array<std::int64_t, 8> count_by_hops{};
  n.add_slot_observer([&](const net::SlotRecord& rec) {
    if (rec.token_lost) return;
    const NodeId d = n.topology().hops(rec.master, rec.next_master);
    EXPECT_EQ(rec.gap_after, Duration::nanoseconds(50) * d + bit * 2)
        << "slot " << rec.index << ", D = " << d;
    ++count_by_hops[d];
  });
  workload::PoissonParams p;
  p.rate_per_node = 0.6;
  p.seed = 23;
  workload::PoissonGenerator gen(n, p, after_slots(n, 6000));
  n.run_slots(6000);
  EXPECT_EQ(count_by_hops,
            (std::array<std::int64_t, 8>{5934, 21, 5, 3, 2, 7, 7, 21}));
}

// E3b.  Same load: CCR-EDF's gap varies (5-355 ns) where CC-FPR's is a
// constant one hop (55 ns), yet CCR-EDF's mean gap is the smaller one
// because the master often keeps the token.
TEST(PaperClaims, E3bCcrEdfMeanGapBelowCcFpr) {
  struct Gaps {
    double mean_hops;
    double mean_gap_ns;
    double max_gap_ns;
    double gap_share;
  };
  const auto run = [](Protocol proto) {
    Network n(ring_config(8, proto));
    workload::PoissonParams p;
    p.rate_per_node = 0.6;
    p.seed = 23;
    workload::PoissonGenerator gen(n, p, after_slots(n, 6000));
    n.run_slots(6000);
    const auto& s = n.stats();
    return Gaps{s.handover_hops.mean(), s.gap.mean() / 1e3,
                s.gap.max() / 1e3,
                s.time_in_gaps.ratio(s.time_in_gaps + s.time_in_slots)};
  };
  const Gaps edf = run(Protocol::kCcrEdf);
  const Gaps fpr = run(Protocol::kCcFpr);
  EXPECT_LT(edf.mean_gap_ns, fpr.mean_gap_ns);
  EXPECT_NEAR(edf.mean_hops, 0.05, 0.005);
  EXPECT_NEAR(edf.mean_gap_ns, 7.3, 0.05);
  EXPECT_DOUBLE_EQ(edf.max_gap_ns, 355.0);
  EXPECT_NEAR(edf.gap_share, 0.0081, 0.00005);
  EXPECT_DOUBLE_EQ(fpr.mean_hops, 1.0);
  EXPECT_DOUBLE_EQ(fpr.mean_gap_ns, 55.0);
  EXPECT_DOUBLE_EQ(fpr.max_gap_ns, 55.0);
  EXPECT_NEAR(fpr.gap_share, 0.0580, 0.00005);
}

// -- E4: utilisation bound (Eq. 6) ----------------------------------------

// E4c.  Saturated rings with spatial reuse off (the analysis' one
// message per slot) spend at least U_max of the time in slots: Eq. 6 is
// the floor, attained only if every hand-over is worst case.
TEST(PaperClaims, E4cSaturatedSlotFractionIsAtLeastUmax) {
  sweep::GridSpec spec;
  spec.node_counts = {4, 8, 16};
  spec.utilisations = {1.0};  // unused by the saturation mix
  spec.mixes = {sweep::WorkloadMix::kSaturation};
  spec.set_seeds = {31};
  spec.slots = 5000;
  spec.saturation_rate = 3.0;
  spec.spatial_reuse = false;
  spec.slot_payload_bytes = 1024;
  const sweep::SweepResult res = sweep::run_sweep(spec, {.threads = 1});
  ASSERT_EQ(res.failed_shards, 0);
  const std::array<std::array<double, 2>, 3> pinned{
      {{0.9429, 0.9972}, {0.8782, 0.9961}, {0.7722, 0.9940}}};
  ASSERT_EQ(res.points.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    const double u_max = res.points[i].mean(Metric::kUMax);
    const double measured = res.points[i].mean(Metric::kSlotFraction);
    EXPECT_GE(measured, u_max);
    EXPECT_NEAR(u_max, pinned[i][0], 0.00005);
    EXPECT_NEAR(measured, pinned[i][1], 0.00005);
  }
}

// -- E5: admission control (Eq. 5, §6) ------------------------------------

// E5a.  Offered load 0.2-1.4 x U_max on 8 nodes: the controller accepts
// everything below the bound, sheds the excess beyond it, never admits
// past U_max, and admitted traffic misses no user-level deadline.
TEST(PaperClaims, E5aAdmissionShedsTheExcessAndKeepsTheGuarantee) {
  struct Row {
    double frac;
    double admitted_u;
    int accepted;
    std::int64_t delivered;
  };
  const Row rows[] = {{0.2, 0.204, 24, 1240}, {0.4, 0.346, 24, 1408},
                      {0.6, 0.454, 24, 1409}, {0.8, 0.597, 24, 1613},
                      {1.0, 0.705, 23, 1516}, {1.2, 0.703, 21, 1255},
                      {1.4, 0.711, 17, 1128}};
  for (const Row& row : rows) {
    SCOPED_TRACE(std::to_string(row.frac) + " x U_max offered");
    Network n(ring_config(8));
    const double u_max = n.admission().u_max();
    workload::PeriodicSetParams wp;
    wp.nodes = 8;
    wp.connections = 24;
    wp.total_utilisation = row.frac * u_max;
    wp.min_period_slots = 60;
    wp.max_period_slots = 600;
    wp.seed = 41 + static_cast<std::uint64_t>(row.frac * 10);
    const int accepted = open_all(n, workload::make_periodic_set(wp));
    n.run_slots(8000);
    EXPECT_LE(n.admission().utilisation(), u_max);
    EXPECT_EQ(rt_stats(n).user_misses, 0);
    EXPECT_EQ(accepted, row.accepted);
    EXPECT_NEAR(n.admission().utilisation(), row.admitted_u, 0.0005);
    EXPECT_EQ(rt_stats(n).delivered, row.delivered);
  }
}

// E5b.  200 run-time open/close events: utilisation never exceeds U_max
// at any instant and the guarantee holds through the churn.
TEST(PaperClaims, E5bGuaranteeHoldsThroughConnectionChurn) {
  Network n(ring_config(8));
  sim::Rng rng(99);
  std::vector<ConnectionId> open;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  for (int ev = 0; ev < 200; ++ev) {
    n.run_slots(rng.uniform_int(10, 60));
    if (!open.empty() && rng.bernoulli(0.4)) {
      const auto idx = static_cast<std::size_t>(rng.uniform_u64(open.size()));
      n.close_connection(open[idx]);
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(idx));
      continue;
    }
    core::ConnectionParams c;
    c.source = static_cast<NodeId>(rng.uniform_u64(8));
    NodeId dst;
    do {
      dst = static_cast<NodeId>(rng.uniform_u64(8));
    } while (dst == c.source);
    c.dests = NodeSet::single(dst);
    c.period_slots = rng.uniform_int(30, 300);
    c.size_slots =
        std::max<std::int64_t>(1, c.period_slots / rng.uniform_int(8, 40));
    if (const auto r = n.open_connection(c); r.admitted) {
      open.push_back(r.id);
      ++accepted;
    } else {
      ++rejected;
    }
    EXPECT_LE(n.admission().utilisation(), n.admission().u_max());
  }
  n.run_slots(2000);
  EXPECT_EQ(rt_stats(n).user_misses, 0);
  EXPECT_EQ(accepted, 96);
  EXPECT_EQ(rejected, 19);
  EXPECT_NEAR(n.admission().utilisation(), 0.486, 0.0005);
  EXPECT_NEAR(n.admission().u_max(), 0.715, 0.0005);
  EXPECT_EQ(rt_stats(n).delivered, 864);
}

// -- E6: CCR-EDF vs CC-FPR vs TDMA (§1-3) ---------------------------------

// E6.  Identical admitted sets with tight deadlines on 8 nodes.  CCR-EDF
// shows zero misses and zero inversions at every load; CC-FPR inverts
// priorities thousands of times; TDMA's fixed rotation misses tight
// deadlines.  The CC-FPR rows pin what the engine measures today: no
// user misses at any load, and scheduling misses at 0.50 only.
TEST(PaperClaims, E6ProtocolComparisonOnIdenticalSets) {
  sweep::GridSpec spec;
  spec.protocols = {Protocol::kCcrEdf, Protocol::kCcFpr, Protocol::kTdma};
  spec.node_counts = {8};
  spec.utilisations = {0.3, 0.5, 0.7, 0.85};
  spec.set_seeds = {7};
  spec.slots = 10'000;
  spec.connections_per_node = 2;
  spec.min_period_slots = 10;
  spec.max_period_slots = 120;
  const sweep::SweepResult res = sweep::run_sweep(spec, {.threads = 1});
  ASSERT_EQ(res.failed_shards, 0);

  struct Row {
    std::int64_t delivered;
    double sched_miss;
    double user_miss;
    std::int64_t inversions;
  };
  // [protocol][load], the canonical (protocol-major) point order.
  const Row table[3][4] = {
      {{6653, 0, 0, 0}, {6248, 0, 0, 0}, {6872, 0, 0, 0}, {5723, 0, 0, 0}},
      {{6248, 0, 0, 6166},
       {5802, 0.0072, 0, 6008},
       {6376, 0, 0, 5799},
       {5426, 0, 0, 6110}},
      {{5639, 0.2218, 0.2208, 8749},
       {5063, 0.4823, 0.4618, 8738},
       {5597, 0.5503, 0.5499, 8730},
       {4279, 0.3424, 0.3421, 8747}}};
  ASSERT_EQ(res.points.size(), 12u);
  for (std::size_t p = 0; p < 3; ++p) {
    for (std::size_t l = 0; l < 4; ++l) {
      const sweep::PointResult& pr = res.points[p * 4 + l];
      SCOPED_TRACE(std::string(sweep::protocol_name(pr.point.protocol)) +
                   " at " + std::to_string(pr.point.utilisation));
      const Row& row = table[p][l];
      EXPECT_EQ(pr.mean(Metric::kRtDelivered),
                static_cast<double>(row.delivered));
      EXPECT_NEAR(pr.mean(Metric::kSchedMissRatio), row.sched_miss,
                  0.00005);
      EXPECT_NEAR(pr.mean(Metric::kUserMissRatio), row.user_miss, 0.00005);
      EXPECT_EQ(pr.mean(Metric::kInversions),
                static_cast<double>(row.inversions));
    }
  }
  for (std::size_t l = 0; l < 4; ++l) {
    EXPECT_EQ(res.points[l].mean(Metric::kUserMisses), 0.0);
    EXPECT_EQ(res.points[l].mean(Metric::kSchedMissRatio), 0.0);
    EXPECT_EQ(res.points[l].mean(Metric::kInversions), 0.0);
    EXPECT_GT(res.points[4 + l].mean(Metric::kInversions), 0.0);
    EXPECT_GT(res.points[8 + l].mean(Metric::kUserMissRatio), 0.0);
  }
}

// E6b.  An urgent message whose path wraps past the next round-robin
// master (§1's pathology): CCR-EDF hands the clock to the urgent sender
// and delivers in 2 slots; CC-FPR makes it wait for a rotation whose
// break link clears its path, 4 slots.
TEST(PaperClaims, E6bUrgentWrapAroundMessage) {
  const auto slots_to_deliver = [](Protocol proto) {
    Network n(ring_config(6, proto));
    for (NodeId s = 0; s < 5; ++s) {
      n.send_best_effort(s, NodeSet::single((s + 1) % 6), 1,
                         Duration::milliseconds(10));
    }
    n.send_best_effort(5, NodeSet::single(2), 1, Duration::microseconds(10));
    std::int64_t slots = 0;
    n.add_slot_observer([&](const net::SlotRecord& rec) {
      for (const auto& d : rec.deliveries) {
        if (slots == 0 && d.source == 5) slots = rec.index + 1;
      }
    });
    n.run_slots(30);
    return slots;
  };
  EXPECT_EQ(slots_to_deliver(Protocol::kCcrEdf), 2);
  EXPECT_EQ(slots_to_deliver(Protocol::kCcFpr), 4);
}

// -- E7: latency bound (Eq. 3-4, §5) --------------------------------------

// E7.  At 0.4, 0.7 and 0.9 x U_max no delivery overshoots its EDF
// deadline by more than Eq. 4's t_latency = 2 t_slot + t_handover_max
// (2140 ns at the default slot); the runs show no overshoot at all.
TEST(PaperClaims, E7OvershootStaysWithinTheEq4Bound) {
  const std::array<std::pair<double, std::int64_t>, 3> loads{
      {{0.4, 8822}, {0.7, 8100}, {0.9, 6701}}};
  for (const auto& [frac, pinned_delivered] : loads) {
    SCOPED_TRACE(std::to_string(frac) + " x U_max");
    Network n(ring_config(8));
    const Duration bound = n.timing().worst_case_latency();
    EXPECT_EQ(bound, Duration::picoseconds(2'140'000));
    Duration max_overshoot = Duration::zero();
    std::int64_t delivered = 0;
    n.add_slot_observer([&](const net::SlotRecord& rec) {
      for (const auto& d : rec.deliveries) {
        if (d.deadline == TimePoint::infinity()) continue;
        ++delivered;
        max_overshoot = std::max(max_overshoot, d.completed - d.deadline);
      }
    });
    workload::PeriodicSetParams wp;
    wp.nodes = 8;
    wp.connections = 20;
    wp.total_utilisation = frac * n.timing().u_max();
    wp.min_period_slots = 12;
    wp.max_period_slots = 200;
    wp.seed = 13;
    open_all(n, workload::make_periodic_set(wp));
    n.run_slots(12'000);
    EXPECT_LE(max_overshoot, bound);
    EXPECT_EQ(max_overshoot, Duration::zero());
    EXPECT_EQ(delivered, pinned_delivered);
  }
}

// E7b.  On an idle ring one message takes 1990 ns from arrival to
// delivery: about two 892.5 ns slots (one to arbitrate, one to
// transmit) plus hand-over and propagation -- the Fig. 3 pipeline.
TEST(PaperClaims, E7bIdleRingLatencyIsTheTwoSlotPipeline) {
  Network n(ring_config(8));
  n.send_best_effort(0, NodeSet::single(4), 1, Duration::seconds(1));
  n.run_slots(5);
  ASSERT_EQ(n.node(4).inbox().size(), 1u);
  EXPECT_EQ(n.timing().slot(), Duration::picoseconds(892'500));
  EXPECT_EQ(n.node(4).inbox()[0].latency(), Duration::nanoseconds(1990));
}

// -- E8: priority mapping (Table 1, §3) -----------------------------------

/// Near-capacity best effort with laxities spanning two decades on 8
/// nodes: at feasible load a miss comes only from the mapper ordering two
/// queued messages wrongly.  Returns {delivered, scheduling-miss ratio}.
std::pair<std::int64_t, double> mixed_laxity_run(Network& n) {
  workload::PoissonParams p;
  p.rate_per_node = 0.11;
  p.min_laxity_slots = 4;
  p.max_laxity_slots = 400;
  p.min_size_slots = 1;
  p.max_size_slots = 2;
  p.seed = 77;
  workload::PoissonGenerator gen(n, p, after_slots(n, 8000));
  n.run_slots(9000);
  const auto& be = n.stats().cls(TrafficClass::kBestEffort);
  return {be.delivered, be.scheduling_miss_ratio()};
}

// E8c.  The logarithmic map needs no tuning: it misses nothing, a
// linear quantum of 64 slots misses 0.04 %, and a mistuned quantum of
// 512 slots, which cannot separate urgencies closer than ~512 slots,
// misses 0.96 %.
TEST(PaperClaims, E8cLogarithmicMapperNeedsNoTuning) {
  const auto run = [](std::int64_t quantum) {
    NetworkConfig cfg = ring_config(8);
    cfg.linear_quantum_slots = quantum;
    Network n(cfg);
    return mixed_laxity_run(n);
  };
  const auto log = run(0);
  const auto q64 = run(64);
  const auto q512 = run(512);
  EXPECT_LE(log.second, q64.second);
  EXPECT_LT(q64.second, q512.second);
  for (const auto& r : {log, q64, q512}) EXPECT_EQ(r.first, 5097);
  EXPECT_EQ(log.second, 0.0);
  EXPECT_NEAR(q64.second, 0.0004, 0.00005);
  EXPECT_NEAR(q512.second, 0.0096, 0.00005);
}

// E8d.  Field width: the paper's 5 bits already resolve ~15 laxity
// doublings in the RT band; narrower fields miss more, wider ones grow
// every collection packet by N bits per extra field bit for no gain.
TEST(PaperClaims, E8dFiveFieldBitsAreEnough) {
  struct Row {
    unsigned bits;
    std::int64_t rt_levels;
    std::int64_t collection_bits;
    std::int64_t delivered;
    double sched_miss;
  };
  const Row rows[] = {{3, 3, 153, 5034, 0.0054},
                      {4, 7, 161, 5063, 0.0006},
                      {5, 15, 169, 5097, 0.0},
                      {6, 31, 177, 5129, 0.0004},
                      {8, 127, 193, 5192, 0.0004}};
  for (const Row& row : rows) {
    SCOPED_TRACE(std::to_string(row.bits) + " field bits");
    NetworkConfig cfg = ring_config(8);
    cfg.priority.field_bits = row.bits;
    Network n(cfg);
    const auto [delivered, sched_miss] = mixed_laxity_run(n);
    const core::PriorityLayout& lay = cfg.priority;
    EXPECT_EQ(lay.real_time_hi() - lay.real_time_lo() + 1, row.rt_levels);
    EXPECT_EQ(n.codec().collection_bits(), row.collection_bits);
    EXPECT_EQ(delivered, row.delivered);
    EXPECT_NEAR(sched_miss, row.sched_miss, 0.00005);
  }
}

// -- E9: run-time reuse gain (§5) -----------------------------------------

// The analysis assumes one message per slot; at run time spatial reuse
// "always results in positive effects".  Gain = saturated goodput with
// reuse on / off: never below 1, growing as segments shrink, and for
// nearest-neighbour traffic tracking N-1 as the ring grows.  One ctest
// entry per cell: saturated queues reach 10^5 messages.
struct ReuseCell {
  NodeId nodes;
  NodeId hops;
  std::uint64_t seed;
  double gain;
};

void PrintTo(const ReuseCell& cell, std::ostream* os) {
  *os << cell.nodes << " nodes, " << hops_name(cell.hops) << ", seed "
      << cell.seed;
}

class PaperClaimsE9 : public ::testing::TestWithParam<ReuseCell> {};

TEST_P(PaperClaimsE9, ReuseGainIsAtLeastOne) {
  const ReuseCell& cell = GetParam();
  const auto goodput = [&](bool reuse) {
    NetworkConfig cfg = ring_config(cell.nodes);
    cfg.spatial_reuse = reuse;
    Network n(cfg);
    saturate(n, cell.hops, 100, 2000, cell.seed, 4000);
    return n.stats().goodput_bps();
  };
  const double gain = goodput(true) / goodput(false);
  EXPECT_GE(gain, 1.0);
  if (cell.hops == 1) {
    EXPECT_GT(gain, 0.95 * static_cast<double>(cell.nodes - 1));
  }
  EXPECT_NEAR(gain, cell.gain, 0.005);
}

INSTANTIATE_TEST_SUITE_P(
    Cells, PaperClaimsE9,
    ::testing::Values(ReuseCell{16, 1, 3, 14.94}, ReuseCell{16, 2, 3, 9.40},
                      ReuseCell{16, 4, 3, 5.17}, ReuseCell{16, 8, 3, 2.33},
                      ReuseCell{16, 0, 3, 1.04}, ReuseCell{4, 1, 5, 2.99},
                      ReuseCell{8, 1, 5, 6.97}, ReuseCell{16, 1, 5, 14.95},
                      ReuseCell{32, 1, 5, 30.95}),
    [](const auto& cell) {
      std::ostringstream name;
      name << 'n' << cell.param.nodes << '_' << hops_name(cell.param.hops)
           << "_seed" << cell.param.seed;
      return name.str();
    });

// -- E10: barrier and reduction (§1, §7) ----------------------------------

// E10.  Barrier and global reduction complete within one slot extent of
// the last arrival (0.79-0.87 extents) from 4 to 32 nodes, and a
// saturated data channel moves that by at most 3.4 % (3.36 % at 32
// nodes): both ride the control channel, never competing with data
// slots.
TEST(PaperClaims, E10ServicesCompleteWithinOneSlotExtentUnderAnyLoad) {
  const auto mean_latency_us = [](NodeId nodes, bool loaded) {
    Network n(ring_config(nodes));
    services::BarrierService barrier(n);
    services::GlobalReduceService reduce(n);
    sim::Rng rng(11);
    std::optional<workload::PoissonGenerator> gen;
    if (loaded) {
      workload::PoissonParams p;
      p.rate_per_node = 1.0;
      p.seed = 12;
      gen.emplace(n, p, after_slots(n, 100'000));
    }
    sim::OnlineStats latency;
    const NodeSet everyone = n.topology().all_nodes();
    for (int round = 0; round < 50; ++round) {
      barrier.begin(everyone);
      reduce.begin(everyone, services::ReduceOp::kSum);
      for (NodeId node = 0; node < nodes; ++node) {
        const auto delay = n.timing().slot() * rng.uniform_int(0, 20);
        n.sim().schedule_in(delay, [&, node] {
          barrier.arrive(node);
          reduce.contribute(node, 1);
        });
      }
      n.run_slots(40);
      EXPECT_TRUE(barrier.complete());
      EXPECT_TRUE(reduce.complete());
      if (barrier.complete()) latency.add(*barrier.latency());
    }
    return latency.mean() / 1e6;
  };
  struct Row {
    NodeId nodes;
    double idle_us;
    double saturated_us;
  };
  const Row rows[] = {{4, 0.4521, 0.4591},
                      {8, 0.9883, 0.9856},
                      {16, 2.5165, 2.5507},
                      {32, 7.4814, 7.73275}};
  for (const Row& row : rows) {
    SCOPED_TRACE(std::to_string(row.nodes) + " nodes");
    const double extent_us =
        Network(ring_config(row.nodes)).timing().slot_plus_max_gap().us();
    const double idle = mean_latency_us(row.nodes, false);
    const double saturated = mean_latency_us(row.nodes, true);
    EXPECT_LE(idle, extent_us);
    EXPECT_LE(saturated, extent_us);
    EXPECT_LE(std::abs(saturated - idle) / idle, 0.034);
    EXPECT_NEAR(idle, row.idle_us, 0.00005);
    EXPECT_NEAR(saturated, row.saturated_us, 0.00005);
  }
}

// -- E15: ring-size scaling (derived series) ------------------------------

// E15a.  At 0.6 x U_max from 4 to 64 nodes the collection packet grows
// O(N^2) bits (53 -> 8513), which forces auto payloads of 148 B ->
// 9992 B and Eq. 4 bounds of 0.895 us -> 53.115 us, with no user miss.
TEST(PaperClaims, E15aControlOverheadGrowsQuadratically) {
  sweep::GridSpec spec;
  spec.node_counts = {4, 8, 16, 32, 64};
  spec.utilisations = {0.6};
  spec.set_seeds = {21};
  spec.slots = 6000;
  spec.connections_per_node = 2;
  spec.min_period_slots = 30;
  spec.max_period_slots = 300;
  const sweep::SweepResult res = sweep::run_sweep(spec, {.threads = 1});
  ASSERT_EQ(res.failed_shards, 0);
  const std::array<std::int64_t, 5> payload{148, 357, 966, 2951, 9992};
  const std::array<std::int64_t, 5> collection_bits{53, 169, 593, 2209,
                                                    8513};
  ASSERT_EQ(res.points.size(), payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    const sweep::PointResult& pr = res.points[i];
    SCOPED_TRACE(std::to_string(pr.point.nodes) + " nodes");
    const Network n(sweep::make_network_config(spec, pr.point));
    EXPECT_EQ(n.timing().payload_bytes(), payload[i]);
    EXPECT_EQ(n.codec().collection_bits(), collection_bits[i]);
    EXPECT_EQ(pr.mean(Metric::kUserMisses), 0.0);
    if (i == 0) {
      EXPECT_EQ(n.timing().worst_case_latency(), Duration::nanoseconds(895));
    }
    if (i + 1 == payload.size()) {
      EXPECT_EQ(n.timing().worst_case_latency(),
                Duration::nanoseconds(53'115));
    }
  }
}

// E15b.  Zero inversions and zero user misses at 4, 16 and 64 nodes
// under 0.85 x U_max: the guarantee holds up to kMaxNodes.
TEST(PaperClaims, E15bGuaranteeHoldsAtEveryScale) {
  sweep::GridSpec spec;
  spec.node_counts = {4, 16, 64};
  spec.utilisations = {0.85};
  spec.set_seeds = {22};
  spec.slots = 5000;
  spec.connections_per_node = 3;
  spec.min_period_slots = 20;
  spec.max_period_slots = 200;
  const sweep::SweepResult res = sweep::run_sweep(spec, {.threads = 1});
  ASSERT_EQ(res.failed_shards, 0);
  ASSERT_EQ(res.points.size(), 3u);
  for (const sweep::PointResult& pr : res.points) {
    SCOPED_TRACE(std::to_string(pr.point.nodes) + " nodes");
    EXPECT_GT(pr.mean(Metric::kRtDelivered), 0.0);
    EXPECT_EQ(pr.mean(Metric::kInversions), 0.0);
    EXPECT_EQ(pr.mean(Metric::kUserMissRatio), 0.0);
  }
}

}  // namespace
}  // namespace ccredf
