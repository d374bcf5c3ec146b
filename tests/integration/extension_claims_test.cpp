// The claims of the experiments that extend the paper (E11, E18, E19,
// E21-E24) as EXPERIMENTS.md states them, one case per claim that no
// other test already checks.  Each case runs its experiment's scenario
// with the section's seed and horizon, asserts the claim, and pins the
// counts and ratios the section quotes: the simulations are
// deterministic, so a pinned number moves only when behaviour does.
// Ratios are pinned to the precision EXPERIMENTS.md prints them at.
// `ctest -L claims` runs these cases beside tests/integration/
// paper_claims_test.cpp (E1-E15).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "net/network.hpp"
#include "ring/segment.hpp"
#include "services/admission_agent.hpp"
#include "services/cbs.hpp"
#include "services/reliable.hpp"
#include "services/resilience.hpp"
#include "sweep/grid.hpp"
#include "workload/aperiodic.hpp"
#include "workload/churn.hpp"
#include "workload/periodic.hpp"
#include "workload/poisson.hpp"

namespace ccredf {
namespace {

using core::TrafficClass;
using net::Network;
using net::NetworkConfig;
using sim::Duration;
using sim::TimePoint;
using sweep::Protocol;

/// The experiment ring: `nodes` nodes on 10 m links, configured the way
/// the sweep configures a cell.
NetworkConfig ring_config(NodeId nodes, Protocol proto = Protocol::kCcrEdf) {
  sweep::GridPoint point;
  point.protocol = proto;
  point.nodes = nodes;
  return sweep::make_network_config(sweep::GridSpec{}, point);
}

TimePoint after_extents(const Network& n, std::int64_t extents) {
  return TimePoint::origin() + n.timing().slot_plus_max_gap() * extents;
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

/// The fault experiments' workload: 12 connections at 0.5 U_max with
/// periods of 8-40 slots, so one recovery stall or retransmission round
/// trip overruns a deadline and faults turn directly into misses.
std::vector<core::ConnectionParams> tight_set(const Network& n) {
  workload::PeriodicSetParams wp;
  wp.nodes = n.nodes();
  wp.connections = 12;
  wp.total_utilisation = 0.5 * n.timing().u_max();
  wp.min_period_slots = 8;
  wp.max_period_slots = 40;
  wp.seed = 3;
  return workload::make_periodic_set(wp);
}

/// The resilience experiments' workload: 16 connections at 0.5 U_max
/// with roomy periods of 20-120 slots on 8 nodes.
std::vector<core::ConnectionParams> roomy_set(const Network& n,
                                              std::uint64_t seed) {
  workload::PeriodicSetParams wp;
  wp.nodes = n.nodes();
  wp.connections = 16;
  wp.total_utilisation = 0.5 * n.timing().u_max();
  wp.min_period_slots = 20;
  wp.max_period_slots = 120;
  wp.seed = seed;
  return workload::make_periodic_set(wp);
}

// -- E11: token-loss recovery (§8 future work) ----------------------------

// E11a.  Recovery cost is the timeout times one slot extent (t_slot +
// max gap) per loss: 2.5/5.0/10.0/20.0 us per recovery at timeouts
// 2/4/8/16 slots.  Twelve scheduled losses over 2,500 slots under
// Poisson best effort, each one recovered.
TEST(ExtensionClaims, E11aRecoveryCostIsLinearInTheTimeout) {
  struct Row {
    std::int64_t timeout;
    double us_per_recovery;
  };
  const Row rows[] = {{2, 2.5}, {4, 5.0}, {8, 10.0}, {16, 20.0}};
  for (const Row& row : rows) {
    SCOPED_TRACE("timeout " + std::to_string(row.timeout) + " slots");
    NetworkConfig cfg = ring_config(8);
    cfg.recovery_timeout_slots = row.timeout;
    Network n(cfg);
    fault::FaultInjector inj(n, 7);
    for (SlotIndex s = 100; s < 2400; s += 200) inj.schedule_token_loss(s);
    workload::PoissonParams p;
    p.rate_per_node = 0.3;
    p.seed = 7;
    workload::PoissonGenerator gen(
        n, p, TimePoint::origin() + n.timing().slot() * 2500);
    n.run_slots(2500);
    EXPECT_EQ(n.recoveries(), 12);
    EXPECT_EQ(n.recovery_time(),
              n.timing().slot_plus_max_gap() * row.timeout * n.recoveries());
    EXPECT_NEAR(n.recovery_time().us() / 12.0, row.us_per_recovery, 0.05);
  }
}

// E11b.  With tight deadlines the user-miss ratio scales with the
// token-loss rate: 0 % at loss 0, 0.02 % at 1 %/slot, 3.81 % at 5 %/slot
// and 75.83 % at 15 %/slot over a fixed wall-clock horizon of 10,000
// slots (seed 13).
TEST(ExtensionClaims, E11bUserMissesScaleWithTokenLossRate) {
  struct Row {
    double loss;
    std::int64_t losses;
    std::int64_t delivered;
    std::int64_t user_misses;
    double ratio;
  };
  const Row rows[] = {{0.0, 0, 6380, 0, 0.0},
                      {0.01, 91, 6380, 1, 0.0002},
                      {0.05, 372, 6376, 243, 0.0381},
                      {0.15, 782, 5036, 3819, 0.7583}};
  double previous = -1.0;
  for (const Row& row : rows) {
    SCOPED_TRACE("loss " + std::to_string(row.loss));
    Network n(ring_config(8));
    fault::FaultInjector inj(n, 13);
    if (row.loss > 0.0) inj.set_random_token_loss(row.loss);
    open_all(n, tight_set(n));
    n.run_for(n.timing().slot() * 10'000);
    const auto& rt = rt_stats(n);
    EXPECT_EQ(inj.token_losses_injected(), row.losses);
    EXPECT_EQ(rt.delivered, row.delivered);
    EXPECT_EQ(rt.user_misses, row.user_misses);
    EXPECT_NEAR(rt.user_miss_ratio(), row.ratio, 0.00005);
    EXPECT_GT(rt.user_miss_ratio(), previous);
    previous = rt.user_miss_ratio();
  }
}

// -- E18: control-channel bit errors with the frame CRC on ----------------

// E18.  Every control-channel corruption is detected (the silent column
// stays zero), each detection costs one bounded restarter timeout, and
// the miss ratio degrades gracefully: CCR-EDF holds 0.03 % at BER 1e-4
// where CC-FPR shows 3.35 %, before both collapse at 1e-3.  8 nodes,
// the tight set at 0.5 U_max, 6,000 slots of wall time, seed 21.
TEST(ExtensionClaims, E18DetectedCorruptionDegradesGracefully) {
  struct Row {
    Protocol proto;
    double ber;
    std::int64_t corrupt;
    std::int64_t recoveries;
    double recovery_us;
    std::int64_t user_misses;
    double ratio;
  };
  constexpr Protocol kEdf = Protocol::kCcrEdf;
  constexpr Protocol kFpr = Protocol::kCcFpr;
  const Row rows[] = {{kEdf, 0.0, 0, 0, 0.0, 0, 0.0},
                      {kEdf, 1e-5, 42, 8, 45.7, 0, 0.0},
                      {kEdf, 1e-4, 520, 65, 371.1, 1, 0.0003},
                      {kEdf, 1e-3, 3601, 438, 2501.0, 2402, 0.714},
                      {kFpr, 0.0, 0, 0, 0.0, 1, 0.0003},
                      {kFpr, 1e-5, 52, 8, 36.1, 4, 0.001},
                      {kFpr, 1e-4, 565, 69, 311.2, 128, 0.0335},
                      {kFpr, 1e-3, 4096, 492, 2218.9, 1821, 0.652}};
  double ratio_at_1e4[2] = {0.0, 0.0};
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string(sweep::protocol_name(row.proto)) + " BER " +
                 std::to_string(row.ber));
    NetworkConfig cfg = ring_config(8, row.proto);
    cfg.with_frame_crc = true;
    Network n(cfg);
    fault::FaultInjector inj(n, 21);
    if (row.ber > 0.0) inj.set_control_ber(row.ber);
    open_all(n, tight_set(n));
    n.run_for(n.timing().slot() * 6'000);
    const auto& f = n.stats().faults;
    EXPECT_EQ(f.collection_corruptions + f.distribution_corruptions,
              row.corrupt);
    EXPECT_EQ(f.detected(), row.corrupt);
    EXPECT_EQ(f.silent(), 0);
    EXPECT_EQ(n.recoveries(), row.recoveries);
    EXPECT_EQ(n.recovery_time(),
              (n.timing().slot() + n.protocol().max_gap()) *
                  cfg.recovery_timeout_slots * n.recoveries());
    EXPECT_NEAR(n.recovery_time().us(), row.recovery_us, 0.05);
    EXPECT_EQ(rt_stats(n).user_misses, row.user_misses);
    EXPECT_NEAR(rt_stats(n).user_miss_ratio(), row.ratio, 0.00005);
    if (row.ber == 1e-4) {
      ratio_at_1e4[row.proto == kEdf ? 0 : 1] = rt_stats(n).user_miss_ratio();
    }
  }
  EXPECT_LT(ratio_at_1e4[0], ratio_at_1e4[1]);
}

// -- E19: data-channel faults, laxity-budgeted ARQ, graceful degradation --

using Result = services::ReliableChannel::TransferResult;

struct Transfers {
  std::int64_t total = 0;
  std::int64_t met = 0;      // delivered intact, on or before deadline
  std::int64_t garbage = 0;  // delivered corrupted (no payload CRC)
  std::int64_t abandoned = 0;
  std::int64_t retx = 0;
  std::int64_t nacks = 0;

  /// A garbage delivery met its deadline at the service layer but
  /// carried the wrong bits: it counts as a miss.
  [[nodiscard]] double miss_ratio() const {
    const std::int64_t good = std::max<std::int64_t>(0, met - garbage);
    return 1.0 - static_cast<double>(good) / static_cast<double>(total);
  }
};

/// Every node of an 8-node ring streams 200 reliable transfers to the node
/// three hops on (2-slot transfers every 10 slot extents, deadline 14)
/// over data fibres that flip bits at `data_ber`.  All data traffic is
/// reliable transfers, so each undetected payload corruption is one
/// transfer delivered as garbage.  The horizon is wall time, so every
/// strategy fires the identical transfer set.
Transfers run_transfers(bool payload_crc, bool laxity_budgeted,
                        double data_ber) {
  NetworkConfig cfg = ring_config(8);
  cfg.with_acks = true;
  cfg.with_payload_crc = payload_crc;
  Network n(cfg);
  fault::FaultInjector inj(n, 31);
  if (data_ber > 0.0) inj.set_data_ber(data_ber);
  services::ReliableChannel::Params rp;
  rp.max_attempts = 8;
  rp.laxity_budgeted = laxity_budgeted;
  services::ReliableChannel ch(n, rp);

  constexpr std::int64_t kPerNode = 200;
  constexpr std::int64_t kPeriodSlots = 10;
  const Duration extent = n.timing().slot_plus_max_gap();
  Transfers res;
  const auto count_met = [&res](const Result& r) {
    if (r.delivered && r.completed <= r.deadline) ++res.met;
  };
  for (std::int64_t s = 0; s < 8; ++s) {
    const auto src = static_cast<NodeId>(s);
    const auto dst = static_cast<NodeId>((s + 3) % 8);
    for (std::int64_t k = 0; k < kPerNode; ++k) {
      n.sim().schedule_at(after_extents(n, 5 + s + k * kPeriodSlots),
                          [&res, &ch, count_met, src, dst, extent] {
                            ++res.total;
                            ch.send(src, dst, 2, extent * 14, count_met);
                          });
    }
  }
  n.run_for(extent * (kPerNode * kPeriodSlots + 208));
  res.garbage = n.stats().faults.payload_undetected;
  res.abandoned = ch.transfers_abandoned();
  res.retx = ch.retransmissions();
  res.nacks = ch.nacks_received();
  return res;
}

void expect_transfers(const Transfers& got, const Transfers& want) {
  EXPECT_EQ(got.total, want.total);
  EXPECT_EQ(got.met, want.met);
  EXPECT_EQ(got.garbage, want.garbage);
  EXPECT_EQ(got.nacks, want.nacks);
  EXPECT_EQ(got.retx, want.retx);
  EXPECT_EQ(got.abandoned, want.abandoned);
}

// E19a.  At data BER 3e-5 the payload CRC plus laxity-budgeted ARQ
// misses 16.87 % of 1,600 transfers, strictly below fixed retries
// (95.94 %, a retry storm) and no CRC (40.69 %, silent garbage).
TEST(ExtensionClaims, E19aLaxityBudgetedArqBeatsBothBaselines) {
  const Transfers arq = run_transfers(true, true, 3e-5);
  const Transfers fixed = run_transfers(true, false, 3e-5);
  const Transfers nocrc = run_transfers(false, true, 3e-5);
  EXPECT_LT(arq.miss_ratio(), fixed.miss_ratio());
  EXPECT_LT(arq.miss_ratio(), nocrc.miss_ratio());
  expect_transfers(arq, {1600, 1330, 0, 240, 705, 945});
  expect_transfers(fixed, {1600, 65, 0, 0, 1161, 1163});
  expect_transfers(nocrc, {1600, 1600, 651, 0, 0, 0});
  EXPECT_NEAR(arq.miss_ratio(), 0.1687, 0.00005);
  EXPECT_NEAR(fixed.miss_ratio(), 0.9594, 0.00005);
  EXPECT_NEAR(nocrc.miss_ratio(), 0.4069, 0.00005);
}

// E19b.  At BER 1e-6 with the CRC on, the 36 corrupted transfers are all
// detected and NACKed: zero undetected payload corruptions.
TEST(ExtensionClaims, E19bCrcLeavesNoUndetectedCorruptionAtBer1e6) {
  const Transfers low = run_transfers(true, true, 1e-6);
  EXPECT_EQ(low.garbage, 0);
  EXPECT_EQ(low.nacks, 36);
}

// E19c.  The AdmissionAgent's health monitor (window 500 slots,
// threshold 0.5 %) derates the admission bound by the measured
// corruption rate, monotonically in the data BER: capacity factor
// 1.0000/0.8969/0.5404/0.1448 at BER 0/1e-5/5e-5/2e-4 over 8,000 slots.
TEST(ExtensionClaims, E19cHealthMonitorDeratesMonotonically) {
  struct Row {
    double ber;
    double observed;
    double factor;
    double effective_u_max;
  };
  const Row rows[] = {{0.0, 0.0, 1.0, 0.7243},
                      {1e-5, 0.1031, 0.8969, 0.6496},
                      {5e-5, 0.4596, 0.5404, 0.3914},
                      {2e-4, 0.8552, 0.1448, 0.1049}};
  double previous = 1.0;
  for (const Row& row : rows) {
    SCOPED_TRACE("data BER " + std::to_string(row.ber));
    NetworkConfig cfg = ring_config(8);
    cfg.with_acks = true;
    cfg.with_payload_crc = true;
    Network n(cfg);
    fault::FaultInjector inj(n, 47);
    if (row.ber > 0.0) inj.set_data_ber(row.ber);
    services::AdmissionAgent::Params ap;
    ap.health_window_slots = 500;
    ap.derate_threshold = 0.005;
    services::AdmissionAgent agent(n, ap);
    open_all(n, tight_set(n));
    n.run_slots(8'000);
    const double factor = agent.capacity_factor();
    EXPECT_LE(factor, previous);
    previous = factor;
    EXPECT_NEAR(agent.observed_corruption_rate(), row.observed, 0.00005);
    EXPECT_NEAR(factor, row.factor, 0.00005);
    EXPECT_NEAR(n.admission().effective_u_max(), row.effective_u_max,
                0.00005);
    EXPECT_DOUBLE_EQ(n.admission().effective_u_max(),
                     n.timing().u_max() * factor);
  }
}

// -- E21: CBS isolation and best-effort fairness --------------------------

struct CbsRun {
  /// Per-connection "released/sched_misses/user_misses" in admission
  /// order: wall-keyed releases and misses only, so the digest does not
  /// depend on where the horizon cuts an in-flight delivery.
  std::string rt_digest;
  std::int64_t rt_released = 0;
  std::int64_t rt_misses = 0;  // scheduling + user
  int cbs_admitted = 0;
  std::int64_t cbs_delivered = 0;
  std::int64_t be_delivered = 0;
  std::int64_t postponements = 0;
  double jain = 0.0;
  std::vector<std::int64_t> flow_bytes;
};

/// 16 RT connections at 0.5 U_max on 8 nodes (seed 21) over 20,000 slot
/// extents of wall time, alone or beside 8 CBS servers (Q = 2, T = 100)
/// offered ~25x their reservation, with transmit buffers capped at 256.
CbsRun run_cbs_case(bool with_cbs) {
  NetworkConfig cfg = ring_config(8);
  cfg.max_queue_messages = 256;
  Network n(cfg);
  std::vector<ConnectionId> rt_ids;
  for (const auto& c : roomy_set(n, 21)) {
    const auto open = n.open_connection(c);
    if (open.admitted) rt_ids.push_back(open.id);
  }
  constexpr std::int64_t kHorizon = 20'000;
  CbsRun res;
  std::optional<services::CbsFlowSet> flows;
  std::optional<workload::AperiodicGenerator> gen;
  if (with_cbs) {
    services::CbsFlowSetParams cp;
    cp.flows = 8;
    cp.budget_slots = 2;
    cp.period_slots = 100;
    flows.emplace(n, cp);
    res.cbs_admitted = flows->admitted();
    workload::AperiodicParams ap;
    ap.rate_per_flow = 0.2;
    ap.min_size_slots = 1;
    ap.max_size_slots = 4;
    ap.seed = 2121;
    gen.emplace(n, flows->ids(), ap, after_extents(n, kHorizon));
  }
  n.run_for(n.timing().slot_plus_max_gap() * kHorizon);
  for (const ConnectionId id : rt_ids) {
    const auto& cs = n.connection_stats(id);
    res.rt_digest += std::to_string(cs.released) + "/" +
                     std::to_string(cs.scheduling_misses) + "/" +
                     std::to_string(cs.user_misses) + ";";
    res.rt_released += cs.released;
    res.rt_misses += cs.scheduling_misses + cs.user_misses;
  }
  if (flows.has_value()) {
    res.be_delivered = n.stats().cls(TrafficClass::kBestEffort).delivered;
    res.postponements = n.stats().cbs.postponements;
    res.jain = flows->jain_index();
    for (const ConnectionId id : flows->ids()) {
      res.cbs_delivered += n.connection_stats(id).delivered;
      res.flow_bytes.push_back(n.connection_stats(id).bytes);
    }
  }
  return res;
}

// E21a.  A CBS population saturated far past its reservation rides the
// best-effort band (all 30,851 job deliveries) and leaves the hard-RT
// set's per-connection digest byte-identical: 10,280 releases and 0
// misses of either kind in both runs, with 38,604 budget-exhaustion
// postponements fired.  E21b.  The 8 equal reservations earn Jain index
// 0.9906 (floor 0.9), shares spanning 9.3-13.3 %.
TEST(ExtensionClaims, E21CbsSaturationKeepsRtIntactAndSharesFairly) {
  const CbsRun alone = run_cbs_case(false);
  const CbsRun shared = run_cbs_case(true);
  EXPECT_EQ(alone.rt_digest, shared.rt_digest);
  EXPECT_EQ(alone.rt_misses, 0);
  EXPECT_EQ(shared.rt_misses, 0);
  EXPECT_EQ(alone.rt_released, 10'280);
  EXPECT_EQ(shared.cbs_delivered, 30'851);
  EXPECT_EQ(shared.be_delivered, shared.cbs_delivered);
  EXPECT_EQ(shared.postponements, 38'604);

  EXPECT_EQ(shared.cbs_admitted, 8);
  ASSERT_EQ(shared.flow_bytes.size(), 8u);
  EXPECT_GE(shared.jain, 0.9);
  EXPECT_NEAR(shared.jain, 0.9906, 0.00005);
  std::int64_t total = 0;
  for (const std::int64_t b : shared.flow_bytes) total += b;
  const auto [lo, hi] =
      std::minmax_element(shared.flow_bytes.begin(), shared.flow_bytes.end());
  EXPECT_NEAR(static_cast<double>(*lo) / static_cast<double>(total), 0.093,
              0.0005);
  EXPECT_NEAR(static_cast<double>(*hi) / static_cast<double>(total), 0.133,
              0.0005);
}

// -- E22: failure detection, reclamation and re-admission under churn -----

// E22a.  Nodes 6 and 7 of an 8-node ring churn for 10^7 slots
// (exponential dwells, mean up 40,000 / down 2,000 slots, seed 22)
// under the ResilienceMonitor (detection window 16).  The 7 connections
// disjoint from both churned nodes miss zero user deadlines; detection
// latency peaks at exactly window + 1 = 17 slots; each of the 930
// quarantines re-admits, and reclaimed weight matches the utilisation
// drop to 1e-9.  E22b.  The 61 token-loss recoveries export exact
// nearest-rank gap quantiles, p50 = p99 = 4.99 us.
TEST(ExtensionClaims, E22ChurnHurtsOnlyTrafficThatTouchesIt) {
  constexpr std::int64_t kHorizon = 10'000'000;
  constexpr std::int64_t kWindow = 16;
  NetworkConfig cfg = ring_config(8);
  Network n(cfg);
  NodeSet churned;
  churned.insert(6);
  churned.insert(7);
  fault::FaultInjector injector(n, 22);
  services::ResilienceParams rp;
  rp.detection_window_slots = kWindow;
  services::ResilienceMonitor monitor(n, rp);

  std::vector<ConnectionId> disjoint;
  int admitted = 0;
  for (const auto& c : roomy_set(n, 22)) {
    const auto open = n.open_connection(c);
    if (!open.admitted) continue;
    ++admitted;
    if (!churned.contains(c.source) && !c.dests.intersects(churned)) {
      disjoint.push_back(open.id);
    }
  }
  workload::ChurnParams chp;
  chp.nodes = churned;
  chp.mean_up_slots = 40'000.0;
  chp.mean_down_slots = 2'000.0;
  chp.seed = 22;
  const workload::ChurnProcess churn(
      n, injector, chp, TimePoint::origin() + n.timing().slot() * kHorizon);
  n.run_slots(kHorizon);

  EXPECT_EQ(admitted, 16);
  ASSERT_EQ(disjoint.size(), 7u);
  std::int64_t disjoint_misses = 0;
  for (const ConnectionId id : disjoint) {
    disjoint_misses += n.connection_stats(id).user_misses;
  }
  EXPECT_EQ(disjoint_misses, 0);

  const services::ResilienceStats& m = monitor.stats();
  EXPECT_EQ(churn.failures_scheduled(), 312);
  EXPECT_EQ(m.downs, 310);
  EXPECT_EQ(m.reappearances, 310);
  EXPECT_EQ(m.detection_latency_slots.max(),
            static_cast<double>(kWindow + 1));
  EXPECT_EQ(m.readmit_attempts, 930);
  EXPECT_EQ(m.readmissions, 930);
  EXPECT_NEAR(m.weight_reclaimed, 28.58, 0.005);
  EXPECT_LE(m.reclaim_error, 1e-9);

  const auto& gaps = n.stats().faults.recovery_gap_quantiles;
  EXPECT_EQ(n.recoveries(), 61);
  EXPECT_EQ(gaps.quantile(0.5), gaps.quantile(0.99));
  EXPECT_NEAR(static_cast<double>(gaps.quantile(0.5)) / 1e6, 4.99, 0.005);
}

// -- E23: hypercycle reservation planner ----------------------------------

// E23a.  128 one-hop streams on 32 nodes (4 per source, e = 1, P = 32)
// offer u = 4.0 against U_max ~ 0.826.  The planner admits all 128 and
// runs 20,000 slots with zero misses, the plan driving >= 95 % of slots
// with no divergence and the control channel silent (0.000 requests per
// slot).  Per-slot TCMA and CC-FPR stop at 26 streams (u 0.812) and
// post 0.814 and 0.844 requests per slot.
TEST(ExtensionClaims, E23aPlannerAdmitsPastUmaxWithZeroMisses) {
  constexpr NodeId kNodes = 32;
  constexpr std::int64_t kPeriod = 32;
  std::vector<core::ConnectionParams> offered;
  for (int j = 0; j < 4; ++j) {
    for (NodeId i = 0; i < kNodes; ++i) {
      core::ConnectionParams c;
      c.source = i;
      c.dests = NodeSet::single(static_cast<NodeId>((i + 1) % kNodes));
      c.size_slots = 1;
      c.period_slots = kPeriod;
      c.offset_slots = static_cast<std::int64_t>(j) * (kPeriod / 4);
      offered.push_back(c);
    }
  }
  struct Cell {
    Protocol proto;
    bool planner;
    int admitted;
    double requests_per_slot;
  };
  const Cell cells[] = {{Protocol::kCcrEdf, true, 128, 0.0},
                        {Protocol::kCcrEdf, false, 26, 0.814},
                        {Protocol::kCcFpr, true, 26, 0.844}};
  for (const Cell& cell : cells) {
    SCOPED_TRACE(std::string(sweep::protocol_name(cell.proto)) +
                 (cell.planner ? ", planner on" : ", planner off"));
    NetworkConfig cfg = ring_config(kNodes, cell.proto);
    cfg.planner = cell.planner;
    Network n(cfg);
    const double u_max = n.admission().u_max();
    EXPECT_NEAR(u_max, 0.826, 0.0005);
    EXPECT_EQ(open_all(n, offered), cell.admitted);
    n.run_slots(20'000);
    const auto& st = n.stats();
    const auto slots = static_cast<double>(st.slots);
    std::int64_t requests = 0;
    for (NodeId j = 0; j < kNodes; ++j) requests += st.node_requests[j];
    EXPECT_NEAR(static_cast<double>(requests) / slots, cell.requests_per_slot,
                0.0005);
    EXPECT_EQ(rt_stats(n).scheduling_misses, 0);
    EXPECT_EQ(rt_stats(n).user_misses, 0);
    const double admitted_u = n.admission().utilisation();
    if (cell.admitted == 128) {
      EXPECT_GT(admitted_u, 2.0 * u_max);
      EXPECT_GT(st.planned_slots, 0);
      const auto plan_driven = st.planned_slots + st.plan_wait_slots;
      EXPECT_GE(static_cast<double>(plan_driven) / slots, 0.95);
      EXPECT_EQ(st.plan_divergences, 0);
    } else {
      EXPECT_LE(admitted_u, u_max + 1e-9);
      EXPECT_NEAR(admitted_u, 0.812, 0.0005);
    }
  }
}

// -- E24: severed-segment cycle -------------------------------------------

// E24a.  Link 7 of an 8-node ring (16 RT connections at 0.5 U_max, seed
// 24) is cut for the middle fifth of a 2 x 10^6-slot horizon and then
// spliced.  Detection takes 2 slots (gate <= 2 per cut); the segment-down
// quarantine closes the 9 crossing entries with the released weight
// matching the admission drop (5.6e-17, gate 1e-9); the capacity factor
// derates to exactly 0.5 and returns to exactly 1.0; all 9 re-admit; and
// the 7 connections whose segments avoid the cut miss zero user
// deadlines through the whole cycle.
TEST(ExtensionClaims, E24aCutHurtsOnlyTrafficThatCrossesIt) {
  constexpr std::int64_t kHorizon = 2'000'000;
  constexpr LinkId kCutLink = 7;  // anchor = node 0, the restarter
  NetworkConfig cfg = ring_config(8);
  Network n(cfg);
  fault::FaultInjector injector(n);
  services::ResilienceMonitor monitor(n, services::ResilienceParams{});

  std::vector<ConnectionId> disjoint;
  int admitted = 0;
  for (const auto& c : roomy_set(n, 24)) {
    const auto open = n.open_connection(c);
    if (!open.admitted) continue;
    ++admitted;
    const LinkSet links =
        ring::Segment::for_transmission(n.topology(), c.source, c.dests)
            .links();
    if (!links.contains(kCutLink)) disjoint.push_back(open.id);
  }
  const TimePoint cut_at = after_extents(n, kHorizon * 2 / 5);
  const TimePoint splice_at = after_extents(n, kHorizon * 3 / 5);
  injector.schedule_link_cut(kCutLink, cut_at);
  injector.schedule_link_splice(kCutLink, splice_at);
  // Sample the derated capacity strictly inside the severed window.
  n.run_for((cut_at + n.timing().slot_plus_max_gap() * 50) -
            TimePoint::origin());
  const double capacity_while_severed = n.admission().capacity_factor();
  n.run_slots(kHorizon - n.current_slot());

  EXPECT_EQ(admitted, 16);
  ASSERT_EQ(disjoint.size(), 7u);
  std::int64_t disjoint_misses = 0;
  for (const ConnectionId id : disjoint) {
    disjoint_misses += n.connection_stats(id).user_misses;
  }
  EXPECT_EQ(disjoint_misses, 0);

  const auto& f = n.stats().faults;
  const services::ResilienceStats& m = monitor.stats();
  EXPECT_EQ(f.link_cuts, 1);
  EXPECT_EQ(f.cut_detect_slots, 2);
  EXPECT_EQ(m.segment_downs, 1);
  EXPECT_EQ(m.segment_quarantines, 9);
  EXPECT_EQ(m.readmissions, 9);
  EXPECT_LE(m.reclaim_error, 1e-9);
  EXPECT_EQ(capacity_while_severed, 0.5);
  EXPECT_EQ(n.admission().capacity_factor(), 1.0);
}

}  // namespace
}  // namespace ccredf
