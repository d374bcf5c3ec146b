#include "sweep/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <optional>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "fault/injector.hpp"
#include "net/network.hpp"
#include "ring/segment.hpp"
#include "services/cbs.hpp"
#include "services/resilience.hpp"
#include "workload/aperiodic.hpp"
#include "workload/churn.hpp"
#include "workload/periodic.hpp"
#include "workload/poisson.hpp"

namespace ccredf::sweep {

const char* metric_name(Metric m) {
  switch (m) {
    case Metric::kUMax:
      return "u_max";
    case Metric::kAdmittedFraction:
      return "admitted_fraction";
    case Metric::kRtDelivered:
      return "rt_delivered";
    case Metric::kSchedMissRatio:
      return "sched_miss_ratio";
    case Metric::kUserMissRatio:
      return "user_miss_ratio";
    case Metric::kUserMisses:
      return "user_misses";
    case Metric::kInversions:
      return "inversions";
    case Metric::kMeanLatencyUs:
      return "mean_latency_us";
    case Metric::kSlotFraction:
      return "slot_fraction";
    case Metric::kGoodputBps:
      return "goodput_bps";
    case Metric::kGrantsPerBusySlot:
      return "grants_per_busy_slot";
    case Metric::kRecoveries:
      return "recoveries";
    case Metric::kRecoveryUs:
      return "recovery_us";
    case Metric::kFaultsDetected:
      return "faults_detected";
    case Metric::kFaultsSilent:
      return "faults_silent";
    case Metric::kPayloadCorruptions:
      return "payload_corruptions";
    case Metric::kPayloadDetected:
      return "payload_detected";
    case Metric::kPayloadUndetected:
      return "payload_undetected";
    case Metric::kPayloadNacks:
      return "payload_nacks";
    case Metric::kCbsAdmittedFraction:
      return "cbs_admitted_fraction";
    case Metric::kCbsDelivered:
      return "cbs_delivered";
    case Metric::kCbsPostponements:
      return "cbs_postponements";
    case Metric::kCbsJain:
      return "cbs_jain";
    case Metric::kRecoveryGapP50Us:
      return "recovery_gap_p50_us";
    case Metric::kRecoveryGapP99Us:
      return "recovery_gap_p99_us";
    case Metric::kChurnDowns:
      return "churn_downs";
    case Metric::kChurnDetectLatency:
      return "churn_detect_latency_slots";
    case Metric::kChurnReclaimedU:
      return "churn_reclaimed_u";
    case Metric::kChurnReadmitFraction:
      return "churn_readmit_fraction";
    case Metric::kChurnDisjointMisses:
      return "churn_disjoint_misses";
    case Metric::kPlannedSlotFraction:
      return "planned_slot_fraction";
    case Metric::kPlanBuilds:
      return "plan_builds";
    case Metric::kPlanDivergences:
      return "plan_divergences";
    case Metric::kLinkCuts:
      return "link_cuts";
    case Metric::kSegmentQuarantines:
      return "segment_quarantines";
    case Metric::kCutDetectSlots:
      return "cut_detect_slots";
    case Metric::kCutDisjointMisses:
      return "cut_disjoint_misses";
    case Metric::kCount:
      break;
  }
  return "?";
}

namespace {

ShardMetrics run_shard_impl(const GridSpec& spec, const GridPoint& point,
                            int repetition) {
  net::Network n(make_network_config(spec, point));
  const std::uint64_t seed = shard_seed(spec, point, repetition);

  // Fault axis: the injector derives its own stream family from the
  // shard seed, so the workload below is byte-identical at every BER.
  std::optional<fault::FaultInjector> injector;
  if (point.ber > 0.0 || point.data_ber > 0.0 || point.churn > 0.0 ||
      point.link_cuts > 0) {
    injector.emplace(n, seed);
    if (point.ber > 0.0) injector->set_control_ber(point.ber);
    if (point.data_ber > 0.0) injector->set_data_ber(point.data_ber);
  }

  // Churn axis: the HIGHEST-numbered nodes churn -- node 0 (designated
  // restarter and admission node) must survive -- and the resilience
  // monitor closes the detection -> reclamation -> re-admission loop.
  // Link-cut points attach the same monitor: it carries the
  // segment-down quarantine and the splice-staged re-admission.
  NodeSet churned;
  std::optional<services::ResilienceMonitor> monitor;
  if (point.churn > 0.0 || point.link_cuts > 0) {
    if (point.churn > 0.0) {
      const int cnt = std::min<int>(spec.churn_nodes,
                                    static_cast<int>(point.nodes) - 1);
      for (int j = static_cast<int>(point.nodes) - cnt;
           j < static_cast<int>(point.nodes); ++j) {
        churned.insert(static_cast<NodeId>(j));
      }
    }
    services::ResilienceParams rp;
    rp.detection_window_slots = spec.churn_detect_slots;
    monitor.emplace(n, rp);
  }

  // Severed-segment axis: cut the HIGHEST-numbered links -- a single
  // cut severs link nodes-1 (node nodes-1 -> node 0), so the degraded
  // anchor is node 0, the designated restarter -- at the nominal start
  // of `cut_slot`, and splice them `cut_down_slots` extents later.  The
  // instants are deterministic scalars: no draw, no stream.
  LinkSet cut_links;
  if (point.link_cuts > 0) {
    const sim::Duration extent = n.timing().slot_plus_max_gap();
    const sim::TimePoint cut_at =
        sim::TimePoint::origin() + extent * spec.cut_slot;
    const sim::TimePoint splice_at =
        cut_at + extent * spec.cut_down_slots;
    for (int i = 0; i < point.link_cuts; ++i) {
      const LinkId l = static_cast<LinkId>(
          static_cast<int>(point.nodes) - 1 - i);
      cut_links.insert(l);
      injector->schedule_link_cut(l, cut_at);
      injector->schedule_link_splice(l, splice_at);
    }
  }

  int requested = 0;
  int admitted = 0;
  // Connections touching NO churned node (neither source nor any
  // destination): the E22 containment gate demands zero user misses on
  // exactly these.
  std::vector<ConnectionId> disjoint;
  // Connections whose transmission segment avoids EVERY cut link: the
  // E24 containment gate demands zero user misses on exactly these.
  std::vector<ConnectionId> cut_disjoint;
  if (point.mix != WorkloadMix::kSaturation) {
    workload::PeriodicSetParams wp;
    wp.nodes = point.nodes;
    wp.connections =
        spec.connections_per_node * static_cast<int>(point.nodes);
    wp.total_utilisation = point.utilisation * n.timing().u_max();
    wp.min_period_slots = spec.min_period_slots;
    wp.max_period_slots = spec.max_period_slots;
    wp.multicast_fraction = spec.multicast_fraction;
    wp.seed = seed;
    const std::vector<core::ConnectionParams> set =
        workload::make_periodic_set(wp);
    requested = static_cast<int>(set.size());
    for (const auto& c : set) {
      const net::Network::OpenResult r = n.open_connection(c);
      if (!r.admitted) continue;
      ++admitted;
      if (point.churn > 0.0 && !churned.contains(c.source) &&
          !c.dests.intersects(churned)) {
        disjoint.push_back(r.id);
      }
      if (point.link_cuts > 0 &&
          !ring::Segment::for_transmission(n.topology(), c.source, c.dests)
               .links()
               .intersects(cut_links)) {
        cut_disjoint.push_back(r.id);
      }
    }
  }

  // Background / saturation traffic keeps its own derived stream so the
  // periodic set is untouched by the mix axis' Poisson draws.
  std::optional<workload::PoissonGenerator> background;
  if (point.mix != WorkloadMix::kPeriodic) {
    workload::PoissonParams pp;
    pp.rate_per_node = point.mix == WorkloadMix::kSaturation
                           ? spec.saturation_rate
                           : spec.background_rate;
    pp.seed = sim::Rng::stream_seed(seed, 0x6261636Bull /* "back" */, 0);
    if (point.mix == WorkloadMix::kSaturation) {
      pp.min_laxity_slots = 100;
      pp.max_laxity_slots = 2000;
    }
    background.emplace(n, pp,
                       sim::TimePoint::origin() +
                           n.timing().slot() * spec.slots);
  }

  // Service axis: a CBS population beside the RT set.  The aperiodic
  // arrivals draw from their own "cbs"-tagged stream family, so rt-only
  // and cbs points run byte-identical RT workloads (workload_key).
  std::optional<services::CbsFlowSet> cbs_flows;
  std::optional<workload::AperiodicGenerator> cbs_gen;
  if (point.service != ServiceMix::kRtOnly) {
    services::CbsFlowSetParams cp;
    cp.flows = spec.cbs_flows;
    cp.budget_slots = spec.cbs_budget_slots;
    cp.period_slots = spec.cbs_period_slots;
    cbs_flows.emplace(n, cp);
    workload::AperiodicParams ap;
    ap.rate_per_flow = point.service == ServiceMix::kCbsSaturated
                           ? spec.cbs_saturation_rate
                           : spec.cbs_rate;
    ap.seed = sim::Rng::stream_seed(seed, 0x636273ull /* "cbs" */, 0);
    cbs_gen.emplace(n, cbs_flows->ids(), ap,
                    sim::TimePoint::origin() +
                        n.timing().slot() * spec.slots);
  }

  // The churn schedule itself: pre-computed fail/restore renewals on the
  // "churn"-tagged stream family, independent of every other axis.
  std::optional<workload::ChurnProcess> churn_proc;
  if (point.churn > 0.0) {
    workload::ChurnParams chp;
    chp.nodes = churned;
    chp.mean_up_slots = point.churn;
    chp.mean_down_slots = spec.churn_down_slots;
    chp.seed = sim::Rng::stream_seed(seed, 0x636875726Eull /* "churn" */, 0);
    churn_proc.emplace(n, *injector, chp,
                       sim::TimePoint::origin() +
                           n.timing().slot() * spec.slots);
  }

  n.run_slots(spec.slots);

  const auto& rt = n.stats().cls(core::TrafficClass::kRealTime);
  ShardMetrics m;
  m[Metric::kUMax] = n.timing().u_max();
  m[Metric::kAdmittedFraction] =
      requested == 0 ? 0.0
                     : static_cast<double>(admitted) /
                           static_cast<double>(requested);
  m[Metric::kRtDelivered] = static_cast<double>(rt.delivered);
  m[Metric::kSchedMissRatio] = rt.scheduling_miss_ratio();
  m[Metric::kUserMissRatio] = rt.user_miss_ratio();
  m[Metric::kUserMisses] = static_cast<double>(rt.user_misses);
  m[Metric::kInversions] =
      static_cast<double>(n.stats().priority_inversions);
  m[Metric::kMeanLatencyUs] = rt.latency.mean() / 1e6;
  m[Metric::kSlotFraction] = n.stats().slot_time_fraction();
  m[Metric::kGoodputBps] = n.stats().goodput_bps();
  m[Metric::kGrantsPerBusySlot] = n.stats().mean_grants_per_busy_slot();
  m[Metric::kRecoveries] = static_cast<double>(n.recoveries());
  m[Metric::kRecoveryUs] = n.recovery_time().us();
  m[Metric::kFaultsDetected] =
      static_cast<double>(n.stats().faults.detected());
  m[Metric::kFaultsSilent] = static_cast<double>(n.stats().faults.silent());
  m[Metric::kPayloadCorruptions] =
      static_cast<double>(n.stats().faults.payload_corruptions);
  m[Metric::kPayloadDetected] =
      static_cast<double>(n.stats().faults.payload_detected);
  m[Metric::kPayloadUndetected] =
      static_cast<double>(n.stats().faults.payload_undetected);
  m[Metric::kPayloadNacks] =
      static_cast<double>(n.stats().faults.payload_nacks);
  if (cbs_flows.has_value()) {
    m[Metric::kCbsAdmittedFraction] =
        static_cast<double>(cbs_flows->admitted()) /
        static_cast<double>(cbs_flows->admitted() + cbs_flows->rejected());
    std::int64_t jobs_delivered = 0;
    for (const ConnectionId id : cbs_flows->ids()) {
      jobs_delivered += n.connection_stats(id).delivered;
    }
    m[Metric::kCbsDelivered] = static_cast<double>(jobs_delivered);
    m[Metric::kCbsPostponements] =
        static_cast<double>(n.stats().cbs.postponements);
    m[Metric::kCbsJain] = cbs_flows->jain_index();
  }
  // Exact nearest-rank quantiles (ps -> us); 0 when no recovery happened.
  m[Metric::kRecoveryGapP50Us] =
      static_cast<double>(
          n.stats().faults.recovery_gap_quantiles.quantile(0.5)) /
      1e6;
  m[Metric::kRecoveryGapP99Us] =
      static_cast<double>(
          n.stats().faults.recovery_gap_quantiles.quantile(0.99)) /
      1e6;
  if (monitor.has_value()) {
    const services::ResilienceStats& rs = monitor->stats();
    m[Metric::kChurnDowns] = static_cast<double>(rs.downs);
    m[Metric::kChurnDetectLatency] = rs.detection_latency_slots.mean();
    m[Metric::kChurnReclaimedU] = rs.weight_reclaimed;
    m[Metric::kChurnReadmitFraction] =
        rs.readmit_attempts == 0
            ? 0.0
            : static_cast<double>(rs.readmissions) /
                  static_cast<double>(rs.readmit_attempts);
    std::int64_t disjoint_misses = 0;
    for (const ConnectionId id : disjoint) {
      disjoint_misses += n.connection_stats(id).user_misses;
    }
    m[Metric::kChurnDisjointMisses] = static_cast<double>(disjoint_misses);
  }
  m[Metric::kPlannedSlotFraction] = n.stats().planned_slot_fraction();
  m[Metric::kPlanBuilds] = static_cast<double>(n.stats().plan_builds);
  m[Metric::kPlanDivergences] =
      static_cast<double>(n.stats().plan_divergences);
  if (point.link_cuts > 0) {
    m[Metric::kLinkCuts] = static_cast<double>(n.stats().faults.link_cuts);
    m[Metric::kSegmentQuarantines] =
        static_cast<double>(monitor->stats().segment_quarantines);
    m[Metric::kCutDetectSlots] =
        static_cast<double>(n.stats().faults.cut_detect_slots);
    std::int64_t cut_disjoint_misses = 0;
    for (const ConnectionId id : cut_disjoint) {
      cut_disjoint_misses += n.connection_stats(id).user_misses;
    }
    m[Metric::kCutDisjointMisses] =
        static_cast<double>(cut_disjoint_misses);
  }
  m.ok = true;
  return m;
}

ShardMetrics run_shard_guarded(const GridSpec& spec, const GridPoint& point,
                               int repetition) {
  try {
    return run_shard_impl(spec, point, repetition);
  } catch (const std::exception&) {
    return ShardMetrics{};  // ok == false
  }
}

}  // namespace

ShardMetrics run_shard(const GridSpec& spec, const GridPoint& point,
                       int repetition) {
  return run_shard_guarded(spec, point, repetition);
}

SweepResult run_sweep(const GridSpec& spec, const RunOptions& opts) {
  CCREDF_EXPECT(spec.validate().empty(), "run_sweep: invalid grid spec");
  const auto t0 = std::chrono::steady_clock::now();

  const std::vector<GridPoint> points = spec.expand();
  const auto reps = static_cast<std::size_t>(spec.repetitions);
  const std::size_t shards = points.size() * reps;
  std::vector<ShardMetrics> shard_results(shards);

  int threads = opts.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  threads = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(threads), shards));

  // Dynamic claiming balances the load (a 64-node shard costs far more
  // than a 4-node one); result slots are indexed by shard id so the
  // claiming order leaves no trace in the output.
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t s = next.fetch_add(1, std::memory_order_relaxed);
      if (s >= shards) return;
      shard_results[s] = run_shard_guarded(spec, points[s / reps],
                                           static_cast<int>(s % reps));
    }
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }

  // Serial fold in canonical shard order: OnlineStats accumulation is
  // order-sensitive in the last floating-point bits, so the fold order is
  // pinned here, once, for every thread count.
  SweepResult result;
  result.spec = spec;
  result.shards = static_cast<std::int64_t>(shards);
  result.points.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    PointResult pr;
    pr.point = points[p];
    for (std::size_t r = 0; r < reps; ++r) {
      const ShardMetrics& sm = shard_results[p * reps + r];
      if (!sm.ok) {
        ++pr.failed_shards;
        ++result.failed_shards;
        continue;
      }
      for (std::size_t i = 0; i < kMetricCount; ++i) {
        pr.metrics[i].add(sm.values[i]);
      }
    }
    result.points.push_back(std::move(pr));
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace ccredf::sweep
