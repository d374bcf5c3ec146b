// Multi-threaded, deterministic execution of a GridSpec.
//
// Work decomposition: shard s = (point p, repetition r), numbered
// s = p.index * repetitions + r.  A fixed-size worker pool claims shards
// from an atomic counter; each shard constructs its OWN
// sim::Simulator + net::Network (no shared mutable state between shards)
// and writes its metric vector into a pre-sized slot indexed by s.  After
// the pool joins, repetitions are folded into per-point OnlineStats
// serially in shard order -- so the aggregate is a pure function of the
// grid, never of the thread count or completion order.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/stats.hpp"
#include "sweep/grid.hpp"

namespace ccredf::sweep {

/// Metrics recorded by every shard, in report order.
enum class Metric : std::size_t {
  kUMax = 0,          // analytic Eq. 6 bound for the point's ring
  kAdmittedFraction,  // admitted / requested connections
  kRtDelivered,       // real-time messages delivered
  kSchedMissRatio,    // EDF-deadline misses / delivered (RT)
  kUserMissRatio,     // Eq. 3 user-deadline misses / delivered (RT)
  kUserMisses,        // absolute user-deadline miss count (RT)
  kInversions,        // priority inversions (0 for CCR-EDF by design)
  kMeanLatencyUs,     // mean RT latency, microseconds
  kSlotFraction,      // wall-time fraction spent in data slots
  kGoodputBps,        // delivered payload bits / simulated second
  kGrantsPerBusySlot,  // spatial-reuse factor
  kRecoveries,         // token-loss recoveries (fault axis)
  kRecoveryUs,         // wall time lost to recovery timeouts, microseconds
  kFaultsDetected,     // corruptions caught by the integrity guards
  kFaultsSilent,       // corruptions that mutated behaviour unnoticed
  kPayloadCorruptions,  // data packets hit on the data fibres
  kPayloadDetected,     // ... caught by the payload CRC-32
  kPayloadUndetected,   // ... delivered as garbage
  kPayloadNacks,        // NACK bits carried on distribution packets
  kCbsAdmittedFraction,  // admitted / requested CBS servers (services axis)
  kCbsDelivered,         // jobs delivered across all CBS flows
  kCbsPostponements,     // budget-exhaustion postponements (c = Q, d += T)
  kCbsJain,              // Jain fairness index over per-flow CBS bytes
  kRecoveryGapP50Us,     // median token-loss recovery gap, microseconds
  kRecoveryGapP99Us,     // p99 token-loss recovery gap, microseconds
  kChurnDowns,           // nodes declared down by the monitor (churn axis)
  kChurnDetectLatency,   // mean detection latency, slots
  kChurnReclaimedU,      // Eq. 5/6 weight reclaimed by quarantines
  kChurnReadmitFraction,  // re-admission attempts that succeeded
  kChurnDisjointMisses,   // user misses on connections disjoint from
                          // every churned node (containment gate: 0)
  kPlannedSlotFraction,   // slots granted from a hypercycle plan
                          // (planner axis; 0 with the planner off)
  kPlanBuilds,            // successful plan builds at admit/close time
  kPlanDivergences,       // plans abandoned back to slot-by-slot TCMA
  kLinkCuts,              // hard link cuts applied (link_cuts axis)
  kSegmentQuarantines,    // transfers closed by segment-down quarantines
  kCutDetectSlots,        // summed in-protocol cut-detection latency
  kCutDisjointMisses,     // user misses on connections whose segment
                          // avoids every cut link (containment gate: 0)
  kCount                  // number of metrics above; not a metric
};
inline constexpr std::size_t kMetricCount =
    static_cast<std::size_t>(Metric::kCount);

[[nodiscard]] const char* metric_name(Metric m);

struct ShardMetrics {
  std::array<double, kMetricCount> values{};
  bool ok = false;

  double& operator[](Metric m) { return values[static_cast<std::size_t>(m)]; }
  double operator[](Metric m) const {
    return values[static_cast<std::size_t>(m)];
  }
};

/// Aggregation of all repetitions of one grid point.
struct PointResult {
  GridPoint point;
  std::array<sim::OnlineStats, kMetricCount> metrics;
  int failed_shards = 0;

  [[nodiscard]] const sim::OnlineStats& stat(Metric m) const {
    return metrics[static_cast<std::size_t>(m)];
  }
  [[nodiscard]] double mean(Metric m) const { return stat(m).mean(); }
};

struct SweepResult {
  GridSpec spec;
  std::vector<PointResult> points;
  std::int64_t shards = 0;
  std::int64_t failed_shards = 0;
  /// Wall-clock execution time (measurement only -- never serialized into
  /// the deterministic report).
  double wall_seconds = 0.0;
};

struct RunOptions {
  /// Worker threads; 0 selects std::thread::hardware_concurrency().
  int threads = 1;
};

/// Runs one shard to completion (also the single-threaded building block
/// the determinism tests exercise directly).
[[nodiscard]] ShardMetrics run_shard(const GridSpec& spec,
                                     const GridPoint& point, int repetition);

/// Runs the whole grid; see file comment for the determinism argument.
[[nodiscard]] SweepResult run_sweep(const GridSpec& spec,
                                    const RunOptions& opts = {});

}  // namespace ccredf::sweep
