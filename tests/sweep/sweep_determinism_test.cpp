// The sweep runner's load-bearing property: the aggregated report is a
// pure function of the grid -- byte-identical for any worker-thread
// count, and stable across repeated runs in one process.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sweep/report.hpp"
#include "sweep/runner.hpp"

namespace ccredf::sweep {
namespace {

GridSpec small_grid() {
  GridSpec spec;
  spec.protocols = {Protocol::kCcrEdf, Protocol::kCcFpr, Protocol::kTdma};
  spec.node_counts = {4, 8};
  spec.utilisations = {0.4, 0.8};
  spec.mixes = {WorkloadMix::kPeriodic, WorkloadMix::kMixed};
  spec.set_seeds = {5};
  spec.repetitions = 2;
  spec.slots = 200;
  spec.base_seed = 3;
  return spec;
}

TEST(SweepDeterminismTest, EveryMetricHasADistinctName) {
  // The report keys each metric by its name: an unnamed or duplicated
  // one would vanish from it or collide.
  std::set<std::string> names;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const std::string name = metric_name(static_cast<Metric>(i));
    EXPECT_NE(name, "?") << "metric " << i;
    EXPECT_TRUE(names.insert(name).second) << name;
  }
  EXPECT_STREQ(metric_name(Metric::kCount), "?");
}

TEST(SweepDeterminismTest, JsonIdenticalAcrossThreadCounts) {
  const GridSpec spec = small_grid();
  const std::string json_1 = to_json(run_sweep(spec, {.threads = 1}));
  for (const int threads : {2, 4, 8}) {
    const std::string json_n =
        to_json(run_sweep(spec, {.threads = threads}));
    EXPECT_EQ(json_1, json_n) << "non-deterministic at " << threads
                              << " threads";
  }
}

TEST(SweepDeterminismTest, RepeatedRunsIdentical) {
  const GridSpec spec = small_grid();
  EXPECT_EQ(to_json(run_sweep(spec, {.threads = 2})),
            to_json(run_sweep(spec, {.threads = 2})));
}

TEST(SweepDeterminismTest, ShardRerunsBitIdentical) {
  const GridSpec spec = small_grid();
  const auto points = spec.expand();
  const ShardMetrics a = run_shard(spec, points[1], 0);
  const ShardMetrics b = run_shard(spec, points[1], 0);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    EXPECT_EQ(a.values[i], b.values[i])
        << "metric " << metric_name(static_cast<Metric>(i));
  }
}

TEST(SweepDeterminismTest, RepetitionsAreDistinctRuns) {
  // Distinct RNG streams per repetition: at least one metric must differ
  // between rep 0 and rep 1 of the same stochastic point.
  const GridSpec spec = small_grid();
  const auto points = spec.expand();
  const ShardMetrics r0 = run_shard(spec, points[0], 0);
  const ShardMetrics r1 = run_shard(spec, points[0], 1);
  ASSERT_TRUE(r0.ok);
  ASSERT_TRUE(r1.ok);
  bool any_diff = false;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    any_diff = any_diff || r0.values[i] != r1.values[i];
  }
  EXPECT_TRUE(any_diff) << "repetitions ran identical workloads";
}

TEST(SweepDeterminismTest, ProtocolsSeeIdenticalConnectionSets) {
  // Paired comparison: CCR-EDF and TDMA points of the same scenario must
  // admit against the same offered set -- equal admitted fractions (the
  // admission test is protocol-independent).
  GridSpec spec = small_grid();
  spec.mixes = {WorkloadMix::kPeriodic};
  const SweepResult res = run_sweep(spec, {.threads = 2});
  ASSERT_EQ(res.failed_shards, 0);
  const std::size_t per_proto = res.points.size() / spec.protocols.size();
  for (std::size_t i = 0; i < per_proto; ++i) {
    const PointResult& edf = res.points[i];
    const PointResult& tdma = res.points[2 * per_proto + i];
    EXPECT_EQ(edf.mean(Metric::kAdmittedFraction),
              tdma.mean(Metric::kAdmittedFraction))
        << "point " << i << " admitted different sets across protocols";
  }
}

TEST(SweepDeterminismTest, FaultAxisJsonIdenticalAcrossThreadCounts) {
  // The BER fault axis attaches a keyed-stream injector per shard; the
  // report must stay a pure function of the grid regardless of worker
  // count (scripts/check.sh enforces the same over the shipped grid).
  GridSpec spec;
  spec.protocols = {Protocol::kCcrEdf, Protocol::kCcFpr};
  spec.node_counts = {6};
  spec.utilisations = {0.5};
  spec.bers = {0.0, 1e-3};
  spec.mixes = {WorkloadMix::kPeriodic};
  spec.set_seeds = {5};
  spec.repetitions = 2;
  spec.slots = 150;
  spec.frame_crc = true;
  spec.base_seed = 3;
  const std::string json_1 = to_json(run_sweep(spec, {.threads = 1}));
  for (const int threads : {4, 8}) {
    EXPECT_EQ(json_1, to_json(run_sweep(spec, {.threads = threads})))
        << "fault sweep non-deterministic at " << threads << " threads";
  }
  // The ber > 0 points must actually have exercised the fault paths.
  const SweepResult res = run_sweep(spec, {.threads = 2});
  ASSERT_EQ(res.failed_shards, 0);
  bool any_faults = false;
  for (const PointResult& pr : res.points) {
    if (pr.point.ber == 0.0) {
      EXPECT_EQ(pr.mean(Metric::kFaultsDetected), 0.0);
      EXPECT_EQ(pr.mean(Metric::kRecoveries), 0.0);
    } else if (pr.mean(Metric::kFaultsDetected) > 0.0) {
      any_faults = true;
    }
  }
  EXPECT_TRUE(any_faults) << "BER axis injected nothing";
}

TEST(SweepDeterminismTest, BerAxisDoesNotPerturbTheWorkload) {
  // Same point at ber 0 and ber > 0: fault draws come from a separate
  // stream family, so workload-shaped metrics (admitted fraction, u_max)
  // must agree exactly between the paired points.
  GridSpec spec;
  spec.protocols = {Protocol::kCcrEdf};
  spec.node_counts = {6};
  spec.utilisations = {0.5};
  spec.bers = {0.0, 1e-3};
  spec.mixes = {WorkloadMix::kPeriodic};
  spec.set_seeds = {5};
  spec.repetitions = 1;
  spec.slots = 150;
  spec.frame_crc = true;
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 2u);
  const ShardMetrics clean = run_shard(spec, points[0], 0);
  const ShardMetrics faulty = run_shard(spec, points[1], 0);
  ASSERT_TRUE(clean.ok);
  ASSERT_TRUE(faulty.ok);
  EXPECT_EQ(clean.values[static_cast<std::size_t>(
                Metric::kAdmittedFraction)],
            faulty.values[static_cast<std::size_t>(
                Metric::kAdmittedFraction)]);
  EXPECT_EQ(clean.values[static_cast<std::size_t>(Metric::kUMax)],
            faulty.values[static_cast<std::size_t>(Metric::kUMax)]);
}

TEST(SweepDeterminismTest, DataBerAxisJsonIdenticalAcrossThreadCounts) {
  // The data-channel fault axis must honour the same contract as the
  // control axis: a pure function of the grid at any worker count, with
  // the payload counters actually exercised at data_ber > 0.
  GridSpec spec;
  spec.protocols = {Protocol::kCcrEdf};
  spec.node_counts = {6};
  spec.utilisations = {0.5};
  spec.data_bers = {0.0, 2e-4};
  spec.mixes = {WorkloadMix::kPeriodic};
  spec.set_seeds = {5};
  spec.repetitions = 2;
  spec.slots = 150;
  spec.payload_crc = true;
  spec.base_seed = 3;
  const std::string json_1 = to_json(run_sweep(spec, {.threads = 1}));
  for (const int threads : {4, 8}) {
    EXPECT_EQ(json_1, to_json(run_sweep(spec, {.threads = threads})))
        << "data-fault sweep non-deterministic at " << threads
        << " threads";
  }
  const SweepResult res = run_sweep(spec, {.threads = 2});
  ASSERT_EQ(res.failed_shards, 0);
  bool any_payload_faults = false;
  for (const PointResult& pr : res.points) {
    if (pr.point.data_ber == 0.0) {
      EXPECT_EQ(pr.mean(Metric::kPayloadCorruptions), 0.0);
      EXPECT_EQ(pr.mean(Metric::kPayloadNacks), 0.0);
    } else if (pr.mean(Metric::kPayloadCorruptions) > 0.0) {
      // With the CRC on, corrupted payloads are detected and NACKed.
      EXPECT_GT(pr.mean(Metric::kPayloadDetected), 0.0);
      any_payload_faults = true;
    }
  }
  EXPECT_TRUE(any_payload_faults) << "data-BER axis injected nothing";
}

TEST(SweepDeterminismTest, DataBerAxisDoesNotPerturbTheWorkload) {
  GridSpec spec;
  spec.protocols = {Protocol::kCcrEdf};
  spec.node_counts = {6};
  spec.utilisations = {0.5};
  spec.data_bers = {0.0, 2e-4};
  spec.mixes = {WorkloadMix::kPeriodic};
  spec.set_seeds = {5};
  spec.repetitions = 1;
  spec.slots = 150;
  spec.payload_crc = true;
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 2u);
  const ShardMetrics clean = run_shard(spec, points[0], 0);
  const ShardMetrics faulty = run_shard(spec, points[1], 0);
  ASSERT_TRUE(clean.ok);
  ASSERT_TRUE(faulty.ok);
  EXPECT_EQ(clean.values[static_cast<std::size_t>(
                Metric::kAdmittedFraction)],
            faulty.values[static_cast<std::size_t>(
                Metric::kAdmittedFraction)]);
  EXPECT_EQ(clean.values[static_cast<std::size_t>(Metric::kUMax)],
            faulty.values[static_cast<std::size_t>(Metric::kUMax)]);
}

TEST(SweepDeterminismTest, AllShardsSucceedAndAggregate) {
  const GridSpec spec = small_grid();
  const SweepResult res = run_sweep(spec, {.threads = 8});
  EXPECT_EQ(res.failed_shards, 0);
  ASSERT_EQ(res.points.size(), spec.point_count());
  EXPECT_EQ(res.shards, static_cast<std::int64_t>(spec.shard_count()));
  for (const PointResult& pr : res.points) {
    EXPECT_EQ(pr.stat(Metric::kRtDelivered).count(), spec.repetitions);
    EXPECT_GT(pr.mean(Metric::kUMax), 0.0);
  }
}

}  // namespace
}  // namespace ccredf::sweep
