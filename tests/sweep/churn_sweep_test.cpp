// The churn sweep axis: grid parsing, point expansion, paired-workload
// invariance, churn metric population, and the determinism contract
// (thread count and engine strategy never change a byte of the report)
// extended to grids that run the full resilience loop.
#include <gtest/gtest.h>

#include "sweep/report.hpp"
#include "sweep/runner.hpp"

namespace ccredf::sweep {
namespace {

GridSpec churn_grid() {
  GridSpec spec;
  spec.protocols = {Protocol::kCcrEdf};
  spec.node_counts = {8};
  spec.utilisations = {0.5};
  spec.mixes = {WorkloadMix::kPeriodic};
  // churn = 0 is the paired baseline; 400 is a live cell whose dwells
  // cycle several detect/quarantine/re-admit loops inside the horizon.
  spec.churns = {0.0, 400.0};
  spec.churn_nodes = 2;
  spec.churn_down_slots = 120.0;
  spec.churn_detect_slots = 12;
  spec.set_seeds = {7};
  spec.repetitions = 2;
  spec.slots = 1500;
  spec.base_seed = 11;
  return spec;
}

TEST(ChurnSweep, ParsesChurnAxisAndScalars) {
  GridSpec spec;
  std::string error;
  const std::string text = R"(
churns = 0, 25000, 50000
churn_nodes = 3
churn_down_slots = 800
churn_detect_slots = 24
)";
  ASSERT_TRUE(parse_grid(text, spec, error)) << error;
  ASSERT_EQ(spec.churns.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.churns[0], 0.0);
  EXPECT_DOUBLE_EQ(spec.churns[1], 25000.0);
  EXPECT_DOUBLE_EQ(spec.churns[2], 50000.0);
  EXPECT_EQ(spec.churn_nodes, 3);
  EXPECT_DOUBLE_EQ(spec.churn_down_slots, 800.0);
  EXPECT_EQ(spec.churn_detect_slots, 24);
  EXPECT_FALSE(parse_grid("churns = -5\n", spec, error));
  EXPECT_FALSE(parse_grid("churn_nodes = 0\n", spec, error));
  EXPECT_FALSE(parse_grid("churn_down_slots = 0\n", spec, error));
  EXPECT_FALSE(parse_grid("churn_detect_slots = 1\n", spec, error));
}

TEST(ChurnSweep, ChurnAxisMultipliesPointCount) {
  GridSpec spec;
  spec.protocols = {Protocol::kCcrEdf, Protocol::kTdma};
  spec.node_counts = {4};
  EXPECT_EQ(spec.point_count(), 2u);  // default single churn = 0 cell
  spec.churns = {0.0, 20000.0};
  EXPECT_EQ(spec.point_count(), 4u);
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_DOUBLE_EQ(points[0].churn, 0.0);
  EXPECT_DOUBLE_EQ(points[1].churn, 20000.0);
}

TEST(ChurnSweep, WorkloadKeyIgnoresChurn) {
  // Paired comparison along the churn axis: the churned and unchurned
  // cells of a scenario must generate the identical connection set, so
  // any metric delta is attributable to churn alone.
  GridPoint a;
  a.churn = 0.0;
  GridPoint b = a;
  b.churn = 25000.0;
  EXPECT_EQ(workload_key(a), workload_key(b));
}

TEST(ChurnSweep, ChurnMetricsPopulatedOnlyOnChurnPoints) {
  const GridSpec spec = churn_grid();
  const SweepResult res = run_sweep(spec, {.threads = 2});
  ASSERT_EQ(res.failed_shards, 0);
  ASSERT_EQ(res.points.size(), 2u);
  for (const PointResult& pr : res.points) {
    if (pr.point.churn == 0.0) {
      EXPECT_EQ(pr.mean(Metric::kChurnDowns), 0.0);
      EXPECT_EQ(pr.mean(Metric::kChurnReclaimedU), 0.0);
      EXPECT_EQ(pr.mean(Metric::kChurnDisjointMisses), 0.0);
    } else {
      // Mean up-dwell 400 / down-dwell 120 over 1500 slots: several full
      // loops per repetition.
      EXPECT_GT(pr.mean(Metric::kChurnDowns), 0.0);
      EXPECT_GT(pr.mean(Metric::kChurnReclaimedU), 0.0);
      EXPECT_GT(pr.mean(Metric::kChurnDetectLatency), 0.0);
      EXPECT_LE(pr.mean(Metric::kChurnDetectLatency),
                static_cast<double>(spec.churn_detect_slots + 1));
      EXPECT_GE(pr.mean(Metric::kChurnReadmitFraction), 0.0);
      EXPECT_LE(pr.mean(Metric::kChurnReadmitFraction), 1.0);
      // The headline containment gate, sweep-side: connections disjoint
      // from every churned node never miss.
      EXPECT_EQ(pr.mean(Metric::kChurnDisjointMisses), 0.0);
    }
    // Recovery-gap quantiles are exact nearest-rank samples: p50 <= p99
    // always, on churned and unchurned points alike.
    EXPECT_LE(pr.mean(Metric::kRecoveryGapP50Us),
              pr.mean(Metric::kRecoveryGapP99Us));
  }
}

TEST(ChurnSweep, ShardRerunsBitIdentical) {
  const GridSpec spec = churn_grid();
  const auto points = spec.expand();
  const GridPoint& live = points.back();
  ASSERT_GT(live.churn, 0.0);
  const ShardMetrics a = run_shard(spec, live, 1);
  const ShardMetrics b = run_shard(spec, live, 1);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    EXPECT_EQ(a.values[i], b.values[i])
        << "metric " << metric_name(static_cast<Metric>(i));
  }
}

TEST(ChurnSweep, ReportInvariantAcrossEngineAndThreads) {
  // The determinism contract under the full resilience loop:
  // byte-identical JSON across {fast-forward, slot-by-slot} x {1, 4, 8
  // threads}.  The monitor is a slot listener whose next_deadline_slot
  // bounds every skip, so the idle fast-forward stays enabled AND exact
  // through detection windows, quarantines and re-admission drains.
  GridSpec spec = churn_grid();
  spec.fast_forward = true;
  const std::string reference = to_json(run_sweep(spec, {.threads = 1}));
  for (const bool fast_forward : {true, false}) {
    for (const int threads : {1, 4, 8}) {
      if (fast_forward && threads == 1) continue;  // the reference run
      spec.fast_forward = fast_forward;
      EXPECT_EQ(reference, to_json(run_sweep(spec, {.threads = threads})))
          << "report diverged at fast_forward="
          << (fast_forward ? "on" : "off") << ", threads=" << threads;
    }
  }
}

TEST(ChurnSweep, ReportCarriesChurnColumnsAndSpecKeys) {
  const GridSpec spec = churn_grid();
  const SweepResult res = run_sweep(spec, {.threads = 2});
  const std::string json = to_json(res);
  EXPECT_NE(json.find("\"churns\""), std::string::npos);
  EXPECT_NE(json.find("\"churn_nodes\""), std::string::npos);
  EXPECT_NE(json.find("\"churn_down_slots\""), std::string::npos);
  EXPECT_NE(json.find("\"churn_detect_slots\""), std::string::npos);
  EXPECT_NE(json.find("\"churn\""), std::string::npos);
  EXPECT_NE(json.find("\"churn_disjoint_misses\""), std::string::npos);
  const std::string table =
      to_table(res, {Metric::kChurnDowns}, "churn").str();
  EXPECT_NE(table.find("churn"), std::string::npos);
}

}  // namespace
}  // namespace ccredf::sweep
