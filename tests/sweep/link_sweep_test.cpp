// The link_cuts sweep axis: grid parsing, paired-workload invariance,
// cut metric population (containment gate included), and the
// determinism contract -- byte-identical reports across thread counts
// and across the fast-forward / slot-by-slot engines, with the cut ->
// quarantine -> splice -> re-admit hand-off inside the horizon.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sweep/report.hpp"
#include "sweep/runner.hpp"

namespace ccredf::sweep {
namespace {

GridSpec cut_grid() {
  GridSpec spec;
  spec.protocols = {Protocol::kCcrEdf};
  spec.node_counts = {8};
  spec.utilisations = {0.5};
  spec.mixes = {WorkloadMix::kPeriodic};
  // link_cuts = 0 is the paired baseline; 1 runs the full severed-
  // segment loop (cut at slot 500, spliced 400 slots later, 600 slots
  // of healed tail inside the 1500-slot horizon).
  spec.link_cuts = {0, 1};
  spec.cut_slot = 500;
  spec.cut_down_slots = 400;
  spec.set_seeds = {7};
  spec.repetitions = 2;
  spec.slots = 1500;
  spec.base_seed = 11;
  return spec;
}

TEST(LinkSweep, ParsesLinkCutAxisAndScalars) {
  GridSpec spec;
  std::string error;
  const std::string text = R"(
link_cuts = 0, 1, 2
cut_slot = 700
cut_down_slots = 250
)";
  ASSERT_TRUE(parse_grid(text, spec, error)) << error;
  ASSERT_EQ(spec.link_cuts.size(), 3u);
  EXPECT_EQ(spec.link_cuts[0], 0);
  EXPECT_EQ(spec.link_cuts[1], 1);
  EXPECT_EQ(spec.link_cuts[2], 2);
  EXPECT_EQ(spec.cut_slot, 700);
  EXPECT_EQ(spec.cut_down_slots, 250);
  EXPECT_FALSE(parse_grid("link_cuts = -1\n", spec, error));
  EXPECT_FALSE(parse_grid("cut_slot = -5\n", spec, error));
  EXPECT_FALSE(parse_grid("cut_down_slots = 0\n", spec, error));
}

TEST(LinkSweep, CutCountMustStayBelowTheSmallestRing) {
  GridSpec spec;
  spec.node_counts = {4};
  spec.link_cuts = {0, 4};  // 4 cuts would sever every link of a 4-ring
  EXPECT_FALSE(spec.validate().empty());
  spec.link_cuts = {0, 3};
  EXPECT_TRUE(spec.validate().empty()) << spec.validate();
}

TEST(LinkSweep, LinkCutAxisMultipliesPointCount) {
  GridSpec spec;
  spec.protocols = {Protocol::kCcrEdf, Protocol::kTdma};
  spec.node_counts = {4};
  EXPECT_EQ(spec.point_count(), 2u);  // default single link_cuts = 0 cell
  spec.link_cuts = {0, 1};
  EXPECT_EQ(spec.point_count(), 4u);
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].link_cuts, 0);
  EXPECT_EQ(points[1].link_cuts, 1);
}

TEST(LinkSweep, WorkloadKeyIgnoresLinkCuts) {
  // Paired comparison along the cut axis: the cut and cut-free cells of
  // a scenario must generate the identical connection set, so any
  // metric delta is attributable to the cut alone.
  GridPoint a;
  a.link_cuts = 0;
  GridPoint b = a;
  b.link_cuts = 1;
  EXPECT_EQ(workload_key(a), workload_key(b));
}

TEST(LinkSweep, CutMetricsPopulatedOnlyOnCutPoints) {
  const GridSpec spec = cut_grid();
  const SweepResult res = run_sweep(spec, {.threads = 2});
  ASSERT_EQ(res.failed_shards, 0);
  ASSERT_EQ(res.points.size(), 2u);
  for (const PointResult& pr : res.points) {
    if (pr.point.link_cuts == 0) {
      EXPECT_EQ(pr.mean(Metric::kLinkCuts), 0.0);
      EXPECT_EQ(pr.mean(Metric::kSegmentQuarantines), 0.0);
      EXPECT_EQ(pr.mean(Metric::kCutDetectSlots), 0.0);
      EXPECT_EQ(pr.mean(Metric::kCutDisjointMisses), 0.0);
    } else {
      EXPECT_EQ(pr.mean(Metric::kLinkCuts), 1.0);
      EXPECT_GT(pr.mean(Metric::kSegmentQuarantines), 0.0);
      // In-protocol detection: the very next collection phase carries
      // the truncated-heard evidence, so latency is 1..2 slots per cut.
      EXPECT_GE(pr.mean(Metric::kCutDetectSlots), 1.0);
      EXPECT_LE(pr.mean(Metric::kCutDetectSlots), 2.0);
      // The headline containment gate, sweep-side: connections whose
      // segment avoids every cut link never miss.
      EXPECT_EQ(pr.mean(Metric::kCutDisjointMisses), 0.0);
    }
  }
}

TEST(LinkSweep, ShardRerunsBitIdentical) {
  const GridSpec spec = cut_grid();
  const auto points = spec.expand();
  const GridPoint& live = points.back();
  ASSERT_GT(live.link_cuts, 0);
  const ShardMetrics a = run_shard(spec, live, 1);
  const ShardMetrics b = run_shard(spec, live, 1);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    EXPECT_EQ(a.values[i], b.values[i])
        << "metric " << metric_name(static_cast<Metric>(i));
  }
}

TEST(LinkSweep, ReportInvariantAcrossEngineThreadsAndPlanner) {
  // The determinism contract through a severed-segment cycle:
  // byte-identical JSON across {fast-forward, slot-by-slot} x {1, 4, 8
  // threads}, and again with the hypercycle planner enabled (cut cells
  // carry an injector, so no plan builds -- the divergence fallback must
  // be byte-identical too).
  for (const bool planner : {false, true}) {
    GridSpec spec = cut_grid();
    spec.planners = {planner};
    spec.fast_forward = true;
    const std::string reference = to_json(run_sweep(spec, {.threads = 1}));
    for (const bool fast_forward : {true, false}) {
      for (const int threads : {1, 4, 8}) {
        if (fast_forward && threads == 1) continue;  // the reference run
        spec.fast_forward = fast_forward;
        EXPECT_EQ(reference, to_json(run_sweep(spec, {.threads = threads})))
            << "report diverged at planner=" << (planner ? "on" : "off")
            << ", fast_forward=" << (fast_forward ? "on" : "off")
            << ", threads=" << threads;
      }
    }
  }
}

TEST(LinkSweep, ReportCarriesCutColumnsAndSpecKeys) {
  const GridSpec spec = cut_grid();
  const SweepResult res = run_sweep(spec, {.threads = 2});
  const std::string json = to_json(res);
  EXPECT_NE(json.find("\"link_cuts\""), std::string::npos);
  EXPECT_NE(json.find("\"cut_slot\""), std::string::npos);
  EXPECT_NE(json.find("\"cut_down_slots\""), std::string::npos);
  EXPECT_NE(json.find("\"segment_quarantines\""), std::string::npos);
  EXPECT_NE(json.find("\"cut_detect_slots\""), std::string::npos);
  EXPECT_NE(json.find("\"cut_disjoint_misses\""), std::string::npos);
}

TEST(LinkSweep, TableShowsTheLinkCutAxis) {
  // The two points differ only in link_cuts, so without that column
  // their rows would read the same.
  SweepResult res;
  res.spec = cut_grid();
  for (const GridPoint& p : res.spec.expand()) {
    PointResult pr;
    pr.point = p;
    res.points.push_back(pr);
  }
  std::istringstream table(to_table(res, {}, "cuts").str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(table, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u);  // title, header, rule, two rows
  EXPECT_NE(lines[1].find("link_cuts"), std::string::npos) << lines[1];
  EXPECT_NE(lines[3], lines[4]);
}

}  // namespace
}  // namespace ccredf::sweep
