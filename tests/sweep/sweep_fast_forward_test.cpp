// The sweep-level fast-forward contract: GridSpec::fast_forward selects
// the engine's execution strategy, never its results.  The aggregated
// JSON report must be byte-identical across {fast-forward, slot-by-slot}
// x {1, 4, 8 worker threads} -- all six runs of a grid collapse to one
// document.  scripts/check.sh enforces the same over the shipped grids
// through `ccredf_sweep --no-fast-forward`.
#include <gtest/gtest.h>

#include "sweep/report.hpp"
#include "sweep/runner.hpp"

namespace ccredf::sweep {
namespace {

GridSpec mixed_grid() {
  GridSpec spec;
  spec.protocols = {Protocol::kCcrEdf, Protocol::kCcFpr, Protocol::kTdma};
  spec.node_counts = {4, 8};
  spec.utilisations = {0.3, 0.6, 0.9};
  spec.mixes = {WorkloadMix::kPeriodic, WorkloadMix::kMixed};
  spec.set_seeds = {5};
  spec.repetitions = 2;
  spec.slots = 250;
  spec.base_seed = 3;
  return spec;
}

GridSpec fault_grid() {
  GridSpec spec;
  spec.protocols = {Protocol::kCcrEdf};
  spec.node_counts = {6};
  spec.utilisations = {0.3, 0.8};
  spec.bers = {0.0, 1e-3};
  spec.data_bers = {0.0, 2e-4};
  spec.mixes = {WorkloadMix::kPeriodic};
  spec.set_seeds = {5};
  spec.repetitions = 2;
  spec.slots = 300;
  spec.frame_crc = true;
  spec.payload_crc = true;
  spec.base_seed = 3;
  return spec;
}

// The cells that carry most Poisson and CBS arrivals: saturation load
// beside saturated CBS servers, tail-dropped at a 32-message buffer.
GridSpec saturation_grid() {
  GridSpec spec;
  spec.protocols = {Protocol::kCcrEdf, Protocol::kCcFpr};
  spec.node_counts = {8, 16};
  spec.utilisations = {0.5};
  spec.bers = {0.0, 1e-3};
  spec.mixes = {WorkloadMix::kSaturation};
  spec.services = {ServiceMix::kCbsSaturated};
  spec.queue_cap = 32;
  spec.set_seeds = {5};
  spec.repetitions = 2;
  spec.slots = 1500;
  spec.base_seed = 3;
  return spec;
}

void expect_engine_invariant(GridSpec spec) {
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

TEST(SweepFastForward, ReportInvariantAcrossEngineAndThreads) {
  expect_engine_invariant(mixed_grid());
}

TEST(SweepFastForward, FaultGridReportInvariantAcrossEngineAndThreads) {
  expect_engine_invariant(fault_grid());
}

TEST(SweepFastForward, SaturationGridReportInvariantAcrossEngineAndThreads) {
  expect_engine_invariant(saturation_grid());
}

TEST(SweepFastForward, DefaultSpecFastForwards) {
  // The default must match the engine default (NetworkConfig): every
  // grid runs the fast engine unless `ccredf_sweep --no-fast-forward`
  // clears the flag, and the report is the same either way.
  GridSpec spec;
  EXPECT_TRUE(spec.fast_forward);
  EXPECT_TRUE(make_network_config(spec, GridPoint{}).fast_forward);
  spec.fast_forward = false;
  EXPECT_FALSE(make_network_config(spec, GridPoint{}).fast_forward);
}

}  // namespace
}  // namespace ccredf::sweep
