// E17 (engineering metric): throughput and parallel speedup of the
// sweep runner.  The E17 grid covers the three protocols at four loads on
// three ring sizes; it is timed with 1, 2, 4 and 8 worker threads, and
// shard throughput + speedup land in BENCH_sweep.json for trend
// tracking.  The byte-identity of the report across thread counts is a
// ctest case (SweepDeterminismTest.JsonIdenticalAcrossThreadCounts).
//
// Note: speedup is bounded by the machine -- on an M-core host the ideal
// is min(8, M); `hardware_threads` is recorded alongside so a 1.0x on a
// single-core container reads as expected, not as a regression.
#include "bench_common.hpp"

#include <string>
#include <thread>

#include "sweep/runner.hpp"

using namespace ccredf;
using namespace ccredf::bench;

namespace {

sweep::GridSpec e17_grid(bool quick) {
  sweep::GridSpec spec;
  spec.protocols = {Protocol::kCcrEdf, Protocol::kCcFpr, Protocol::kTdma};
  spec.node_counts = quick ? std::vector<NodeId>{4, 8}
                           : std::vector<NodeId>{4, 8, 16};
  spec.utilisations = quick ? std::vector<double>{0.3, 0.7}
                            : std::vector<double>{0.3, 0.5, 0.7, 0.85};
  spec.mixes = {sweep::WorkloadMix::kPeriodic};
  spec.set_seeds = {1};
  spec.repetitions = 2;
  spec.slots = quick ? 1000 : 4000;
  spec.min_period_slots = 10;
  spec.max_period_slots = 120;
  spec.base_seed = 17;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = parse_flags(argc, argv);

  header("E17", "parallel sweep-runner throughput",
         "engineering metric (no paper artefact); DESIGN.md section 9");

  const sweep::GridSpec spec = e17_grid(flags.quick);
  const auto hw = static_cast<int>(std::thread::hardware_concurrency());

  // Discarded warm-up pass: first-touch page faults and allocator growth
  // would otherwise be billed entirely to the threads=1 measurement and
  // flatter the speedup.
  (void)sweep::run_sweep(spec, {.threads = 0});

  analysis::Table t("E17: sweep wall-clock vs worker threads");
  t.columns({"threads", "shards", "wall (s)", "shards/s", "speedup"});
  double wall_1t = 0.0;
  double wall_8t = 0.0;
  double shards_per_s_1t = 0.0;
  double shards_per_s_8t = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    sweep::RunOptions opts;
    opts.threads = threads;
    const sweep::SweepResult res = sweep::run_sweep(spec, opts);
    const auto shards = static_cast<double>(res.shards);
    const double rate = shards / res.wall_seconds;
    if (threads == 1) {
      wall_1t = res.wall_seconds;
      shards_per_s_1t = rate;
    }
    if (threads == 8) {
      wall_8t = res.wall_seconds;
      shards_per_s_8t = rate;
    }
    t.row()
        .cell(static_cast<std::int64_t>(threads))
        .cell(res.shards)
        .cell(res.wall_seconds, 3)
        .cell(rate, 1)
        .cell(wall_1t / res.wall_seconds, 2);
  }
  t.note("hardware threads on this host: " + std::to_string(hw));
  t.print(std::cout);

  if (!flags.json_path.empty()) {
    JsonDoc doc("sweep");
    doc.set("shards", static_cast<double>(spec.shard_count()));
    doc.set("points", static_cast<double>(spec.point_count()));
    doc.set("slots_per_shard", static_cast<double>(spec.slots));
    doc.set("wall_s_1t", wall_1t);
    doc.set("wall_s_8t", wall_8t);
    doc.set("shards_per_s_1t", shards_per_s_1t);
    doc.set("shards_per_s_8t", shards_per_s_8t);
    doc.set("speedup_8t_vs_1t", wall_1t / wall_8t);
    doc.set("hardware_threads", static_cast<double>(hw));
    if (!doc.write(flags.json_path)) {
      std::cerr << "bench_sweep: cannot write " << flags.json_path
                << "\n";
      return 1;
    }
    std::cout << doc.str();
  }
  return 0;
}
