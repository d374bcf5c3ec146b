// ccredf_sweep: run a declarative scenario grid in parallel.
//
//   ccredf_sweep GRID_FILE [--threads N] [--out FILE] [--table]
//                [--no-fast-forward]
//
//   --threads N   worker threads (default 1; 0 = hardware concurrency)
//   --out FILE    write the aggregated JSON report to FILE instead of
//                 stdout
//   --table       also print a human-readable summary table (stdout)
//   --no-fast-forward
//                 force slot-by-slot execution on every shard (grid files
//                 have no fast-forward key).  The report must be
//                 byte-identical either way -- this switch exists to
//                 check exactly that (and to time the difference).
//
// The JSON report is byte-identical for any thread count (see
// src/sweep/runner.hpp), so diffing two runs of the same grid file is a
// meaningful regression check:
//
//   ccredf_sweep grid --threads 1 --out a.json
//   ccredf_sweep grid --threads 8 --out b.json
//   cmp a.json b.json
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "sweep/grid.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " GRID_FILE [--threads N] [--out FILE] [--table]"
               " [--no-fast-forward]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ccredf;

  std::string grid_path;
  std::string out_path;
  int threads = 1;
  bool table = false;
  bool no_fast_forward = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--threads" || arg == "--out") &&
        (i + 1 >= argc || argv[i + 1][0] == '\0')) {
      std::cerr << "ccredf_sweep: " << arg << " needs a value\n";
      return usage(argv[0]);
    }
    if (arg == "--threads") {
      char* end = nullptr;
      const long v = std::strtol(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || v < 0 || v > 4096) {
        std::cerr << "ccredf_sweep: bad --threads value\n";
        return usage(argv[0]);
      }
      threads = static_cast<int>(v);
    } else if (arg == "--out") {
      out_path = argv[++i];
    } else if (arg == "--table") {
      table = true;
    } else if (arg == "--no-fast-forward") {
      no_fast_forward = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "ccredf_sweep: unknown option `" << arg << "`\n";
      return usage(argv[0]);
    } else if (grid_path.empty()) {
      grid_path = arg;
    } else {
      std::cerr << "ccredf_sweep: more than one grid file\n";
      return usage(argv[0]);
    }
  }
  if (grid_path.empty()) return usage(argv[0]);

  sweep::GridSpec spec;
  std::string error;
  if (!sweep::load_grid_file(grid_path, spec, error)) {
    std::cerr << "ccredf_sweep: " << error << "\n";
    return 1;
  }
  if (no_fast_forward) spec.fast_forward = false;

  sweep::RunOptions opts;
  opts.threads = threads;
  const sweep::SweepResult result = sweep::run_sweep(spec, opts);

  std::cerr << "ccredf_sweep: " << result.points.size() << " points, "
            << result.shards << " shards, " << result.wall_seconds
            << " s wall";
  if (result.failed_shards > 0) {
    std::cerr << ", " << result.failed_shards << " FAILED shards";
  }
  std::cerr << "\n";

  if (table) {
    const std::vector<sweep::Metric> cols{
        sweep::Metric::kAdmittedFraction, sweep::Metric::kRtDelivered,
        sweep::Metric::kUserMissRatio,    sweep::Metric::kInversions,
        sweep::Metric::kMeanLatencyUs,    sweep::Metric::kGoodputBps};
    // The engine flags change how shards execute (never what they
    // compute), so surface them in the header where a reader comparing
    // two tables will see them first.
    std::string title = "sweep: " + grid_path + "  [planner=";
    for (std::size_t i = 0; i < spec.planners.size(); ++i) {
      if (i > 0) title += ',';
      title += spec.planners[i] ? "on" : "off";
    }
    title += spec.fast_forward ? " fast_forward=on]" : " fast_forward=off]";
    sweep::to_table(result, cols, title).print(std::cout);
  }

  if (out_path.empty()) {
    sweep::write_json(result, std::cout);
  } else if (!sweep::write_json_file(result, out_path)) {
    std::cerr << "ccredf_sweep: cannot write `" << out_path << "`\n";
    return 1;
  }
  return result.failed_shards > 0 ? 3 : 0;
}
