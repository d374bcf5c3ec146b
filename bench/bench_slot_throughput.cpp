// E16: steady-state slot-engine throughput (engineering metric, no paper
// artefact).  Measures simulated slots and discrete events per second of
// host wall time, swept over ring size and admitted periodic load.  Every
// experiment binary is bounded by this number, so it is the repo's
// recorded perf trajectory: results land in BENCH_slot_throughput.json
// (override with --json <path>) for run-over-run diffing.
//
// The engine's idle fast-forward (DESIGN.md section 8) is ON by default,
// exactly as every experiment binary runs it; --no-fast-forward times the
// slot-by-slot path instead, so the two JSON documents diffed against
// each other measure the fast-forward speedup.  Each cell also records
// fast_forward_ratio -- the fraction of simulated slots the engine
// skipped arithmetically -- and the document records hardware_threads so
// wall-clock numbers are read against the host they came from.  Each
// cell reports the best of five timed repetitions: the fastest pass is
// the closest observable to the engine's real cost on a host with noisy
// neighbours, and the simulation is deterministic regardless.
//
// Usage: bench_slot_throughput [--quick] [--no-fast-forward]
//                              [--json <path>]
#include <chrono>
#include <string>
#include <thread>

#include "bench_common.hpp"

namespace {

using namespace ccredf;

struct Sample {
  double slots_per_sec = 0.0;
  double events_per_sec = 0.0;
  double sim_utilisation = 0.0;  // admitted utilisation actually opened
  double fast_forward_ratio = 0.0;  // skipped / total slots
  int connections = 0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Sample run_config(NodeId nodes, double load_fraction, double min_seconds,
                  bool fast_forward) {
  net::NetworkConfig cfg = bench::make_config(nodes, bench::Protocol::kCcrEdf);
  cfg.fast_forward = fast_forward;
  net::Network n(cfg);

  workload::PeriodicSetParams wp;
  wp.nodes = nodes;
  wp.connections = static_cast<int>(nodes);
  wp.total_utilisation = load_fraction * n.admission().u_max();
  wp.seed = 42;
  Sample s;
  s.connections = bench::open_all(n, workload::make_periodic_set(wp));
  s.sim_utilisation = n.admission().utilisation();

  // Warm-up: let queues, pools and scratch buffers reach steady state.
  n.run_slots(5'000);

  // Best of five timed repetitions: wall-clock throughput on a shared
  // or virtualised host dips unpredictably (scheduler preemption, noisy
  // neighbours), and a dip says nothing about the code under test.  The
  // fastest repetition is the closest observable to the engine's actual
  // cost; the simulation itself is deterministic either way.
  constexpr int kRepetitions = 5;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const std::int64_t slots0 = n.stats().slots;
    const std::uint64_t events0 = n.sim().events_fired();
    const auto t0 = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
      n.run_slots(20'000);
      elapsed = seconds_since(t0);
    } while (elapsed < min_seconds);
    const double slots_per_sec =
        static_cast<double>(n.stats().slots - slots0) / elapsed;
    if (slots_per_sec > s.slots_per_sec) {
      s.slots_per_sec = slots_per_sec;
      s.events_per_sec =
          static_cast<double>(n.sim().events_fired() - events0) / elapsed;
    }
  }
  s.fast_forward_ratio = n.stats().fast_forward_ratio();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const ccredf::bench::Flags flags =
      ccredf::bench::parse_flags(argc, argv, {"--no-fast-forward"});
  const std::string json_path = flags.json_path.empty()
                                    ? "BENCH_slot_throughput.json"
                                    : flags.json_path;
  const bool fast_forward = !flags.has("--no-fast-forward");
  const double min_seconds = flags.quick ? 0.05 : 0.4;

  ccredf::bench::header("E16", "slot-engine throughput",
                        "engineering metric (perf trajectory)");
  if (!fast_forward) {
    std::cout << "(idle fast-forward disabled: timing the slot-by-slot"
                 " path)\n\n";
  }

  ccredf::analysis::Table table("slot-engine steady-state throughput");
  table.columns(
      {"nodes", "load", "conns", "util", "slots/s", "events/s", "ff"});
  ccredf::bench::JsonDoc doc("slot_throughput");

  const ccredf::NodeId node_counts[] = {4, 8, 16, 32};
  const double loads[] = {0.3, 0.6, 0.9};
  for (const auto nodes : node_counts) {
    for (const double load : loads) {
      const Sample s = run_config(nodes, load, min_seconds, fast_forward);
      table.row()
          .cell(static_cast<std::int64_t>(nodes))
          .cell(load, 1)
          .cell(s.connections)
          .cell(s.sim_utilisation, 3)
          .cell(s.slots_per_sec, 0)
          .cell(s.events_per_sec, 0)
          .cell(s.fast_forward_ratio, 3);
      const std::string key = "nodes=" + std::to_string(nodes) +
                              ",load=" + std::to_string(load).substr(0, 3);
      doc.set(key + ",slots_per_sec", s.slots_per_sec);
      doc.set(key + ",events_per_sec", s.events_per_sec);
      doc.set(key + ",fast_forward_ratio", s.fast_forward_ratio);
    }
  }
  doc.set("fast_forward", fast_forward ? 1.0 : 0.0);
  doc.set("hardware_threads",
          static_cast<double>(std::thread::hardware_concurrency()));
  table.print(std::cout);

  if (!doc.write(json_path)) {
    std::cerr << "bench_slot_throughput: cannot write " << json_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
