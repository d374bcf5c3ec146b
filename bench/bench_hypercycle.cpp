// E23b: hypercycle reservation planner engine throughput (paper §2
// spatial reuse turned into a constructive admission proof; DESIGN.md
// §13).
//
// Times the engine on a busy fully-periodic 32-node cell both engines
// admit identically (0.9 x U_max), planner on vs off, timed in
// alternating repetitions on two warmed networks so host noise cannot
// decide the ratio.  The median per-repetition ratio must show the
// plan-driven engine >= 2x the slot-by-slot TCMA engine (the acceptance
// claim); each engine's best slots/s is reported against the absolute
// floors in perf_floors.json.  E23a (admission past U_max) and E23c
// (planner-axis determinism) are ctest cases.
//
// Usage: bench_hypercycle [--quick] [--json <path>]
#include <algorithm>
#include <array>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace ccredf;

constexpr NodeId kNodes = 32;
constexpr std::int64_t kPeriod = 32;

std::vector<core::ConnectionParams> busy_set(int streams) {
  std::vector<core::ConnectionParams> set;
  for (int k = 0; k < streams; ++k) {
    const auto ku = static_cast<NodeId>(k);
    core::ConnectionParams c;
    c.source = ku % kNodes;
    c.dests = NodeSet::single((c.source + 1 + ku % 4) % kNodes);
    c.size_slots = 1;
    c.period_slots = kPeriod;
    c.offset_slots = (5 * k) % kPeriod;
    set.push_back(c);
  }
  return set;
}

net::NetworkConfig cell_config(bool planner) {
  net::NetworkConfig cfg = bench::make_config(kNodes, bench::Protocol::kCcrEdf);
  cfg.planner = planner;
  return cfg;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Steady-state slots/s of two warmed networks, timed in 25 short
/// alternating repetitions so that a slow stretch of a shared host hits
/// both engines alike; one {a, b} rate pair per repetition.
std::vector<std::array<double, 2>> time_engines(net::Network& a,
                                                net::Network& b,
                                                double min_seconds) {
  a.run_slots(5'000);  // warm-up
  b.run_slots(5'000);
  std::vector<std::array<double, 2>> rates;
  for (int rep = 0; rep < 25; ++rep) {
    std::array<double, 2> pair{};
    for (std::size_t i = 0; i < 2; ++i) {
      net::Network& n = i == 0 ? a : b;
      const std::int64_t slots0 = n.stats().slots;
      const auto t0 = std::chrono::steady_clock::now();
      double elapsed = 0.0;
      do {
        n.run_slots(20'000);
        elapsed = seconds_since(t0);
      } while (elapsed < min_seconds);
      pair[i] = static_cast<double>(n.stats().slots - slots0) / elapsed;
    }
    rates.push_back(pair);
  }
  return rates;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags = bench::parse_flags(argc, argv);
  const std::string json_path =
      flags.json_path.empty() ? "BENCH_hypercycle.json" : flags.json_path;
  const double min_seconds = flags.quick ? 0.01 : 0.1;

  bench::header("E23", "hypercycle reservation planner",
                "admission past Eq. 6 via spatial reuse (paper section 2)");
  bench::JsonDoc doc("hypercycle");
  bool ok = true;

  // -- E23b: engine throughput on a busy fully-periodic cell --------------
  net::Network on(cell_config(true));
  net::Network off(cell_config(false));
  const double u_max = on.admission().u_max();
  const int busy_streams =
      static_cast<int>(0.9 * u_max * static_cast<double>(kPeriod));
  const auto busy = busy_set(busy_streams);
  for (net::Network* n : {&on, &off}) {
    const int admitted = bench::open_all(*n, busy);
    if (admitted != busy_streams) {
      std::cerr << "E23b FAIL: engine cell admitted " << admitted << "/"
                << busy_streams << " with planner "
                << (n == &on ? "on" : "off") << "\n";
      ok = false;
    }
  }
  // The gate reads the median of the per-repetition ratios: a stretch
  // boundary falling inside one repetition spoils that ratio only.
  const auto rates = time_engines(on, off, min_seconds);
  double rate_on = 0.0;
  double rate_off = 0.0;
  std::vector<double> ratios;
  for (const auto& [r_on, r_off] : rates) {
    rate_on = std::max(rate_on, r_on);
    rate_off = std::max(rate_off, r_off);
    ratios.push_back(r_off > 0.0 ? r_on / r_off : 0.0);
  }
  std::sort(ratios.begin(), ratios.end());
  const double speedup = ratios[ratios.size() / 2];
  const double planned_on = on.stats().planned_slot_fraction();
  for (net::Network* n : {&on, &off}) {
    const auto& rt = n->stats().cls(core::TrafficClass::kRealTime);
    if (rt.scheduling_miss_ratio() != 0.0 || rt.user_miss_ratio() != 0.0) {
      std::cerr << "E23b FAIL: busy cell missed deadlines (planner "
                << (n == &on ? "on" : "off") << ")\n";
      ok = false;
    }
  }
  analysis::Table engine_table("slot engine, 32 nodes, 0.9 x U_max");
  engine_table.columns({"engine", "slots/s", "planned", "speedup"});
  engine_table.row()
      .cell("planner32")
      .cell(rate_on, 0)
      .cell(planned_on, 3)
      .cell(speedup, 2);
  engine_table.row().cell("tcma32").cell(rate_off, 0).cell(0.0, 3).cell(1.0,
                                                                        2);
  engine_table.print(std::cout);
  doc.set("planner32,slots_per_sec", rate_on);
  doc.set("tcma32,slots_per_sec", rate_off);
  doc.set("planner32,planned_slot_fraction", planned_on);
  doc.set("engine_speedup", speedup);
#if defined(CCREDF_BENCH_TIMING_UNGATED)
  // Sanitizer/coverage/debug build: instrumentation skews the engines'
  // relative cost, so the ratio is reported but not gated (see
  // bench/CMakeLists.txt; the release CI leg enforces it).
  std::cout << "E23b: speedup gate skipped (instrumented build)\n";
#else
  if (speedup < 2.0) {
    std::cerr << "E23b FAIL: plan-driven fast-forward only " << speedup
              << "x the slot-by-slot engine (< 2x)\n";
    ok = false;
  }
#endif

  doc.set("hardware_threads",
          static_cast<double>(std::thread::hardware_concurrency()));
  if (!doc.write(json_path)) {
    std::cerr << "bench_hypercycle: cannot write " << json_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";
  return ok ? 0 : 1;
}
