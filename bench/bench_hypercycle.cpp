// E23: hypercycle reservation planner -- admitted-utilisation ceiling,
// control-channel occupancy and engine throughput (paper §2 spatial
// reuse turned into a constructive admission proof; DESIGN.md §13).
//
// E23a sweeps the three engines over a fully-periodic 32-node cell whose
// offered load (4 one-hop streams per node, e = 1, P = 32: sum e_i/P_i
// = 4.0) is far past the Eq. 6 per-slot ceiling U_max.  Pure TCMA
// (CCR-EDF, planner off) and CC-FPR must stop admitting at U_max; the
// planner lays the whole hypercycle out, proves the packing feasible
// and admits the full set -- and the run must then deliver every
// message with ZERO deadline misses, with the control channel silent on
// planned slots (requests per slot ~ 0).
//
// E23b times the engine on a busy fully-periodic 32-node cell both
// engines admit identically (0.9 x U_max), planner on vs off, timed in
// alternating repetitions on two warmed networks so host noise cannot
// decide the ratio.  The median per-repetition ratio must show the
// plan-driven engine >= 2x the slot-by-slot TCMA engine (the acceptance
// claim); each engine's best slots/s is reported against the absolute
// floors in perf_floors.json.
//
// E23c re-runs the planner-axis sweep determinism gates: the report is
// byte-identical across 1-vs-8 worker threads and fast-forward vs
// slot-by-slot, and on fault cells (hooks attach before any open, so no
// plan ever builds) planner-on is a byte-level no-op.
//
// Usage: bench_hypercycle [--quick] [--json <path>]
#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"

namespace {

using namespace ccredf;

constexpr NodeId kNodes = 32;
constexpr std::int64_t kPeriod = 32;

std::vector<core::ConnectionParams> one_hop_set(int streams_per_node) {
  std::vector<core::ConnectionParams> set;
  for (int j = 0; j < streams_per_node; ++j) {
    for (NodeId i = 0; i < kNodes; ++i) {
      core::ConnectionParams c;
      c.source = i;
      c.dests = NodeSet::single(static_cast<NodeId>((i + 1) % kNodes));
      c.size_slots = 1;
      c.period_slots = kPeriod;
      // Spread the release phases so the per-slot demand stays even.
      c.offset_slots = static_cast<std::int64_t>(j) * (kPeriod / 4);
      set.push_back(c);
    }
  }
  return set;
}

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

net::NetworkConfig cell_config(bench::Protocol proto, bool planner) {
  net::NetworkConfig cfg = bench::make_config(kNodes, proto);
  cfg.record_inboxes = false;
  cfg.planner = planner;
  return cfg;
}

double requests_per_slot(const net::Network& n) {
  std::int64_t total = 0;
  for (NodeId j = 0; j < n.nodes(); ++j) total += n.stats().node_requests[j];
  return n.stats().slots == 0
             ? 0.0
             : static_cast<double>(total) /
                   static_cast<double>(n.stats().slots);
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

// Hexfloat digest of a sweep point's aggregated metrics (bitwise
// statistics equality <=> equal strings).
std::string point_fingerprint(const sweep::PointResult& pr) {
  std::ostringstream os;
  os << std::hexfloat;
  for (std::size_t i = 0; i < sweep::kMetricCount; ++i) {
    const auto& st = pr.metrics[i];
    os << st.count() << ',' << st.mean() << ',' << st.stddev() << ','
       << st.min() << ',' << st.max() << ';';
  }
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags = bench::parse_flags(argc, argv);
  const std::string json_path =
      flags.json_path.empty() ? "BENCH_hypercycle.json" : flags.json_path;
  const std::int64_t run_slots = flags.quick ? 6'000 : 20'000;
  const double min_seconds = flags.quick ? 0.01 : 0.1;

  bench::header("E23", "hypercycle reservation planner",
                "admission past Eq. 6 via spatial reuse (paper section 2)");
  bench::JsonDoc doc("hypercycle");
  bool ok = true;

  // -- E23a: admitted-utilisation ceiling ---------------------------------
  const auto past_umax = one_hop_set(4);
  analysis::Table admit_table("admitted utilisation, offered u = 4.0");
  admit_table.columns({"engine", "admitted", "requested", "admitted_u",
                       "U_max", "sched_miss", "user_miss", "planned",
                       "req/slot"});
  double u_max = 0.0;

  struct Cell {
    const char* key;
    bench::Protocol proto;
    bool planner;
  };
  const Cell cells[] = {
      {"planner", bench::Protocol::kCcrEdf, true},
      {"tcma", bench::Protocol::kCcrEdf, false},
      {"ccfpr", bench::Protocol::kCcFpr, true},  // inert: no plan support
  };
  for (const Cell& cell : cells) {
    net::Network n(cell_config(cell.proto, cell.planner));
    u_max = n.admission().u_max();
    const int admitted = bench::open_all(n, past_umax);
    n.run_slots(run_slots);
    const auto& rt = n.stats().cls(core::TrafficClass::kRealTime);
    const double admitted_u = n.admission().utilisation();
    const double planned = n.stats().planned_slot_fraction();
    const double reqs = requests_per_slot(n);
    admit_table.row()
        .cell(cell.key)
        .cell(admitted)
        .cell(static_cast<std::int64_t>(past_umax.size()))
        .cell(admitted_u, 3)
        .cell(u_max, 3)
        .cell(rt.scheduling_miss_ratio(), 4)
        .cell(rt.user_miss_ratio(), 4)
        .cell(planned, 3)
        .cell(reqs, 3);
    const std::string k(cell.key);
    doc.set(k + ",admitted_conns", admitted);
    doc.set(k + ",admitted_u", admitted_u);
    doc.set(k + ",sched_miss_ratio", rt.scheduling_miss_ratio());
    doc.set(k + ",user_miss_ratio", rt.user_miss_ratio());
    doc.set(k + ",planned_slot_fraction", planned);
    doc.set(k + ",control_requests_per_slot", reqs);

    if (cell.planner && cell.proto == bench::Protocol::kCcrEdf) {
      if (admitted != static_cast<int>(past_umax.size()) ||
          admitted_u <= 2.0 * u_max) {
        std::cerr << "E23a FAIL: planner admitted " << admitted << "/"
                  << past_umax.size() << " (u=" << admitted_u
                  << ", U_max=" << u_max << ")\n";
        ok = false;
      }
      if (rt.scheduling_miss_ratio() != 0.0 || rt.user_miss_ratio() != 0.0) {
        std::cerr << "E23a FAIL: planned past-U_max run missed deadlines\n";
        ok = false;
      }
      // Every slot the plan is engaged either grants a bundle or waits
      // for the next release instant; together they must cover nearly
      // the whole run (the shortfall is the pre-open transient).
      const double plan_driven =
          static_cast<double>(n.stats().planned_slots +
                              n.stats().plan_wait_slots) /
          static_cast<double>(n.stats().slots);
      if (planned <= 0.0 || plan_driven < 0.95 ||
          n.stats().plan_divergences != 0) {
        std::cerr << "E23a FAIL: plan not in effect (granting fraction "
                  << planned << ", plan-driven fraction " << plan_driven
                  << ", divergences " << n.stats().plan_divergences << ")\n";
        ok = false;
      }
      doc.set("planner,plan_driven_fraction", plan_driven);
      doc.set("planner,plan_divergences",
              static_cast<double>(n.stats().plan_divergences));
    } else if (admitted_u > u_max + 1e-9) {
      std::cerr << "E23a FAIL: " << cell.key
                << " admitted past U_max without a plan\n";
      ok = false;
    }
  }
  doc.set("u_max", u_max);
  admit_table.print(std::cout);

  // -- E23b: engine throughput on a busy fully-periodic cell --------------
  const int busy_streams =
      static_cast<int>(0.9 * u_max * static_cast<double>(kPeriod));
  const auto busy = busy_set(busy_streams);
  net::Network on(cell_config(bench::Protocol::kCcrEdf, true));
  net::Network off(cell_config(bench::Protocol::kCcrEdf, false));
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

  // -- E23c: planner-axis sweep determinism -------------------------------
  sweep::GridSpec spec;
  spec.node_counts = {8};
  spec.utilisations = {0.35};
  spec.planners = {false, true};
  spec.repetitions = 2;
  spec.slots = flags.quick ? 600 : 2000;
  spec.min_period_slots = 32;
  spec.max_period_slots = 32;
  spec.base_seed = 23;
  const std::string json_1t =
      sweep::to_json(sweep::run_sweep(spec, {.threads = 1}));
  const std::string json_8t =
      sweep::to_json(sweep::run_sweep(spec, {.threads = 8}));
  sweep::GridSpec noff = spec;
  noff.fast_forward = false;
  const std::string json_noff =
      sweep::to_json(sweep::run_sweep(noff, {.threads = 1}));
  const bool threads_identical = json_1t == json_8t;
  const bool ff_identical = json_1t == json_noff;

  // Fault cells attach hooks before any open: the planner never engages
  // and must be a byte-level no-op, planner counters included.
  sweep::GridSpec faulted = spec;
  faulted.bers = {1e-3};
  faulted.frame_crc = true;
  const sweep::SweepResult fr = sweep::run_sweep(faulted, {.threads = 1});
  bool noop_identical = fr.failed_shards == 0 && fr.points.size() == 2;
  if (noop_identical) {
    noop_identical =
        point_fingerprint(fr.points[0]) == point_fingerprint(fr.points[1]);
  }
  std::cout << "E23c: planner-axis sweep 1-thread vs 8-thread JSON: "
            << (threads_identical ? "byte-identical" : "MISMATCH")
            << "; fast-forward vs slot-by-slot JSON: "
            << (ff_identical ? "byte-identical" : "MISMATCH")
            << "; planner on/off on fault cells: "
            << (noop_identical ? "byte-identical" : "MISMATCH") << "\n";
  doc.set("threads_json_identical", threads_identical ? 1.0 : 0.0);
  doc.set("ff_json_identical", ff_identical ? 1.0 : 0.0);
  doc.set("planner_noop_identical", noop_identical ? 1.0 : 0.0);
  if (!threads_identical || !ff_identical || !noop_identical) {
    std::cerr << "E23c FAIL: planner sweep determinism gate\n";
    ok = false;
  }

  doc.set("hardware_threads",
          static_cast<double>(std::thread::hardware_concurrency()));
  if (!doc.write(json_path)) {
    std::cerr << "bench_hypercycle: cannot write " << json_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";
  return ok ? 0 : 1;
}
