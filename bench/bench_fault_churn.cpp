// E22: failure detection, bandwidth reclamation and staged re-admission
// under continuous node churn (services::ResilienceMonitor closing the
// paper section 8 failure loop with on-wire evidence only).
//
// E22a  containment: an admitted periodic RT set runs under continuous
//       churn of the two highest-numbered nodes (exponential up/down
//       renewals through fault::FaultInjector).  Connections whose
//       source AND destinations are disjoint from every churned node
//       must miss ZERO user deadlines across the whole horizon -- a
//       churned node may only ever hurt traffic that touches it (exit 1
//       otherwise).  Three invariants ride along: detection latency
//       never exceeds detection_window + 1 slots, the utilisation drop
//       of every quarantine equals the released Eq. 5/6 weight to
//       within 1e-9, and the loop actually cycled (downs > 0,
//       re-admissions > 0).
// E22b  recovery-gap distribution: the same run's token-loss recovery
//       gaps (churned masters die mid-slot) exported as exact
//       nearest-rank p50/p99 -- p50 <= p99, both positive whenever any
//       recovery happened (exit 1 otherwise).
// E22c  determinism: a churn-axis grid (churns = 0 and a live cell)
//       must serialise to byte-identical JSON with 1 and 8 worker
//       threads AND with fast-forward on and off -- the monitor is a
//       slot listener with deadlines, so the idle fast-forward stays
//       enabled and must stay bit-exact through detection windows and
//       re-admission drains (exit 1 otherwise).
//
// Flags: --quick (2e5-slot horizon instead of 1e7), --json <path>
// (BENCH_fault_churn.json).
#include "bench_common.hpp"

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fault/injector.hpp"
#include "services/resilience.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "workload/churn.hpp"

using namespace ccredf;
using namespace ccredf::bench;

namespace {

constexpr NodeId kNodes = 8;
constexpr std::int64_t kDetectWindow = 16;
// Mean dwells in slot extents: long healthy stretches, repairs far
// above the detection window so every failure is seen and every repair
// re-admits.
constexpr double kMeanUpSlots = 40'000.0;
constexpr double kMeanDownSlots = 2'000.0;

struct ChurnRun {
  int admitted = 0;
  int disjoint_count = 0;
  std::int64_t disjoint_user_misses = 0;
  std::int64_t touching_user_misses = 0;
  std::int64_t failures_scheduled = 0;
  services::ResilienceStats monitor;
  std::int64_t recoveries = 0;
  std::int64_t recovery_p50_ps = 0;
  std::int64_t recovery_p99_ps = 0;
};

ChurnRun run_case(std::int64_t horizon_slots) {
  net::NetworkConfig cfg = make_config(kNodes, Protocol::kCcrEdf);
  cfg.record_inboxes = false;  // long horizon must stay memory-bounded
  net::Network n(cfg);

  // The two highest-numbered nodes churn; node 0 (designated restarter)
  // and the bulk of the ring stay healthy.
  NodeSet churned;
  churned.insert(kNodes - 2);
  churned.insert(kNodes - 1);

  fault::FaultInjector injector(n, /*seed=*/22);
  services::ResilienceParams rp;
  rp.detection_window_slots = kDetectWindow;
  services::ResilienceMonitor monitor(n, rp);

  workload::PeriodicSetParams wp;
  wp.nodes = kNodes;
  wp.connections = 16;
  wp.total_utilisation = 0.5 * n.timing().u_max();
  wp.min_period_slots = 20;
  wp.max_period_slots = 120;
  wp.seed = 22;

  ChurnRun res;
  std::vector<ConnectionId> disjoint;
  std::vector<ConnectionId> touching;
  for (const auto& c : workload::make_periodic_set(wp)) {
    const auto open = n.open_connection(c);
    if (!open.admitted) continue;
    ++res.admitted;
    if (!churned.contains(c.source) && !c.dests.intersects(churned)) {
      disjoint.push_back(open.id);
    } else {
      touching.push_back(open.id);
    }
  }
  res.disjoint_count = static_cast<int>(disjoint.size());

  workload::ChurnParams chp;
  chp.nodes = churned;
  chp.mean_up_slots = kMeanUpSlots;
  chp.mean_down_slots = kMeanDownSlots;
  chp.seed = 22;
  const workload::ChurnProcess churn(
      n, injector, chp,
      sim::TimePoint::origin() + n.timing().slot() * horizon_slots);
  res.failures_scheduled = churn.failures_scheduled();

  n.run_slots(horizon_slots);

  for (const ConnectionId id : disjoint) {
    res.disjoint_user_misses += n.connection_stats(id).user_misses;
  }
  for (const ConnectionId id : touching) {
    res.touching_user_misses += n.connection_stats(id).user_misses;
  }
  res.monitor = monitor.stats();
  res.recoveries = n.recoveries();
  const auto& gaps = n.stats().faults.recovery_gap_quantiles;
  res.recovery_p50_ps = gaps.quantile(0.5);
  res.recovery_p99_ps = gaps.quantile(0.99);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = parse_flags(argc, argv);
  JsonDoc doc("fault_churn");
  bool ok = true;

  header("E22",
         "Failure detection, bandwidth reclamation and staged "
         "re-admission under continuous node churn",
         "Section 8 (failure handling) grown into a closed loop");

  const std::int64_t horizon = flags.quick ? 200'000 : 10'000'000;
  const ChurnRun r = run_case(horizon);

  // -- E22a: containment + detection/reclamation invariants ---------------
  analysis::Table a(
      "E22a: containment under churn (8 nodes, RT load 0.5 U_max, nodes "
      "6-7 churning, detection window " +
      std::to_string(kDetectWindow) + " slots, horizon " +
      std::to_string(horizon) + " slots)");
  a.columns({"quantity", "value"});
  a.row().cell("RT connections admitted").cell(r.admitted);
  a.row().cell("disjoint connections").cell(r.disjoint_count);
  a.row().cell("disjoint user misses").cell(r.disjoint_user_misses);
  a.row().cell("touching user misses").cell(r.touching_user_misses);
  a.row().cell("failures scheduled").cell(r.failures_scheduled);
  a.row().cell("downs declared").cell(r.monitor.downs);
  a.row().cell("reappearances").cell(r.monitor.reappearances);
  a.row()
      .cell("detection latency max (slots)")
      .cell(r.monitor.detection_latency_slots.max(), 0);
  a.row()
      .cell("weight reclaimed (sum)")
      .cell(r.monitor.weight_reclaimed, 4);
  a.row().cell("reclaim error (max)").cell(r.monitor.reclaim_error, 12);
  a.row().cell("re-admission attempts").cell(r.monitor.readmit_attempts);
  a.row().cell("re-admissions").cell(r.monitor.readmissions);
  a.note("a churned node may only hurt traffic that touches it: the "
         "disjoint set's user-miss count must be exactly zero, and every "
         "quarantine must release exactly the weight Eq. 5/6 charged");
  a.print(std::cout);

  doc.set("horizon_slots", static_cast<double>(horizon));
  doc.set("rt_connections", static_cast<double>(r.admitted));
  doc.set("disjoint_connections", static_cast<double>(r.disjoint_count));
  doc.set("disjoint_user_misses",
          static_cast<double>(r.disjoint_user_misses));
  doc.set("touching_user_misses",
          static_cast<double>(r.touching_user_misses));
  doc.set("downs", static_cast<double>(r.monitor.downs));
  doc.set("reappearances", static_cast<double>(r.monitor.reappearances));
  doc.set("detection_window_slots", static_cast<double>(kDetectWindow));
  doc.set("detection_latency_max_slots",
          r.monitor.detection_latency_slots.max());
  doc.set("weight_reclaimed", r.monitor.weight_reclaimed);
  doc.set("weight_readmitted", r.monitor.weight_readmitted);
  doc.set("reclaim_error", r.monitor.reclaim_error);
  doc.set("readmit_attempts", static_cast<double>(r.monitor.readmit_attempts));
  doc.set("readmissions", static_cast<double>(r.monitor.readmissions));
  doc.set("readmit_rejections",
          static_cast<double>(r.monitor.readmit_rejections));

  if (r.disjoint_count <= 0) {
    std::cerr << "E22a FAIL: workload produced no churn-disjoint "
                 "connections -- the containment gate tested nothing\n";
    ok = false;
  }
  if (r.disjoint_user_misses != 0) {
    std::cerr << "E22a FAIL: " << r.disjoint_user_misses
              << " user misses on connections disjoint from every "
                 "churned node\n";
    ok = false;
  }
  if (r.monitor.downs <= 0 || r.monitor.readmissions <= 0) {
    std::cerr << "E22a FAIL: the churn loop never cycled (downs = "
              << r.monitor.downs
              << ", readmissions = " << r.monitor.readmissions << ")\n";
    ok = false;
  }
  if (r.monitor.detection_latency_slots.max() >
      static_cast<double>(kDetectWindow + 1)) {
    std::cerr << "E22a FAIL: detection latency "
              << r.monitor.detection_latency_slots.max()
              << " slots exceeds the configured window + 1\n";
    ok = false;
  }
  if (r.monitor.reclaim_error > 1e-9) {
    std::cerr << "E22a FAIL: quarantine released weight diverges from "
                 "the utilisation drop by "
              << r.monitor.reclaim_error << "\n";
    ok = false;
  }

  // -- E22b: exact recovery-gap quantiles ---------------------------------
  std::cout << "E22b: " << r.recoveries
            << " token-loss recoveries (churned masters dying mid-slot); "
            << "gap p50 = " << static_cast<double>(r.recovery_p50_ps) / 1e6
            << " us, p99 = " << static_cast<double>(r.recovery_p99_ps) / 1e6
            << " us\n";
  doc.set("recoveries", static_cast<double>(r.recoveries));
  doc.set("recovery_gap_p50_us",
          static_cast<double>(r.recovery_p50_ps) / 1e6);
  doc.set("recovery_gap_p99_us",
          static_cast<double>(r.recovery_p99_ps) / 1e6);
  if (r.recovery_p50_ps > r.recovery_p99_ps) {
    std::cerr << "E22b FAIL: recovery-gap p50 exceeds p99\n";
    ok = false;
  }
  if (r.recoveries > 0 && r.recovery_p50_ps <= 0) {
    std::cerr << "E22b FAIL: recoveries happened but the gap "
                 "distribution is empty\n";
    ok = false;
  }

  // -- E22c: churn-axis sweep determinism ---------------------------------
  sweep::GridSpec spec;
  spec.node_counts = {8};
  spec.utilisations = {0.5};
  spec.churns = {0.0, 500.0};
  spec.churn_nodes = 2;
  spec.churn_down_slots = 100.0;
  spec.churn_detect_slots = kDetectWindow;
  spec.repetitions = 2;
  spec.slots = flags.quick ? 600 : 2000;
  spec.min_period_slots = 10;
  spec.max_period_slots = 120;
  spec.base_seed = 22;
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
  std::cout << "E22c: churn-axis sweep 1-thread vs 8-thread JSON: "
            << (threads_identical ? "byte-identical" : "MISMATCH")
            << "; fast-forward vs slot-by-slot JSON: "
            << (ff_identical ? "byte-identical" : "MISMATCH") << "\n";
  doc.set("threads_json_identical", threads_identical ? 1.0 : 0.0);
  doc.set("ff_json_identical", ff_identical ? 1.0 : 0.0);
  if (!threads_identical) {
    std::cerr << "E22c FAIL: churn-axis sweep output depends on thread "
                 "count\n";
    ok = false;
  }
  if (!ff_identical) {
    std::cerr << "E22c FAIL: churn-axis sweep output depends on the "
                 "fast-forward engine\n";
    ok = false;
  }

  doc.set("hardware_threads",
          static_cast<double>(std::thread::hardware_concurrency()));

  if (!flags.json_path.empty()) {
    if (!doc.write(flags.json_path)) {
      std::cerr << "bench_fault_churn: cannot write " << flags.json_path
                << "\n";
      return 1;
    }
  }
  return ok ? 0 : 1;
}
