// E19: data-channel fault model with deadline-aware end-to-end
// reliability and graceful degradation (paper section 1's reliable
// user service meeting section 8's fault-tolerance sketch).
//
// E19a  deadline-miss ratio of three reliability strategies under the
//       same data-channel BER and the same transfer schedule:
//         crc_arq  -- payload CRC-32 + NACK wire + laxity-budgeted ARQ
//                     (retransmissions re-enter EDF at their true
//                     remaining laxity; hopeless transfers abandoned);
//         fixed    -- payload CRC-32 + NACK wire, but fixed retries at
//                     the original relative deadline until the attempt
//                     cap (the classical timeout-ARQ baseline);
//         nocrc    -- no payload CRC: corruption is delivered as
//                     garbage, which counts as a miss (the transfer
//                     carried the wrong bits to the application).
//       The bench FAILS (exit 1) unless crc_arq's miss ratio is
//       strictly below both baselines.
// E19b  undetected-corruption count at BER 1e-6 with the CRC on: the
//       2^-32 residual must not fire at these exposures (exit 1 if it
//       does).
// E19c  graceful degradation: the AdmissionAgent health monitor derates
//       the admission bound as the measured corruption rate rises; the
//       capacity factor must be monotonically non-increasing along the
//       BER axis (exit 1 otherwise).
// E19d  determinism: a data-BER sweep grid run with 1 and 8 worker
//       threads must serialise to byte-identical JSON (exit 1 otherwise).
//
// Flags: --quick (short windows), --json <path>
// (BENCH_data_reliability.json).
#include "bench_common.hpp"

#include <algorithm>

#include "fault/injector.hpp"
#include "services/admission_agent.hpp"
#include "services/reliable.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"

using namespace ccredf;
using namespace ccredf::bench;

namespace {

struct StrategyResult {
  std::int64_t total = 0;
  std::int64_t met = 0;       // delivered intact, on or before deadline
  std::int64_t garbage = 0;   // delivered corrupted (nocrc only)
  std::int64_t abandoned = 0;
  std::int64_t retx = 0;
  std::int64_t nacks = 0;
  double miss_ratio = 1.0;
};

/// One strategy run: every node streams reliable transfers with tight
/// deadlines over a ring whose data fibres flip bits at `data_ber`.
/// All data traffic is reliable transfers, so every undetected payload
/// corruption maps one-to-one to a transfer delivered as garbage.
StrategyResult run_strategy(bool payload_crc, bool laxity_budgeted,
                            double data_ber,
                            std::int64_t transfers_per_node) {
  auto cfg = make_config(8, Protocol::kCcrEdf);
  cfg.with_acks = true;
  cfg.with_payload_crc = payload_crc;
  net::Network n(cfg);
  fault::FaultInjector inj(n, 31);
  if (data_ber > 0.0) inj.set_data_ber(data_ber);

  services::ReliableChannel::Params rp;
  rp.max_attempts = 8;
  rp.laxity_budgeted = laxity_budgeted;
  services::ReliableChannel ch(n, rp);

  // Tight regime: the deadline covers the first attempt plus roughly one
  // retransmission round, and the offered load keeps every slot
  // contended -- so WHERE a retry enters the EDF order decides whether
  // it lands in time, and hopeless repeats burn slots others need.
  const sim::Duration extent = n.timing().slot_plus_max_gap();
  constexpr std::int64_t kPeriodSlots = 10;
  constexpr std::int64_t kDeadlineSlots = 14;
  constexpr std::int64_t kSizeSlots = 2;

  StrategyResult res;
  for (NodeId src = 0; src < n.nodes(); ++src) {
    const NodeId dst = static_cast<NodeId>((src + 3) % n.nodes());
    for (std::int64_t k = 0; k < transfers_per_node; ++k) {
      const sim::TimePoint at =
          sim::TimePoint::origin() +
          extent * (5 + static_cast<std::int64_t>(src) + k * kPeriodSlots);
      n.sim().schedule_at(at, [&res, &ch, &n, src, dst, extent] {
        ++res.total;
        ch.send(src, dst, kSizeSlots, extent * kDeadlineSlots,
                [&res](const services::ReliableChannel::TransferResult& r) {
                  if (r.delivered && r.completed <= r.deadline) ++res.met;
                });
        (void)n;
      });
    }
  }

  // Horizon in wall time (worst-case slot extents): the send schedule is
  // keyed to wall-clock instants, so a wall horizon guarantees every
  // strategy fires the identical transfer set regardless of how its
  // retransmission load shifts the hand-over gaps.
  const std::int64_t horizon =
      transfers_per_node * kPeriodSlots + 8 + 200;  // drain tail
  n.run_for(extent * horizon);

  res.garbage = n.stats().faults.payload_undetected;
  res.abandoned = ch.transfers_abandoned();
  res.retx = ch.retransmissions();
  res.nacks = ch.nacks_received();
  // A garbage delivery "met" its deadline at the service layer but
  // carried the wrong bits -- subtract it from the successes.
  const std::int64_t effective_met =
      std::max<std::int64_t>(0, res.met - res.garbage);
  res.miss_ratio =
      res.total == 0
          ? 1.0
          : 1.0 - static_cast<double>(effective_met) /
                      static_cast<double>(res.total);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = parse_flags(argc, argv);
  JsonDoc doc("data_reliability");
  bool ok = true;

  header("E19", "data-channel faults, laxity-budgeted ARQ and graceful "
                "degradation",
         "Section 1 (reliable user service) + Section 8 (fault handling)");

  // -- E19a: strategy comparison at a fixed data BER ----------------------
  // ~340-byte slots over ~3 links: 3e-5 corrupts roughly one transfer in
  // three -- enough retransmission pressure to separate the strategies
  // without collapsing the ring.
  const double kBer = 3e-5;
  const std::int64_t per_node = flags.quick ? 60 : 200;
  const StrategyResult arq = run_strategy(true, true, kBer, per_node);
  const StrategyResult fixed = run_strategy(true, false, kBer, per_node);
  const StrategyResult nocrc = run_strategy(false, true, kBer, per_node);

  analysis::Table a(
      "E19a: deadline-miss ratio by reliability strategy (8 nodes, data "
      "BER 3e-5, tight deadlines, identical transfer schedule)");
  a.columns({"strategy", "transfers", "met", "garbage", "NACKs", "retx",
             "abandoned", "miss ratio"});
  const auto arow = [&a](const char* name, const StrategyResult& r) {
    a.row()
        .cell(name)
        .cell(r.total)
        .cell(r.met)
        .cell(r.garbage)
        .cell(r.nacks)
        .cell(r.retx)
        .cell(r.abandoned)
        .pct(r.miss_ratio, 2);
  };
  arow("crc + laxity ARQ", arq);
  arow("crc + fixed retry", fixed);
  arow("no crc", nocrc);
  a.note("laxity budgeting beats fixed retries by abandoning hopeless "
         "transfers (freeing their slots) and re-entering EDF at the true "
         "tighter laxity; without the CRC, corruption is silent garbage "
         "-- a miss the application cannot even see");
  a.print(std::cout);

  doc.set("arq_miss_ratio", arq.miss_ratio);
  doc.set("fixed_miss_ratio", fixed.miss_ratio);
  doc.set("nocrc_miss_ratio", nocrc.miss_ratio);
  doc.set("arq_abandoned", static_cast<double>(arq.abandoned));
  doc.set("arq_nacks", static_cast<double>(arq.nacks));
  doc.set("arq_retx", static_cast<double>(arq.retx));
  doc.set("fixed_retx", static_cast<double>(fixed.retx));
  doc.set("nocrc_garbage", static_cast<double>(nocrc.garbage));
  if (!(arq.miss_ratio < fixed.miss_ratio &&
        arq.miss_ratio < nocrc.miss_ratio)) {
    std::cerr << "E19a FAIL: crc+laxity-ARQ miss ratio not strictly below "
                 "both baselines\n";
    ok = false;
  }

  // -- E19b: no undetected corruption at realistic BER --------------------
  const StrategyResult low =
      run_strategy(true, true, 1e-6, flags.quick ? 60 : 200);
  std::cout << "E19b: BER 1e-6 with payload CRC: "
            << low.garbage << " undetected corruptions ("
            << low.nacks << " detected+NACKed)\n\n";
  doc.set("low_ber_undetected", static_cast<double>(low.garbage));
  doc.set("low_ber_nacks", static_cast<double>(low.nacks));
  if (low.garbage != 0) {
    std::cerr << "E19b FAIL: undetected payload corruption at BER 1e-6\n";
    ok = false;
  }

  // -- E19c: graceful degradation of the admission bound ------------------
  const std::int64_t e19c_slots = flags.quick ? 3'000 : 8'000;
  analysis::Table c(
      "E19c: health-monitor derating vs data-channel BER (8 nodes, "
      "admitted load 0.5 U_max, payload CRC on)");
  c.columns({"data BER", "corrupt", "observed rate", "renegotiations",
             "capacity factor", "effective U_max"});
  const BerCase derate_cases[] = {{0.0, "ber0"},
                                  {1e-5, "ber1e5"},
                                  {5e-5, "ber5e5"},
                                  {2e-4, "ber2e4"}};
  double prev_factor = 1.0;
  bool monotone = true;
  for (const auto& [ber, label] : derate_cases) {
    auto cfg = make_config(8, Protocol::kCcrEdf);
    cfg.with_acks = true;
    cfg.with_payload_crc = true;
    net::Network n(cfg);
    fault::FaultInjector inj(n, 47);
    if (ber > 0.0) inj.set_data_ber(ber);
    services::AdmissionAgent::Params ap;
    ap.health_window_slots = 500;
    ap.derate_threshold = 0.005;
    services::AdmissionAgent agent(n, ap);
    open_all(n, workload::make_periodic_set(fault_workload(n)));
    n.run_slots(e19c_slots);
    c.row()
        .cell(ber, 6)
        .cell(n.stats().faults.payload_corruptions)
        .pct(agent.observed_corruption_rate(), 2)
        .cell(agent.renegotiations())
        .cell(agent.capacity_factor(), 4)
        .cell(n.admission().effective_u_max(), 4);
    doc.set(std::string("derate_") + label + "_factor",
            agent.capacity_factor());
    doc.set(std::string("derate_") + label + "_effective_umax",
            n.admission().effective_u_max());
    if (agent.capacity_factor() > prev_factor) monotone = false;
    prev_factor = agent.capacity_factor();
  }
  c.note("each corrupted transfer returns as a retransmission, so the "
         "monitor derates U_max by the measured corruption rate -- the "
         "ring sheds admission capacity instead of silently missing "
         "deadlines in degraded mode");
  c.print(std::cout);
  doc.set("derate_monotone", monotone ? 1.0 : 0.0);
  if (!monotone) {
    std::cerr << "E19c FAIL: capacity factor not monotone along the BER "
                 "axis\n";
    ok = false;
  }

  // -- E19d: thread-count determinism of the data-BER fault axis ----------
  sweep::GridSpec spec;
  spec.node_counts = {8};
  spec.utilisations = {0.5};
  spec.data_bers = {0.0, 2e-4};
  spec.payload_crc = true;
  spec.mixes = {sweep::WorkloadMix::kPeriodic};
  spec.repetitions = 2;
  spec.slots = flags.quick ? 400 : 1200;
  spec.min_period_slots = 10;
  spec.max_period_slots = 120;
  spec.base_seed = 19;
  const std::string json_1t =
      sweep::to_json(sweep::run_sweep(spec, {.threads = 1}));
  const std::string json_8t =
      sweep::to_json(sweep::run_sweep(spec, {.threads = 8}));
  const bool identical = json_1t == json_8t;
  std::cout << "E19d: data-BER sweep 1-thread vs 8-thread JSON: "
            << (identical ? "byte-identical" : "MISMATCH") << "\n";
  doc.set("threads_json_identical", identical ? 1.0 : 0.0);
  if (!identical) {
    std::cerr << "E19d FAIL: sweep output depends on thread count\n";
    ok = false;
  }

  if (!flags.json_path.empty()) {
    if (!doc.write(flags.json_path)) {
      std::cerr << "bench_data_reliability: cannot write " << flags.json_path
                << "\n";
      return 1;
    }
  }
  return ok ? 0 : 1;
}
