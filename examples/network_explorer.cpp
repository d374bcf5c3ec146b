// Command-line network explorer: run any configuration without writing
// code.  The seventh example doubles as the "downstream user" tool.
//
//   $ ./examples/network_explorer --nodes 16 --protocol ccfpr
//         --load 0.7 --slots 5000 --link-m 25 --seed 9  (one line)
//   $ ./examples/network_explorer --help
//
// Exit status: 0 after a run or --help, 2 on a usage or configuration
// error (reported on stderr).
#include <charconv>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <system_error>

#include "analysis/report.hpp"
#include "baseline/ccfpr.hpp"
#include "baseline/tdma.hpp"
#include "common/error.hpp"
#include "net/network.hpp"
#include "workload/periodic.hpp"
#include "workload/poisson.hpp"

using namespace ccredf;

namespace {

struct Options {
  NodeId nodes = 8;
  std::string protocol = "ccredf";
  double load = 0.5;        // fraction of U_max as periodic RT traffic
  double be_rate = 0.1;     // Poisson best-effort msgs/slot/node
  std::int64_t slots = 5000;
  double link_m = 10.0;
  std::int64_t payload = 0;  // 0 = auto
  std::uint64_t seed = 1;
  bool reuse = true;
  bool trace = false;
};

void usage(std::ostream& os) {
  os << "network_explorer -- run a CCR-EDF ring from the command line\n"
        "  --nodes N        ring size, 2..64                    [8]\n"
        "  --protocol P     ccredf | ccfpr | tdma               [ccredf]\n"
        "  --load F         RT load / U_max, 0..10              [0.5]\n"
        "  --be-rate R      best-effort msgs/slot/node, 0..64   [0.1]\n"
        "  --slots S        slots to simulate, 1..1e9           [5000]\n"
        "  --link-m L       link length in metres, 0..1e4       [10]\n"
        "  --payload B      slot payload bytes, 0..1e6 (0=auto) [0]\n"
        "  --seed X         workload seed                       [1]\n"
        "  --no-reuse       disable spatial reuse\n"
        "  --trace          print per-slot trace\n";
}

/// Parses all of `text` as a number in [lo, hi] -- no sign wrap, no
/// trailing characters, no NaN -- and reports a bad value on stderr.
template <typename T>
bool parse_number(const std::string& flag, const char* text, T lo, T hi,
                  T& out) {
  const char* end = text + std::strlen(text);
  T v{};
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || ptr != end || !(v >= lo && v <= hi)) {
    std::cerr << "network_explorer: " << flag << " wants a value in [" << lo
              << ", " << hi << "], got '" << text << "'\n";
    return false;
  }
  out = v;
  return true;
}

enum class Parsed { kRun, kHelp, kError };

Parsed parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 < argc) return argv[++i];
      std::cerr << "network_explorer: " << a << " needs a value\n";
      return nullptr;
    };
    auto number = [&](auto lo, auto hi, auto& out) {
      const char* v = next();
      return v != nullptr && parse_number(a, v, lo, hi, out);
    };
    bool ok = true;
    if (a == "--help" || a == "-h") {
      usage(std::cout);
      return Parsed::kHelp;
    } else if (a == "--nodes") {
      ok = number(NodeId{2}, kMaxNodes, o.nodes);
    } else if (a == "--protocol") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) o.protocol = v;
    } else if (a == "--load") {
      ok = number(0.0, 10.0, o.load);
    } else if (a == "--be-rate") {
      ok = number(0.0, 64.0, o.be_rate);
    } else if (a == "--slots") {
      ok = number(std::int64_t{1}, std::int64_t{1'000'000'000}, o.slots);
    } else if (a == "--link-m") {
      ok = number(0.0, 1e4, o.link_m);
    } else if (a == "--payload") {
      ok = number(std::int64_t{0}, std::int64_t{1'000'000}, o.payload);
    } else if (a == "--seed") {
      ok = number(std::uint64_t{0}, std::numeric_limits<std::uint64_t>::max(),
                  o.seed);
    } else if (a == "--no-reuse") {
      o.reuse = false;
    } else if (a == "--trace") {
      o.trace = true;
    } else {
      std::cerr << "network_explorer: unknown flag: " << a << "\n";
      usage(std::cerr);
      ok = false;
    }
    if (!ok) return Parsed::kError;
  }
  return Parsed::kRun;
}

int run(const Options& o) {
  net::NetworkConfig cfg;
  cfg.nodes = o.nodes;
  cfg.link_length_m = o.link_m;
  cfg.slot_payload_bytes = o.payload;
  cfg.spatial_reuse = o.reuse;
  if (o.protocol == "ccfpr") {
    cfg.protocol_factory = baseline::ccfpr_factory();
  } else if (o.protocol == "tdma") {
    cfg.protocol_factory = baseline::tdma_factory();
  } else if (o.protocol != "ccredf") {
    std::cerr << "network_explorer: unknown protocol: " << o.protocol << "\n";
    return 2;
  }

  net::Network n(cfg);
  if (o.trace) {
    n.add_slot_observer([](const net::SlotRecord& rec) {
      std::cout << rec.start << " [slot] slot " << rec.index
                << " master=" << rec.master
                << " granted=" << rec.granted.size()
                << " next=" << rec.next_master
                << " gap=" << rec.gap_after.ns() << "ns\n";
    });
  }

  std::cout << "protocol " << n.protocol().name() << ", " << o.nodes
            << " nodes, " << o.link_m << " m links, payload "
            << n.timing().payload_bytes() << " B, t_slot "
            << n.timing().slot().ns() << " ns, U_max "
            << n.timing().u_max() << "\n";

  if (o.load > 0.0) {
    workload::PeriodicSetParams wp;
    wp.nodes = o.nodes;
    wp.connections = static_cast<int>(o.nodes) * 2;
    wp.total_utilisation = o.load * n.timing().u_max();
    wp.seed = o.seed;
    const auto set = workload::make_periodic_set(wp);
    int admitted = 0;
    for (const auto& c : set) {
      if (n.open_connection(c).admitted) ++admitted;
    }
    std::cout << "periodic RT: " << admitted << "/" << set.size()
              << " connections admitted (u="
              << n.admission().utilisation() << ")\n";
  }
  std::unique_ptr<workload::PoissonGenerator> gen;
  if (o.be_rate > 0.0) {
    workload::PoissonParams p;
    p.rate_per_node = o.be_rate;
    p.seed = o.seed + 1;
    gen = std::make_unique<workload::PoissonGenerator>(
        n, p, sim::TimePoint::origin() + n.timing().slot() * o.slots);
  }

  n.run_slots(o.slots);

  analysis::Table t("Run summary");
  t.columns({"metric", "value"});
  const auto& s = n.stats();
  const auto& rt = s.cls(core::TrafficClass::kRealTime);
  const auto& be = s.cls(core::TrafficClass::kBestEffort);
  t.row().cell("slots").cell(s.slots);
  t.row().cell("busy slots").cell(s.busy_slots);
  t.row().cell("grants / busy slot").cell(s.mean_grants_per_busy_slot(), 2);
  t.row().cell("slot-time fraction").cell(s.slot_time_fraction(), 4);
  t.row().cell("goodput").cell(analysis::format_si(s.goodput_bps(),
                                                   "bit/s"));
  t.row().cell("RT delivered").cell(rt.delivered);
  t.row().cell("RT user misses").cell(rt.user_misses);
  t.row().cell("BE delivered").cell(be.delivered);
  t.row().cell("BE sched-miss ratio").pct(be.scheduling_miss_ratio(), 2);
  t.row().cell("priority inversions").cell(s.priority_inversions);
  t.row().cell("mean handover hops").cell(s.handover_hops.mean(), 2);
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  const Parsed parsed = parse(argc, argv, o);
  if (parsed != Parsed::kRun) return parsed == Parsed::kHelp ? 0 : 2;
  try {
    return run(o);
  } catch (const ConfigError& e) {
    std::cerr << "network_explorer: " << e.what() << "\n";
    return 2;
  }
}
