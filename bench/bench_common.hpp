// Shared helpers for the gated experiment benches (bench_* binaries).
//
// Each binary runs one experiment from DESIGN.md §6, prints its tables
// through analysis::Table and exits 1 when one of its gates fails;
// EXPERIMENTS.md records prediction vs measurement.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/json_writer.hpp"
#include "analysis/report.hpp"
#include "net/network.hpp"
#include "sweep/grid.hpp"
#include "workload/periodic.hpp"
#include "workload/poisson.hpp"

namespace ccredf::bench {

// The protocol axis lives in the sweep module now (shared by the grid
// runner, the CLI and the benches).
using Protocol = sweep::Protocol;
using sweep::protocol_name;

inline net::NetworkConfig make_config(NodeId nodes, Protocol proto,
                                      double link_length_m = 10.0,
                                      std::int64_t payload = 0) {
  sweep::GridSpec spec;
  spec.link_length_m = link_length_m;
  spec.slot_payload_bytes = payload;
  sweep::GridPoint point;
  point.protocol = proto;
  point.nodes = nodes;
  net::NetworkConfig cfg = sweep::make_network_config(spec, point);
  // Benches drain inboxes in places; keep the library default.
  cfg.record_inboxes = true;
  return cfg;
}

/// Opens every connection of a periodic set; returns how many admitted.
inline int open_all(net::Network& n,
                    const std::vector<core::ConnectionParams>& set) {
  int admitted = 0;
  for (const auto& c : set) {
    if (n.open_connection(c).admitted) ++admitted;
  }
  return admitted;
}

// ---- fault-sweep scaffolding (bench_fault_recovery, E19) ---------------

/// One cell of a fault-rate sweep: the injected rate and the fragment
/// naming it in JSON keys.
struct BerCase {
  double ber;
  const char* label;
};

/// The canonical fault-experiment workload: tight deadlines (a few
/// slots), so one recovery stall or retransmission round trip overruns
/// them and faults translate directly into misses.
inline workload::PeriodicSetParams fault_workload(const net::Network& n,
                                                  double load = 0.5) {
  workload::PeriodicSetParams wp;
  wp.nodes = n.nodes();
  wp.connections = 12;
  wp.total_utilisation = load * n.timing().u_max();
  wp.min_period_slots = 8;
  wp.max_period_slots = 40;
  wp.seed = 3;
  return wp;
}

inline void header(const std::string& id, const std::string& title,
                   const std::string& paper_ref) {
  std::cout << "\n######## " << id << ": " << title << "\n"
            << "# paper artefact: " << paper_ref << "\n\n";
}

// ---- command line ------------------------------------------------------

/// The flags every bench takes: `--quick` (short windows) and
/// `--json <path>` (write the metric document), plus any bench-specific
/// switches named in `extra` (see Flags::has).  An unknown flag, or a
/// `--json` without a path, prints the usage line and exits 2.
struct Flags {
  bool quick = false;
  std::string json_path;  ///< "" when --json is absent
  std::vector<std::string_view> switches;  ///< the `extra` ones given

  [[nodiscard]] bool has(std::string_view flag) const {
    return std::find(switches.begin(), switches.end(), flag) !=
           switches.end();
  }
};

inline Flags parse_flags(int argc, char** argv,
                         std::initializer_list<std::string_view> extra = {}) {
  const auto usage_error = [&](const std::string& problem) {
    std::cerr << argv[0] << ": " << problem << "\nusage: " << argv[0]
              << " [--quick] [--json <path>]";
    for (const std::string_view e : extra) std::cerr << " [" << e << "]";
    std::cerr << "\n";
    std::exit(2);
  };
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      flags.quick = true;
    } else if (arg == "--json") {
      if (i + 1 == argc || argv[i + 1][0] == '\0') {
        usage_error("--json needs a value");
      }
      flags.json_path = argv[++i];
    } else if (std::find(extra.begin(), extra.end(), arg) != extra.end()) {
      flags.switches.push_back(arg);
    } else {
      usage_error("unknown flag: " + std::string(arg));
    }
  }
  return flags;
}

// ---- machine-readable output (--json <path>) ---------------------------
//
// `{"bench": <name>, "metrics": {...}}`, so CI and later changes can diff
// the numbers run over run.

/// Flat metric document; insertion order is preserved in the output.
class JsonDoc {
 public:
  explicit JsonDoc(std::string bench_name) : name_(std::move(bench_name)) {}

  void set(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  [[nodiscard]] std::string str() const {
    std::ostringstream os;
    analysis::JsonWriter w(os);
    w.begin_object().key("bench").value(name_).key("metrics").begin_object();
    for (const auto& [key, value] : metrics_) w.key(key).value(value);
    w.end_object().end_object();
    os << '\n';
    return os.str();
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << str();
    return static_cast<bool>(out);
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace ccredf::bench
