// Shared helpers for the experiment harness (bench_* binaries).
//
// Each binary reproduces one experiment from DESIGN.md §6 and prints the
// paper-style table/series through analysis::Table; EXPERIMENTS.md records
// prediction vs measurement.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/json_writer.hpp"
#include "analysis/report.hpp"
#include "baseline/ccfpr.hpp"
#include "baseline/tdma.hpp"
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

/// Result digest used by several experiments.
struct RunDigest {
  std::int64_t rt_delivered = 0;
  double rt_sched_miss = 0.0;
  double rt_user_miss = 0.0;
  std::int64_t inversions = 0;
  double mean_latency_us = 0.0;
  double slot_fraction = 0.0;
  double goodput_bps = 0.0;
  double grants_per_busy_slot = 0.0;
};

inline RunDigest digest(const net::Network& n) {
  RunDigest d;
  const auto& rt = n.stats().cls(core::TrafficClass::kRealTime);
  d.rt_delivered = rt.delivered;
  d.rt_sched_miss = rt.scheduling_miss_ratio();
  d.rt_user_miss = rt.user_miss_ratio();
  d.inversions = n.stats().priority_inversions;
  d.mean_latency_us = rt.latency.mean() / 1e6;
  d.slot_fraction = n.stats().slot_time_fraction();
  d.goodput_bps = n.stats().goodput_bps();
  d.grants_per_busy_slot = n.stats().mean_grants_per_busy_slot();
  return d;
}

inline void header(const std::string& id, const std::string& title,
                   const std::string& paper_ref) {
  std::cout << "\n######## " << id << ": " << title << "\n"
            << "# paper artefact: " << paper_ref << "\n\n";
}

// ---- machine-readable output (--json <path>) ---------------------------
//
// Benches that support it write `{"bench": <name>, "metrics": {...}}` so
// CI and later PRs can diff performance numbers run over run.

/// Consumes a `--json <path>` argument pair from argv (compacting it) and
/// returns the path, or "" when the flag is absent.
inline std::string extract_json_path(int& argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      path = argv[++i];
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return path;
}

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
