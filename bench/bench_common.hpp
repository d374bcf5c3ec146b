// Shared helpers for the timing benches (bench_* binaries).
//
// Each binary times one engineering experiment from DESIGN.md §6 (E16,
// E17, E20, E23b), prints its tables through analysis::Table and can
// write a flat JSON metric document; EXPERIMENTS.md records the
// readings.  The correctness claims are ctest cases (`ctest -L claims`).
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

namespace ccredf::bench {

// The protocol axis lives in the sweep module (shared by the grid
// runner, the CLI and the benches).
using Protocol = sweep::Protocol;

/// A sweep-configured ring of `nodes` nodes on 10 m links.
inline net::NetworkConfig make_config(NodeId nodes, Protocol proto) {
  sweep::GridPoint point;
  point.protocol = proto;
  point.nodes = nodes;
  return sweep::make_network_config(sweep::GridSpec{}, point);
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
