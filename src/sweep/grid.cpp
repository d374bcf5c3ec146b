#include "sweep/grid.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "baseline/ccfpr.hpp"
#include "baseline/tdma.hpp"
#include "common/error.hpp"
#include "sim/rng.hpp"

namespace ccredf::sweep {

const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kCcrEdf:
      return "CCR-EDF";
    case Protocol::kCcFpr:
      return "CC-FPR";
    case Protocol::kTdma:
      return "TDMA";
  }
  return "?";
}

const char* mix_name(WorkloadMix m) {
  switch (m) {
    case WorkloadMix::kPeriodic:
      return "periodic";
    case WorkloadMix::kMixed:
      return "mixed";
    case WorkloadMix::kSaturation:
      return "saturation";
  }
  return "?";
}

const char* service_name(ServiceMix s) {
  switch (s) {
    case ServiceMix::kRtOnly:
      return "rt-only";
    case ServiceMix::kCbs:
      return "cbs";
    case ServiceMix::kCbsSaturated:
      return "cbs-saturated";
  }
  return "?";
}

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

}  // namespace

bool parse_protocol(const std::string& s, Protocol& out) {
  const std::string l = lower(s);
  if (l == "ccr-edf" || l == "ccredf" || l == "edf") {
    out = Protocol::kCcrEdf;
  } else if (l == "cc-fpr" || l == "ccfpr" || l == "fpr") {
    out = Protocol::kCcFpr;
  } else if (l == "tdma") {
    out = Protocol::kTdma;
  } else {
    return false;
  }
  return true;
}

bool parse_mix(const std::string& s, WorkloadMix& out) {
  const std::string l = lower(s);
  if (l == "periodic") {
    out = WorkloadMix::kPeriodic;
  } else if (l == "mixed") {
    out = WorkloadMix::kMixed;
  } else if (l == "saturation") {
    out = WorkloadMix::kSaturation;
  } else {
    return false;
  }
  return true;
}

bool parse_service(const std::string& s, ServiceMix& out) {
  const std::string l = lower(s);
  if (l == "rt-only" || l == "rtonly" || l == "rt") {
    out = ServiceMix::kRtOnly;
  } else if (l == "cbs") {
    out = ServiceMix::kCbs;
  } else if (l == "cbs-saturated" || l == "cbssaturated") {
    out = ServiceMix::kCbsSaturated;
  } else {
    return false;
  }
  return true;
}

std::size_t GridSpec::point_count() const {
  return protocols.size() * node_counts.size() * utilisations.size() *
         bers.size() * data_bers.size() * churns.size() *
         link_cuts.size() * mixes.size() * services.size() *
         planners.size() * set_seeds.size();
}

std::vector<GridPoint> GridSpec::expand() const {
  std::vector<GridPoint> points;
  points.reserve(point_count());
  std::size_t index = 0;
  for (const Protocol proto : protocols) {
    for (const NodeId nodes : node_counts) {
      for (const double u : utilisations) {
        for (const double ber : bers) {
          for (const double data_ber : data_bers) {
            for (const double churn : churns) {
              for (const int cuts : link_cuts) {
                for (const WorkloadMix mix : mixes) {
                  for (const ServiceMix service : services) {
                    for (const bool planner : planners) {
                      for (const std::uint64_t seed : set_seeds) {
                        GridPoint p;
                        p.index = index++;
                        p.protocol = proto;
                        p.nodes = nodes;
                        p.utilisation = u;
                        p.ber = ber;
                        p.data_ber = data_ber;
                        p.churn = churn;
                        p.link_cuts = cuts;
                        p.mix = mix;
                        p.service = service;
                        p.planner = planner;
                        p.set_seed = seed;
                        points.push_back(p);
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return points;
}

namespace {

// Every Poisson/CBS arrival gap and churn dwell is drawn from an
// exponential whose mean the shard converts to whole picoseconds, and
// Rng::exponential throws when that mean is 0.  The shortest slot extent
// a grid can describe is over 10 ns (2 nodes x 2 passthrough bits at
// 2.5 ns, Eq. 2), so these bounds keep every mean at 10 ps or more.
constexpr double kMaxRatePerExtent = 1e3;
constexpr double kMinDwellExtents = 1e-3;

bool valid_rate(double r) { return r > 0.0 && r <= kMaxRatePerExtent; }
bool valid_dwell(double d) {
  return d >= kMinDwellExtents && std::isfinite(d);
}

}  // namespace

std::string GridSpec::validate() const {
  if (protocols.empty()) return "protocols axis is empty";
  if (node_counts.empty()) return "nodes axis is empty";
  if (utilisations.empty()) return "utilisations axis is empty";
  if (mixes.empty()) return "mixes axis is empty";
  if (set_seeds.empty()) return "seeds axis is empty";
  for (const NodeId n : node_counts) {
    if (n < 2 || n > kMaxNodes) return "node count out of [2, 64]";
  }
  for (const double u : utilisations) {
    // Past-1.0 fractions are meaningful only for planner cells (the
    // hypercycle planner admits past U_max through spatial reuse); 8x
    // is the hard packing ceiling of the ring's unit segments.
    if (!(u > 0.0) || u > 8.0) return "utilisation fraction out of (0, 8]";
  }
  if (bers.empty()) return "bers axis is empty";
  for (const double b : bers) {
    if (!(b >= 0.0) || b >= 1.0) return "ber out of [0, 1)";
  }
  if (data_bers.empty()) return "data_bers axis is empty";
  for (const double b : data_bers) {
    if (!(b >= 0.0) || b >= 1.0) return "data_ber out of [0, 1)";
  }
  if (churns.empty()) return "churns axis is empty";
  for (const double c : churns) {
    if (c != 0.0 && !valid_dwell(c)) {
      return "churn mean up-dwell must be 0 or in [0.001, inf)";
    }
  }
  if (link_cuts.empty()) return "link_cuts axis is empty";
  for (const int c : link_cuts) {
    if (c < 0) return "link_cuts must be >= 0";
    // A point cannot cut more links than the smallest ring has.
    for (const NodeId n : node_counts) {
      if (c >= static_cast<int>(n)) {
        return "link_cuts must be < the smallest node count";
      }
    }
  }
  if (cut_slot < 0) return "cut_slot must be >= 0";
  if (cut_down_slots < 1) return "cut_down_slots must be >= 1";
  if (planners.empty()) return "planners axis is empty";
  if (churn_nodes < 1) return "churn_nodes must be >= 1";
  if (!valid_dwell(churn_down_slots)) {
    return "churn_down_slots must be in [0.001, inf)";
  }
  if (churn_detect_slots < 2) return "churn_detect_slots must be >= 2";
  if (repetitions < 1) return "repetitions must be >= 1";
  if (slots < 1) return "slots must be >= 1";
  if (connections_per_node < 1) return "connections_per_node must be >= 1";
  if (min_period_slots < 1 || max_period_slots < min_period_slots) {
    return "period range must satisfy 1 <= min <= max";
  }
  if (!(multicast_fraction >= 0.0 && multicast_fraction <= 1.0)) {
    return "multicast_fraction out of [0, 1]";
  }
  if (!valid_rate(background_rate)) {
    return "background_rate must be in (0, 1000]";
  }
  if (!valid_rate(saturation_rate)) {
    return "saturation_rate must be in (0, 1000]";
  }
  if (services.empty()) return "services axis is empty";
  if (cbs_flows < 1) return "cbs_flows must be >= 1";
  if (cbs_budget_slots < 1 || cbs_period_slots < cbs_budget_slots) {
    return "cbs budget/period must satisfy 1 <= Q <= T";
  }
  if (!valid_rate(cbs_rate)) return "cbs_rate must be in (0, 1000]";
  if (!valid_rate(cbs_saturation_rate)) {
    return "cbs_saturation_rate must be in (0, 1000]";
  }
  if (queue_cap < 0) return "queue_cap must be >= 0";
  if (!(link_length_m > 0.0) || !std::isfinite(link_length_m)) {
    return "link_length_m must be finite and > 0";
  }
  if (slot_payload_bytes < 0) return "payload_bytes must be >= 0";
  return "";
}

std::uint64_t workload_key(const GridPoint& p) {
  // Protocol intentionally excluded (paired comparisons across
  // protocols), and so are ber and data_ber: a BER sweep compares fault
  // levels on the SAME workload, and the injector's draws live in their
  // own stream family keyed off the shard seed.  The service axis is
  // excluded for the same reason: rt-only and cbs points must run the
  // identical RT connection set (the E21 isolation gate), and the CBS
  // arrival process draws from its own "cbs"-tagged stream family.
  // The churn axis is excluded likewise: churned and churn-free points
  // run the identical workload (the E22 containment gate compares
  // disjoint connections across churn levels), with dwells drawn from
  // the "churn"-tagged stream family.  The link_cuts axis is excluded
  // for the same reason: the E24 containment gate compares cut-disjoint
  // connections between cut and cut-free cells of the SAME workload,
  // and the cut/splice instants are deterministic scalars, not draws.
  // The planner axis is excluded too: planner-on and planner-off cells
  // must offer the identical traffic so the E23 gates compare engines,
  // not workloads.
  std::uint64_t k = sim::Rng::stream_seed(p.set_seed, p.nodes,
                                          std::bit_cast<std::uint64_t>(
                                              p.utilisation));
  k = sim::Rng::stream_seed(k, static_cast<std::uint64_t>(p.mix), 0);
  return k;
}

std::uint64_t shard_seed(const GridSpec& spec, const GridPoint& p,
                         int repetition) {
  return sim::Rng::stream_seed(spec.base_seed, workload_key(p),
                               static_cast<std::uint64_t>(repetition));
}

net::NetworkConfig make_network_config(const GridSpec& spec,
                                       const GridPoint& p) {
  net::NetworkConfig cfg;
  cfg.nodes = p.nodes;
  cfg.link_length_m = spec.link_length_m;
  cfg.slot_payload_bytes = spec.slot_payload_bytes;
  cfg.spatial_reuse = spec.spatial_reuse;
  cfg.with_frame_crc = spec.frame_crc;
  cfg.with_payload_crc = spec.payload_crc;
  // The NACK bits ride the ack field, so the payload CRC implies acks.
  if (spec.payload_crc) cfg.with_acks = true;
  // Long sweeps must stay allocation-free and memory-bounded.
  cfg.record_inboxes = false;
  cfg.max_queue_messages = static_cast<std::size_t>(spec.queue_cap);
  cfg.fast_forward = spec.fast_forward;
  cfg.planner = p.planner;
  switch (p.protocol) {
    case Protocol::kCcrEdf:
      break;  // default factory
    case Protocol::kCcFpr:
      cfg.protocol_factory = baseline::ccfpr_factory();
      break;
    case Protocol::kTdma:
      cfg.protocol_factory = baseline::tdma_factory();
      break;
  }
  return cfg;
}

// -- grid-file parsing ---------------------------------------------------

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Splits a comma list; an empty item (",," or a leading or trailing
/// comma) comes back as "" so the caller can reject it.
std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (true) {
    const auto comma = s.find(',', start);
    items.push_back(trim(s.substr(start, comma - start)));
    if (comma == std::string::npos) return items;
    start = comma + 1;
  }
}

bool parse_i64(const std::string& s, std::int64_t& out) {
  try {
    std::size_t pos = 0;
    out = std::stoll(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

/// An int-typed grid field: the value must fit before it is narrowed.
bool parse_int(const std::string& s, int& out) {
  std::int64_t v = 0;
  if (!parse_i64(s, v) || v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  // std::stoull accepts a sign and wraps "-1" to 2^64 - 1.
  if (s.empty() || std::isdigit(static_cast<unsigned char>(s[0])) == 0) {
    return false;
  }
  try {
    std::size_t pos = 0;
    out = std::stoull(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

bool parse_f64(const std::string& s, double& out) {
  try {
    std::size_t pos = 0;
    out = std::stod(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

bool parse_flag(const std::string& s, bool& out) {
  const std::string l = lower(s);
  if (l == "true" || l == "on" || l == "1") {
    out = true;
  } else if (l == "false" || l == "off" || l == "0") {
    out = false;
  } else {
    return false;
  }
  return true;
}

}  // namespace

bool parse_grid(const std::string& text, GridSpec& spec,
                std::string& error) {
  GridSpec out = spec;
  std::stringstream ss(text);
  std::string line;
  int lineno = 0;
  const auto fail = [&](const std::string& what) {
    std::ostringstream os;
    os << "line " << lineno << ": " << what;
    error = os.str();
    return false;
  };
  while (std::getline(ss, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) return fail("expected `key = value`");
    const std::string key = lower(trim(line.substr(0, eq)));
    const std::string value = trim(line.substr(eq + 1));
    if (value.empty()) return fail("empty value for `" + key + "`");
    const std::vector<std::string> items = split_list(value);
    for (const auto& it : items) {
      if (it.empty()) return fail("empty item in `" + key + "`");
    }

    if (key == "protocols") {
      out.protocols.clear();
      for (const auto& it : items) {
        Protocol p;
        if (!parse_protocol(it, p)) {
          return fail("unknown protocol `" + it + "`");
        }
        out.protocols.push_back(p);
      }
    } else if (key == "nodes") {
      out.node_counts.clear();
      for (const auto& it : items) {
        std::int64_t n;
        if (!parse_i64(it, n) || n < 2 ||
            n > static_cast<std::int64_t>(kMaxNodes)) {
          return fail("bad node count `" + it + "`");
        }
        out.node_counts.push_back(static_cast<NodeId>(n));
      }
    } else if (key == "utilisations") {
      out.utilisations.clear();
      for (const auto& it : items) {
        double u;
        if (!parse_f64(it, u)) return fail("bad utilisation `" + it + "`");
        out.utilisations.push_back(u);
      }
    } else if (key == "bers") {
      out.bers.clear();
      for (const auto& it : items) {
        double b;
        if (!parse_f64(it, b) || !(b >= 0.0) || b >= 1.0) {
          return fail("bad ber `" + it + "`");
        }
        out.bers.push_back(b);
      }
    } else if (key == "data_bers") {
      out.data_bers.clear();
      for (const auto& it : items) {
        double b;
        if (!parse_f64(it, b) || !(b >= 0.0) || b >= 1.0) {
          return fail("bad data_ber `" + it + "`");
        }
        out.data_bers.push_back(b);
      }
    } else if (key == "churns") {
      out.churns.clear();
      for (const auto& it : items) {
        double c;
        if (!parse_f64(it, c) || !(c >= 0.0)) {
          return fail("bad churn `" + it + "`");
        }
        out.churns.push_back(c);
      }
    } else if (key == "link_cuts") {
      out.link_cuts.clear();
      for (const auto& it : items) {
        int c;
        if (!parse_int(it, c) || c < 0) {
          return fail("bad link_cuts `" + it + "`");
        }
        out.link_cuts.push_back(c);
      }
    } else if (key == "mixes") {
      out.mixes.clear();
      for (const auto& it : items) {
        WorkloadMix m;
        if (!parse_mix(it, m)) return fail("unknown mix `" + it + "`");
        out.mixes.push_back(m);
      }
    } else if (key == "services" || key == "service_classes") {
      out.services.clear();
      for (const auto& it : items) {
        ServiceMix s;
        if (!parse_service(it, s)) {
          return fail("unknown service class `" + it + "`");
        }
        out.services.push_back(s);
      }
    } else if (key == "planners") {
      out.planners.clear();
      for (const auto& it : items) {
        bool b;
        if (!parse_flag(it, b)) return fail("bad planner flag `" + it + "`");
        out.planners.push_back(b);
      }
    } else if (key == "seeds") {
      out.set_seeds.clear();
      for (const auto& it : items) {
        std::uint64_t s;
        if (!parse_u64(it, s)) return fail("bad seed `" + it + "`");
        out.set_seeds.push_back(s);
      }
    } else {
      // Scalar keys take exactly one value.
      if (items.size() != 1) return fail("`" + key + "` takes one value");
      const std::string& it = items[0];
      std::int64_t i = 0;
      int n = 0;
      double f = 0.0;
      if (key == "repetitions") {
        if (!parse_int(it, n) || n < 1) return fail("bad repetitions");
        out.repetitions = n;
      } else if (key == "slots") {
        if (!parse_i64(it, i) || i < 1) return fail("bad slots");
        out.slots = i;
      } else if (key == "connections_per_node") {
        if (!parse_int(it, n) || n < 1) {
          return fail("bad connections_per_node");
        }
        out.connections_per_node = n;
      } else if (key == "min_period_slots") {
        if (!parse_i64(it, i) || i < 1) return fail("bad min_period_slots");
        out.min_period_slots = i;
      } else if (key == "max_period_slots") {
        if (!parse_i64(it, i) || i < 1) return fail("bad max_period_slots");
        out.max_period_slots = i;
      } else if (key == "multicast_fraction") {
        if (!parse_f64(it, f)) return fail("bad multicast_fraction");
        out.multicast_fraction = f;
      } else if (key == "background_rate") {
        if (!parse_f64(it, f)) return fail("bad background_rate");
        out.background_rate = f;
      } else if (key == "saturation_rate") {
        if (!parse_f64(it, f)) return fail("bad saturation_rate");
        out.saturation_rate = f;
      } else if (key == "cbs_flows") {
        if (!parse_int(it, n) || n < 1) return fail("bad cbs_flows");
        out.cbs_flows = n;
      } else if (key == "cbs_budget_slots") {
        if (!parse_i64(it, i) || i < 1) return fail("bad cbs_budget_slots");
        out.cbs_budget_slots = i;
      } else if (key == "cbs_period_slots") {
        if (!parse_i64(it, i) || i < 1) return fail("bad cbs_period_slots");
        out.cbs_period_slots = i;
      } else if (key == "cbs_rate") {
        if (!parse_f64(it, f)) return fail("bad cbs_rate");
        out.cbs_rate = f;
      } else if (key == "cbs_saturation_rate") {
        if (!parse_f64(it, f)) return fail("bad cbs_saturation_rate");
        out.cbs_saturation_rate = f;
      } else if (key == "churn_nodes") {
        if (!parse_int(it, n) || n < 1) return fail("bad churn_nodes");
        out.churn_nodes = n;
      } else if (key == "churn_down_slots") {
        if (!parse_f64(it, f) || !(f > 0.0)) {
          return fail("bad churn_down_slots");
        }
        out.churn_down_slots = f;
      } else if (key == "churn_detect_slots") {
        if (!parse_i64(it, i) || i < 2) return fail("bad churn_detect_slots");
        out.churn_detect_slots = i;
      } else if (key == "cut_slot") {
        if (!parse_i64(it, i) || i < 0) return fail("bad cut_slot");
        out.cut_slot = i;
      } else if (key == "cut_down_slots") {
        if (!parse_i64(it, i) || i < 1) return fail("bad cut_down_slots");
        out.cut_down_slots = i;
      } else if (key == "queue_cap") {
        if (!parse_i64(it, i) || i < 0) return fail("bad queue_cap");
        out.queue_cap = i;
      } else if (key == "link_length_m") {
        if (!parse_f64(it, f)) return fail("bad link_length_m");
        out.link_length_m = f;
      } else if (key == "payload_bytes") {
        if (!parse_i64(it, i) || i < 0) return fail("bad payload_bytes");
        out.slot_payload_bytes = i;
      } else if (key == "spatial_reuse") {
        bool b;
        if (!parse_flag(it, b)) return fail("bad spatial_reuse");
        out.spatial_reuse = b;
      } else if (key == "frame_crc") {
        bool b;
        if (!parse_flag(it, b)) return fail("bad frame_crc");
        out.frame_crc = b;
      } else if (key == "payload_crc") {
        bool b;
        if (!parse_flag(it, b)) return fail("bad payload_crc");
        out.payload_crc = b;
      } else if (key == "fast_forward") {
        bool b;
        if (!parse_flag(it, b)) return fail("bad fast_forward");
        out.fast_forward = b;
      } else if (key == "base_seed") {
        std::uint64_t s;
        if (!parse_u64(it, s)) return fail("bad base_seed");
        out.base_seed = s;
      } else {
        return fail("unknown key `" + key + "`");
      }
    }
  }
  const std::string invalid = out.validate();
  if (!invalid.empty()) {
    error = invalid;
    return false;
  }
  spec = out;
  error.clear();
  return true;
}

bool load_grid_file(const std::string& path, GridSpec& spec,
                    std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open grid file `" + path + "`";
    return false;
  }
  std::ostringstream os;
  os << in.rdbuf();
  if (!parse_grid(os.str(), spec, error)) {
    error = path + ": " + error;
    return false;
  }
  return true;
}

}  // namespace ccredf::sweep
