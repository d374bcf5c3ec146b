#include "sweep/grid.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <variant>

#include "analysis/json_writer.hpp"
#include "baseline/ccfpr.hpp"
#include "baseline/tdma.hpp"
#include "common/error.hpp"
#include "net/network.hpp"
#include "sim/rng.hpp"

namespace ccredf::sweep {

namespace {

/// The spellings of one enum, indexed by enumerator value.
struct Names {
  const char* noun;  // "unknown <noun>" in parse errors
  std::array<const char*, 3> of;
};

constexpr Names kProtocolNames{"protocol", {"CCR-EDF", "CC-FPR", "TDMA"}};
constexpr Names kMixNames{"mix", {"periodic", "mixed", "saturation"}};
constexpr Names kServiceNames{"service class",
                              {"rt-only", "cbs", "cbs-saturated"}};

const Names& names(Protocol) { return kProtocolNames; }
const Names& names(WorkloadMix) { return kMixNames; }
const Names& names(ServiceMix) { return kServiceNames; }

template <class E>
const char* name_of(E e) {
  return names(e).of[static_cast<std::size_t>(e)];
}

}  // namespace

const char* protocol_name(Protocol p) { return name_of(p); }
const char* mix_name(WorkloadMix m) { return name_of(m); }
const char* service_name(ServiceMix s) { return name_of(s); }

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

// At the other end, the longest extent a grid can describe is under
// 6.4e9 ps (64 nodes on kMaxLinkLengthM links, default payload), and a
// shard multiplies slot counts, periods and mean gaps by it.  A run of
// kMaxSlots slots, each stretched to five extents by a token-loss
// recovery, ends before 3.2e18 ps, and a period plus a deadline past
// that adds kMaxLeadPs.  Cut and splice instants stay under kMaxLeadPs.
// Arrivals and dwells are drawn only before the nominal horizon
// (6.4e17 ps), at most 37 means (the largest Rng::exponential draw) of
// kMaxDwellExtents, 2.4e18 ps, ahead.  Every instant thus stays below
// TimePoint::infinity() = 2^62 ps (4.6e18).
constexpr double kMaxLinkLengthM = 1e4;
constexpr std::int64_t kMaxPayloadBytes = 1'000'000;
constexpr std::int64_t kMaxSlots = 100'000'000;
constexpr double kMaxExtentPs = 6.4e9;
constexpr double kMaxLeadPs = 2.0 * kMaxSlots * kMaxExtentPs;
constexpr double kMaxDwellExtents = 1e7;
constexpr double kMinRatePerExtent = 1.0 / kMaxDwellExtents;
// connections_per_node times the node count must fit an int.
constexpr int kMaxConnectionsPerNode = 1000;

bool valid_rate(double r) {
  return r >= kMinRatePerExtent && r <= kMaxRatePerExtent;
}
bool valid_dwell(double d) {
  return d >= kMinDwellExtents && d <= kMaxDwellExtents;
}
bool valid_slots(std::int64_t n, std::int64_t min) {
  return n >= min && n <= kMaxSlots;
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
      return "churn mean up-dwell must be 0 or in [0.001, 1e7]";
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
  if (!valid_slots(cut_slot, 0)) return "cut_slot must be in [0, 1e8]";
  if (!valid_slots(cut_down_slots, 1)) {
    return "cut_down_slots must be in [1, 1e8]";
  }
  if (planners.empty()) return "planners axis is empty";
  if (churn_nodes < 1) return "churn_nodes must be >= 1";
  if (!valid_dwell(churn_down_slots)) {
    return "churn_down_slots must be in [0.001, 1e7]";
  }
  if (!valid_slots(churn_detect_slots, 2)) {
    return "churn_detect_slots must be in [2, 1e8]";
  }
  if (repetitions < 1) return "repetitions must be >= 1";
  if (!valid_slots(slots, 1)) return "slots must be in [1, 1e8]";
  if (connections_per_node < 1 ||
      connections_per_node > kMaxConnectionsPerNode) {
    return "connections_per_node must be in [1, 1000]";
  }
  // make_periodic_set draws log-uniform periods of at least 2 slots.
  if (!valid_slots(min_period_slots, 2) ||
      !valid_slots(max_period_slots, min_period_slots)) {
    return "period range must satisfy 2 <= min <= max <= 1e8";
  }
  if (!(multicast_fraction >= 0.0 && multicast_fraction <= 1.0)) {
    return "multicast_fraction out of [0, 1]";
  }
  if (!valid_rate(background_rate)) {
    return "background_rate must be in [1e-7, 1000]";
  }
  if (!valid_rate(saturation_rate)) {
    return "saturation_rate must be in [1e-7, 1000]";
  }
  if (services.empty()) return "services axis is empty";
  if (cbs_flows < 1) return "cbs_flows must be >= 1";
  if (!valid_slots(cbs_budget_slots, 1) ||
      !valid_slots(cbs_period_slots, cbs_budget_slots)) {
    return "cbs budget/period must satisfy 1 <= Q <= T <= 1e8";
  }
  if (!valid_rate(cbs_rate)) return "cbs_rate must be in [1e-7, 1000]";
  if (!valid_rate(cbs_saturation_rate)) {
    return "cbs_saturation_rate must be in [1e-7, 1000]";
  }
  if (queue_cap < 0) return "queue_cap must be >= 0";
  if (!(link_length_m > 0.0 && link_length_m <= kMaxLinkLengthM)) {
    return "link_length_m must be in (0, 1e4]";
  }
  if (slot_payload_bytes < 0 || slot_payload_bytes > kMaxPayloadBytes) {
    return "payload_bytes must be in [0, 1e6]";
  }
  // The largest ring has the longest slot extent.  Its network must
  // build (an explicit payload can fall short of Eq. 2), and a saturated
  // CBS server, whose deadline moves T slots per Q slots it is served,
  // must not lead the clock by more than a period plus a deadline may.
  GridPoint largest;
  largest.nodes = *std::max_element(node_counts.begin(), node_counts.end());
  double extent_ps = 0.0;
  try {
    const net::Network n(make_network_config(*this, largest));
    extent_ps = static_cast<double>(n.timing().slot_plus_max_gap().ps());
  } catch (const ConfigError& e) {
    return std::string("the largest ring does not build: ") + e.what();
  }
  const bool cbs =
      std::any_of(services.begin(), services.end(),
                  [](ServiceMix m) { return m != ServiceMix::kRtOnly; });
  const double cbs_periods =
      static_cast<double>(slots) / static_cast<double>(cbs_budget_slots) + 1;
  if (cbs && cbs_periods * static_cast<double>(cbs_period_slots) * extent_ps >
                 kMaxLeadPs) {
    return "slots / cbs_budget_slots * cbs_period_slots too large: a "
           "saturated CBS server's deadline would pass 2^62 ps";
  }
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

// -- grid files ----------------------------------------------------------

namespace {

/// A GridSpec member a grid-file key names.
using Field = std::variant<
    std::vector<Protocol> GridSpec::*, std::vector<NodeId> GridSpec::*,
    std::vector<double> GridSpec::*, std::vector<int> GridSpec::*,
    std::vector<WorkloadMix> GridSpec::*, std::vector<ServiceMix> GridSpec::*,
    std::vector<bool> GridSpec::*, std::vector<std::uint64_t> GridSpec::*,
    int GridSpec::*, std::int64_t GridSpec::*, double GridSpec::*,
    bool GridSpec::*, std::uint64_t GridSpec::*>;

struct Key {
  std::string_view name;
  Field field;
};

/// Every grid-file key, in the order the report echoes them.
constexpr std::array<Key, 36> kKeys{{
    {"protocols", &GridSpec::protocols},
    {"nodes", &GridSpec::node_counts},
    {"utilisations", &GridSpec::utilisations},
    {"bers", &GridSpec::bers},
    {"data_bers", &GridSpec::data_bers},
    {"churns", &GridSpec::churns},
    {"link_cuts", &GridSpec::link_cuts},
    {"mixes", &GridSpec::mixes},
    {"services", &GridSpec::services},
    {"planners", &GridSpec::planners},
    {"seeds", &GridSpec::set_seeds},
    {"repetitions", &GridSpec::repetitions},
    {"slots", &GridSpec::slots},
    {"connections_per_node", &GridSpec::connections_per_node},
    {"min_period_slots", &GridSpec::min_period_slots},
    {"max_period_slots", &GridSpec::max_period_slots},
    {"multicast_fraction", &GridSpec::multicast_fraction},
    {"background_rate", &GridSpec::background_rate},
    {"saturation_rate", &GridSpec::saturation_rate},
    {"cbs_flows", &GridSpec::cbs_flows},
    {"cbs_budget_slots", &GridSpec::cbs_budget_slots},
    {"cbs_period_slots", &GridSpec::cbs_period_slots},
    {"cbs_rate", &GridSpec::cbs_rate},
    {"cbs_saturation_rate", &GridSpec::cbs_saturation_rate},
    {"churn_nodes", &GridSpec::churn_nodes},
    {"churn_down_slots", &GridSpec::churn_down_slots},
    {"churn_detect_slots", &GridSpec::churn_detect_slots},
    {"cut_slot", &GridSpec::cut_slot},
    {"cut_down_slots", &GridSpec::cut_down_slots},
    {"queue_cap", &GridSpec::queue_cap},
    {"link_length_m", &GridSpec::link_length_m},
    {"payload_bytes", &GridSpec::slot_payload_bytes},
    {"spatial_reuse", &GridSpec::spatial_reuse},
    {"frame_crc", &GridSpec::frame_crc},
    {"payload_crc", &GridSpec::payload_crc},
    {"base_seed", &GridSpec::base_seed},
}};

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
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

// Item parsers: syntax and fit of the field's type only (ranges are
// GridSpec::validate()'s).  std::from_chars rejects a '+', a '-' on an
// unsigned field (std::stoull would wrap "-1" to 2^64 - 1) and a value
// its type cannot hold.
template <class T>
  requires std::is_arithmetic_v<T> && (!std::is_same_v<T, bool>)
bool parse_item(const std::string& s, T& out) {
  const char* end = s.data() + s.size();
  const auto [stop, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc{} && stop == end;
}

bool parse_item(const std::string& s, bool& out) {
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

template <class E>
  requires std::is_enum_v<E>
bool parse_item(const std::string& s, E& out) {
  const std::array<const char*, 3>& of = names(E{}).of;
  for (std::size_t i = 0; i < of.size(); ++i) {
    if (lower(s) == lower(of[i])) {
      out = static_cast<E>(i);
      return true;
    }
  }
  return false;
}

template <class T>
std::string item_error(const std::string& key, const std::string& item) {
  if constexpr (std::is_enum_v<T>) {
    return std::string("unknown ") + names(T{}).noun + " `" + item + "`";
  } else {
    return "bad " + key + " `" + item + "`";
  }
}

/// Parses one key's items into its field; returns an error message, or
/// "" on success.
template <class T>
std::string parse_field(const std::string& key,
                        const std::vector<std::string>& items, T& out) {
  if (items.size() != 1) return "`" + key + "` takes one value";
  return parse_item(items[0], out) ? "" : item_error<T>(key, items[0]);
}

template <class T>
std::string parse_field(const std::string& key,
                        const std::vector<std::string>& items,
                        std::vector<T>& axis) {
  axis.clear();
  for (const std::string& it : items) {
    T v{};
    if (!parse_item(it, v)) return item_error<T>(key, it);
    axis.push_back(v);
  }
  return "";
}

template <class T>
void echo_field(analysis::JsonWriter& w, const T& v) {
  if constexpr (std::is_enum_v<T>) {
    w.value(name_of(v));
  } else if constexpr (std::is_same_v<T, NodeId>) {
    w.value(static_cast<std::int64_t>(v));
  } else {
    w.value(v);
  }
}

template <class T>
void echo_field(analysis::JsonWriter& w, const std::vector<T>& axis) {
  w.begin_array();
  for (const T v : axis) echo_field(w, v);
  w.end_array();
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
    const auto row = std::find_if(kKeys.begin(), kKeys.end(),
                                  [&](const Key& k) { return k.name == key; });
    if (row == kKeys.end()) return fail("unknown key `" + key + "`");
    const std::string bad = std::visit(
        [&](auto member) { return parse_field(key, items, out.*member); },
        row->field);
    if (!bad.empty()) return fail(bad);
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

void write_grid(analysis::JsonWriter& w, const GridSpec& spec) {
  w.begin_object();
  for (const Key& k : kKeys) {
    w.key(k.name);
    std::visit([&](auto member) { echo_field(w, spec.*member); }, k.field);
  }
  w.end_object();
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
