// Declarative parameter grids for scenario sweeps.
//
// A GridSpec is the cross product of per-axis value lists (protocol, ring
// size, offered utilisation, workload mix, workload-set seed) repeated
// `repetitions` times.  expand() enumerates the grid points in a fixed
// canonical order (protocol outermost, seed innermost), which the runner
// and the report rely on: shard -> (point, repetition) numbering is the
// same no matter how many worker threads execute the sweep.
//
// Determinism contract: the workload of a shard is keyed on
// (base_seed, workload_key(point), repetition) via sim::Rng::stream_seed.
// workload_key deliberately EXCLUDES the protocol axis, so CCR-EDF,
// CC-FPR and TDMA points that agree on every other axis run bit-identical
// connection sets -- the paired-comparison methodology of E6.  It
// likewise EXCLUDES the fault axes (ber and data_ber): points along a
// BER sweep run the same workload, and the fault injector keys its own
// draws on a separate stream family, so changing either BER can never
// reshuffle the workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "net/config.hpp"

namespace ccredf::analysis {
class JsonWriter;
}

namespace ccredf::sweep {

enum class Protocol { kCcrEdf, kCcFpr, kTdma };

/// Workload shape run at a grid point.
enum class WorkloadMix {
  /// Admission-controlled periodic connections only.
  kPeriodic,
  /// Periodic connections plus a Poisson best-effort background at
  /// GridSpec::background_rate per node.
  kMixed,
  /// No connections; every node saturated with Poisson best-effort
  /// traffic (the §5 analysis mode, used by E4c).
  kSaturation,
};

/// Service-class population run beside the RT set at a grid point
/// (the `services` axis; default rt-only keeps legacy grids' point
/// numbering and shard seeds untouched).
enum class ServiceMix {
  /// Hard-RT connections only (plus whatever WorkloadMix adds).
  kRtOnly,
  /// Plus GridSpec::cbs_flows CBS servers carrying aperiodic jobs at
  /// GridSpec::cbs_rate per flow.
  kCbs,
  /// Same servers, arrivals at GridSpec::cbs_saturation_rate -- offered
  /// load far above the reserved bandwidth, so every server runs
  /// backlogged and postponing (the E21 saturation scenario).
  kCbsSaturated,
};

/// The one spelling of each value: what the report prints and what a
/// grid file writes (matched case-insensitively).
[[nodiscard]] const char* protocol_name(Protocol p);
[[nodiscard]] const char* mix_name(WorkloadMix m);
[[nodiscard]] const char* service_name(ServiceMix s);

/// One cell of the expanded grid.
struct GridPoint {
  std::size_t index = 0;  // position in expand() order
  Protocol protocol = Protocol::kCcrEdf;
  NodeId nodes = 8;
  /// Offered utilisation as a fraction of the ring's U_max (Eq. 6).
  /// Planner cells may exceed 1.0: the hypercycle planner admits past
  /// the per-slot ceiling through spatial reuse (validate() allows up
  /// to 8x, the ring's segment-packing limit).
  double utilisation = 0.5;
  /// Control-channel bit-error rate applied uniformly per link (fault
  /// axis); 0 disables injection entirely.
  double ber = 0.0;
  /// Data-channel (payload) bit-error rate per link; 0 disables.
  double data_ber = 0.0;
  /// Node-churn axis: mean up-dwell between repairs and the next
  /// failure, in slot extents (workload::ChurnParams::mean_up_slots);
  /// 0 disables churn entirely.  The churned node set, repair time and
  /// detection window are per-run scalars (GridSpec).
  double churn = 0.0;
  /// Severed-segment axis: number of hard link cuts applied at the
  /// per-run `cut_slot` instant (the HIGHEST-numbered links first, so a
  /// single cut severs link nodes-1 and the degraded anchor is node 0,
  /// the designated restarter); 0 disables link faults entirely.  Cuts
  /// are spliced after `cut_down_slots` slot extents.
  int link_cuts = 0;
  WorkloadMix mix = WorkloadMix::kPeriodic;
  /// Service-class population riding beside the RT set.
  ServiceMix service = ServiceMix::kRtOnly;
  /// Hypercycle-planner axis: NetworkConfig::planner for this cell's
  /// network (E23 compares planner on/off as paired cells).
  bool planner = false;
  /// Workload-set seed axis (distinct sets at identical load).
  std::uint64_t set_seed = 1;
};

struct GridSpec {
  std::vector<Protocol> protocols{Protocol::kCcrEdf};
  std::vector<NodeId> node_counts{8};
  std::vector<double> utilisations{0.5};
  /// Control-channel BER axis; the default single 0 keeps fault-free
  /// grids' point numbering and shard seeds untouched.
  std::vector<double> bers{0.0};
  /// Data-channel (payload) BER axis; same default-0 convention.
  std::vector<double> data_bers{0.0};
  /// Node-churn axis (mean up-dwell in slot extents; 0 = no churn).
  /// Default single 0 keeps legacy grids' numbering untouched, and the
  /// axis is EXCLUDED from workload_key like the fault axes: a churn
  /// sweep compares failure pressure on the SAME workload, and churn
  /// dwells draw from their own "churn"-tagged stream family.
  std::vector<double> churns{0.0};
  /// Severed-segment axis (hard link cuts per point; 0 = intact ring).
  /// Default single 0 keeps legacy grids' numbering untouched, and the
  /// axis is EXCLUDED from workload_key like the other fault axes: a
  /// link-fault sweep compares cut pressure on the SAME workload (the
  /// E24 containment gate pairs cut and cut-free cells).
  std::vector<int> link_cuts{0};
  std::vector<WorkloadMix> mixes{WorkloadMix::kPeriodic};
  /// Service-class axis; the default single rt-only keeps legacy grids'
  /// point numbering and shard seeds untouched.  EXCLUDED from
  /// workload_key: rt-only vs cbs points run the identical RT set, so a
  /// service sweep is a paired comparison (the E21 gate depends on it).
  std::vector<ServiceMix> services{ServiceMix::kRtOnly};
  /// Hypercycle-planner axis (E23); the default single `off` keeps
  /// legacy grids' point numbering and shard seeds untouched.  EXCLUDED
  /// from workload_key: planner-on and planner-off cells run the
  /// identical workload (the planner must change only the engine, never
  /// the offered traffic), so a planner sweep is a paired comparison --
  /// and wherever the plan is not in effect the statistics themselves
  /// must come out byte-identical.
  std::vector<bool> planners{false};
  std::vector<std::uint64_t> set_seeds{1};
  /// Independent repetitions per point (distinct RNG streams).
  int repetitions = 1;

  // -- per-run scenario parameters (shared by every point) ---------------
  std::int64_t slots = 5000;
  int connections_per_node = 2;
  std::int64_t min_period_slots = 20;
  std::int64_t max_period_slots = 2000;
  double multicast_fraction = 0.0;
  /// Poisson messages per slot-extent per node for kMixed / kSaturation.
  double background_rate = 0.2;
  double saturation_rate = 3.0;
  // -- CBS population (services axis, ignored on rt-only points) ---------
  /// Servers requested, sources round-robin from node 0.
  int cbs_flows = 8;
  /// Per-server budget Q / replenishment period T, in slots.
  std::int64_t cbs_budget_slots = 2;
  std::int64_t cbs_period_slots = 50;
  /// Aperiodic jobs per slot-extent per flow for the `cbs` service mix.
  double cbs_rate = 0.02;
  /// ... and for `cbs-saturated` (choose >> Q/T / mean job size so the
  /// servers run permanently backlogged).
  double cbs_saturation_rate = 0.5;
  // -- churn scenario (ignored on churn == 0 points) ---------------------
  /// Nodes subject to churn: the HIGHEST-numbered min(churn_nodes,
  /// nodes - 1) nodes of each point.  Node 0 (designated restarter and
  /// default admission node) never churns.
  int churn_nodes = 2;
  /// Mean repair time, in slot extents.
  double churn_down_slots = 500.0;
  /// services::ResilienceParams::detection_window_slots for the monitor
  /// attached to churned points.
  std::int64_t churn_detect_slots = 16;
  // -- severed-segment scenario (ignored on link_cuts == 0 points) -------
  /// Slot index at which every cut of a point lands (between slots: the
  /// injector schedules the events at that slot's nominal start).
  std::int64_t cut_slot = 500;
  /// Slots each cut stays severed before its splice is scheduled.
  std::int64_t cut_down_slots = 400;
  /// Per-node transmit-buffer cap in messages (NetworkConfig::
  /// max_queue_messages); 0 keeps the library default (unbounded).
  /// Saturated long-horizon grids MUST set this: an unbounded
  /// best-effort backlog grows without limit under sustained overload,
  /// and with it the per-insert cost of the sorted EDF queues.
  std::int64_t queue_cap = 0;
  double link_length_m = 10.0;
  std::int64_t slot_payload_bytes = 0;  // 0 => network default
  bool spatial_reuse = true;
  /// Enable the frame-integrity CRC extension on every point's network
  /// (NetworkConfig::with_frame_crc) -- fault grids flip this on so
  /// detection reflects the full guard strength.
  bool frame_crc = false;
  /// Enable the payload CRC-32 extension (NetworkConfig::with_payload_crc)
  /// on every point's network; implies the ack wire so the NACK bits have
  /// somewhere to ride.
  bool payload_crc = false;
  /// Enable the engine's O(1) idle fast-forward (NetworkConfig::
  /// fast_forward) on every point's network.  No grid-file key and no
  /// report field (`ccredf_sweep --no-fast-forward` clears it), and
  /// EXCLUDED from workload_key: the engine guarantees byte-identical
  /// statistics either way (DESIGN.md §8), so flipping it must never move
  /// a shard's seed or the report.
  bool fast_forward = true;
  /// Root of every derived RNG stream in this sweep.
  std::uint64_t base_seed = 1;

  [[nodiscard]] std::size_t point_count() const;
  [[nodiscard]] std::size_t shard_count() const {
    return point_count() * static_cast<std::size_t>(repetitions);
  }
  /// Enumerates all points in canonical order.
  [[nodiscard]] std::vector<GridPoint> expand() const;

  /// The one place every range lives: axis lists are non-empty, values
  /// are in range, and no value can overflow a shard's picosecond clock
  /// or fail its shards.  Returns an explanatory message on failure,
  /// empty string when valid.
  [[nodiscard]] std::string validate() const;
};

/// Stream key for the workload of `p` -- identical for points differing
/// only in protocol (see header comment).
[[nodiscard]] std::uint64_t workload_key(const GridPoint& p);

/// The derived seed for (point, repetition); what each shard hands to its
/// workload generators.
[[nodiscard]] std::uint64_t shard_seed(const GridSpec& spec,
                                       const GridPoint& p, int repetition);

/// Network construction parameters for a point (protocol factory wired).
[[nodiscard]] net::NetworkConfig make_network_config(const GridSpec& spec,
                                                     const GridPoint& p);

// -- grid files ----------------------------------------------------------
//
// Line-oriented `key = value[, value...]` format with '#' comments:
//
//   protocols     = ccr-edf, cc-fpr, tdma
//   nodes         = 4, 8, 16
//   utilisations  = 0.3, 0.5, 0.7, 0.85
//   bers          = 0, 1e-4, 1e-3
//   data_bers     = 0, 1e-5
//   churns        = 0, 25000
//   link_cuts     = 0, 1, 2
//   mixes         = periodic
//   services      = rt-only, cbs
//   planners      = off, on
//   seeds         = 1, 2
//   repetitions   = 3
//   slots         = 5000
//   frame_crc     = on
//   payload_crc   = on
//
// Every key is a GridSpec member, named as the report's "grid" echo names
// it; one table in grid.cpp drives both.  Axis keys take a list, every
// other key exactly one value.  Enum values use the names the report
// prints (protocol_name, mix_name, service_name), in any case; flags take
// on/off, true/false or 1/0.
//
// Unknown keys and malformed values are hard errors (a silently ignored
// axis would invalidate an experiment).  Malformed means an empty list
// item or a value that does not fit its field's type -- a word for a
// number, a sign on a seed, an integer too large for its field -- and is
// reported as "line N: bad <key> `<item>`".  Ranges are
// GridSpec::validate()'s alone.

/// Parses grid-file text into `spec` (fields not mentioned keep their
/// defaults), then validate()s it.  On error returns false, sets `error`
/// and leaves `spec` untouched.
bool parse_grid(const std::string& text, GridSpec& spec, std::string& error);

/// Writes `spec` as one JSON object holding every grid-file key in table
/// order, each value as the grid file would spell it.
void write_grid(analysis::JsonWriter& w, const GridSpec& spec);

/// Reads and parses `path`; distinguishes I/O and syntax errors in
/// `error`.
bool load_grid_file(const std::string& path, GridSpec& spec,
                    std::string& error);

}  // namespace ccredf::sweep
