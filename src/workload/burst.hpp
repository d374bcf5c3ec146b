// Bursty on/off traffic (two-state Markov-modulated Poisson process).
//
// Each node alternates between an idle phase and a burst phase with
// exponentially distributed dwell times; during a burst it emits
// best-effort messages at a high rate towards a single "burst peer".
// This is the classic model of file transfers / swapped video scenes and
// stresses the priority machinery far harder than plain Poisson traffic:
// bursts pile deep queues behind one head-of-line request per node.  Each
// node's phase changes and burst emits are keys of the generator's
// arrival process (sim::ArrivalProcess).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/priority.hpp"
#include "net/network.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace ccredf::workload {

struct BurstParams {
  /// Mean idle-phase length in slot extents.
  double mean_idle_slots = 200.0;
  /// Mean burst-phase length in slot extents.
  double mean_burst_slots = 40.0;
  /// Messages per slot extent while bursting.
  double burst_rate = 1.0;
  std::int64_t min_size_slots = 1;
  std::int64_t max_size_slots = 6;
  std::int64_t min_laxity_slots = 50;
  std::int64_t max_laxity_slots = 1000;
  core::TrafficClass traffic_class = core::TrafficClass::kBestEffort;
  std::uint64_t seed = 3;

  void validate() const;
};

class BurstGenerator final : public sim::ArrivalProcess {
 public:
  /// Starts every node idle; stops at `until`.  Either the generator or
  /// `net` may be destroyed first.
  BurstGenerator(net::Network& net, BurstParams params,
                 sim::TimePoint until);

  [[nodiscard]] std::int64_t generated() const { return generated_; }
  [[nodiscard]] std::int64_t bursts_started() const { return bursts_; }

 private:
  // Key 2n is node n's next phase change; key 2n + 1 one of its burst's
  // emits.
  static std::uint32_t phase_key(NodeId n) { return 2 * n; }
  static std::uint32_t emit_key(NodeId n) { return 2 * n + 1; }

  /// sim::ArrivalProcess.
  sim::TimePoint arrive(std::uint32_t key) override;
  /// When an idle phase starting now ends, or infinity from `until` on.
  sim::TimePoint idle_end();
  /// Starts a burst: picks its peer and arms its emits; returns when it
  /// ends, or infinity when it runs into `until`.
  sim::TimePoint enter_burst(NodeId node);
  void emit(NodeId node);

  net::Network& net_;
  BurstParams params_;
  sim::TimePoint until_;
  sim::Duration idle_mean_;
  sim::Duration burst_mean_;
  sim::Duration mean_gap_;  // between emits while bursting
  sim::Rng rng_;
  // Current burst destination per node; kInvalidNode while idle.
  std::vector<NodeId> peer_;
  std::int64_t generated_ = 0;
  std::int64_t bursts_ = 0;
};

}  // namespace ccredf::workload
