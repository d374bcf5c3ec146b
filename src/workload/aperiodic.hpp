// Aperiodic / bursty traffic riding Constant-Bandwidth Servers.
//
// Unlike the PoissonGenerator (plain best-effort sends with made-up
// laxities), this generator submits jobs through net::Network::cbs_send,
// so every job's deadline comes from the server wake-up rule and budget
// overruns postpone instead of starving peers.  Two arrival shapes:
//   * Poisson: exponential inter-arrival per flow (mean_idle/burst = 0);
//   * bursty (two-state on/off): arrivals fire only during bursts, with
//     exponentially distributed burst and idle dwells -- the shape that
//     actually stresses bandwidth isolation.
// Per-flow Rng streams are forked from one seed (sim::Rng::stream), so
// the arrival pattern is independent of how flows interleave and stays
// byte-deterministic under any sweep sharding.  Each flow is one key of
// the generator's arrival process (sim::ArrivalProcess).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "net/network.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace ccredf::workload {

struct AperiodicParams {
  /// Mean jobs per slot-extent per flow while arrivals are on.
  double rate_per_flow = 0.05;
  std::int64_t min_size_slots = 1;
  std::int64_t max_size_slots = 4;
  /// Two-state burst modulation, in slot extents: both 0 disables (pure
  /// Poisson); otherwise arrivals run only during bursts of mean dwell
  /// `mean_burst_slots`, separated by idles of mean `mean_idle_slots`.
  double mean_idle_slots = 0.0;
  double mean_burst_slots = 0.0;
  std::uint64_t seed = 11;

  void validate() const;
};

class AperiodicGenerator final : public sim::ArrivalProcess {
 public:
  /// Starts generating immediately onto the given ADMITTED CBS servers
  /// (one flow per id); stops at `until`.  Either the generator or `net`
  /// may be destroyed first.  An empty server list is a no-op generator.
  AperiodicGenerator(net::Network& net, std::vector<ConnectionId> servers,
                     AperiodicParams params, sim::TimePoint until);

  /// Jobs submitted so far (accepted or dropped at the buffer).  A job
  /// whose server has closed (a resilience quarantine) is discarded
  /// uncounted, and the arrival clock keeps running.
  [[nodiscard]] std::int64_t generated() const { return generated_; }

 private:
  struct Flow {
    ConnectionId server = kNoConnection;
    sim::Rng rng;
    bool bursting = true;
    /// When the current burst/idle dwell ends (bursty mode only).
    sim::TimePoint phase_end;
  };

  /// sim::ArrivalProcess; the key is the flow.
  sim::TimePoint arrive(std::uint32_t flow) override;
  /// The flow's next arrival instant after now, or infinity from `until`
  /// on.
  sim::TimePoint next_arrival(Flow& flow);
  void emit(Flow& flow);

  net::Network& net_;
  AperiodicParams params_;
  sim::TimePoint until_;
  sim::Duration mean_gap_;
  sim::Duration burst_mean_;  // bursty mode only
  sim::Duration idle_mean_;   // bursty mode only
  std::vector<Flow> flows_;
  std::int64_t generated_ = 0;
};

}  // namespace ccredf::workload
