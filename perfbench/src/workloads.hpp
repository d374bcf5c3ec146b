// The benchmark's workloads (README.md says why each was chosen).
#pragma once

#include <cstdint>
#include <vector>

#include "core/connection.hpp"
#include "harness.hpp"

namespace perfbench {

/// The E23b-shaped busy periodic set: `streams` one-slot connections of
/// period `period` with sources round-robin over the ring, release phases
/// spread evenly over the period and destinations 1-4 hops downstream;
/// `seed` rotates the phases and shuffles phases and hop counts over the
/// streams.
[[nodiscard]] std::vector<ccredf::core::ConnectionParams> busy_set(
    ccredf::NodeId nodes, std::int64_t period, int streams,
    std::uint64_t seed);

/// tcma32 (planner off) and planned32 (planner on): one 32-node CCR-EDF
/// ring under the busy fully periodic set at 0.9 x U_max.
void run_ring(const Options& opt, bool planner, Tracer& tr, Report& rep);

/// sweep-mixed: a fixed sweep::GridSpec through sweep::run_sweep.
void run_sweep_mixed(const Options& opt, Tracer& tr, Report& rep);

}  // namespace perfbench
