// Global reduction service (paper §1, §7: "global reduction").
//
// Each participant contributes a 64-bit operand; the contribution rides
// the collection phase of the first slot whose sampling time at that
// node is not earlier than the contribution, the master folds the
// operands with the chosen operator, and the result is broadcast in the
// distribution packet of the slot in which the last contribution arrived
// -- so every node holds the result at that slot's end.  No data slots
// are consumed: the service free-rides on the control channel.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/nodeset.hpp"
#include "common/types.hpp"
#include "net/network.hpp"
#include "sim/time.hpp"

namespace ccredf::services {

enum class ReduceOp { kSum, kMin, kMax, kBitAnd, kBitOr };

[[nodiscard]] std::int64_t apply_reduce(ReduceOp op, std::int64_t a,
                                        std::int64_t b);
[[nodiscard]] std::int64_t reduce_identity(ReduceOp op);

class GlobalReduceService final : public net::SlotListener {
 public:
  /// Attaches to `net` until destroyed.
  explicit GlobalReduceService(net::Network& net);

  /// Starts a reduction round over `participants` with operator `op`.
  void begin(NodeSet participants, ReduceOp op);

  /// Participant `node` contributes `value` at current simulated time.
  void contribute(NodeId node, std::int64_t value);

  [[nodiscard]] bool complete() const { return complete_; }
  [[nodiscard]] std::optional<std::int64_t> result() const { return result_; }
  [[nodiscard]] std::optional<sim::TimePoint> completion_time() const {
    return completion_;
  }
  [[nodiscard]] std::int64_t rounds_completed() const { return rounds_; }
  /// Instant of the round's latest (first-per-node) contribution.
  [[nodiscard]] sim::TimePoint last_contribution() const {
    return last_contribution_;
  }

  // net::SlotListener
  void on_slot(const net::SlotRecord& rec) override;
  /// `from` while a contribution waits for collection, else `limit`:
  /// a slot with no contributed flag pending changes nothing.
  [[nodiscard]] SlotIndex next_deadline_slot(SlotIndex from,
                                             SlotIndex limit) override;

 private:
  net::Network& net_;
  NodeSet participants_;
  NodeSet pending_;
  ReduceOp op_ = ReduceOp::kSum;
  std::vector<std::int64_t> value_;
  std::vector<sim::TimePoint> contributed_;
  sim::TimePoint last_contribution_;
  std::int64_t accumulator_ = 0;
  bool active_ = false;
  bool complete_ = false;
  std::optional<std::int64_t> result_;
  std::optional<sim::TimePoint> completion_;
  std::int64_t rounds_ = 0;
};

}  // namespace ccredf::services
