#include "services/reduce.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace ccredf::services {

std::int64_t apply_reduce(ReduceOp op, std::int64_t a, std::int64_t b) {
  switch (op) {
    case ReduceOp::kSum:
      return a + b;
    case ReduceOp::kMin:
      return std::min(a, b);
    case ReduceOp::kMax:
      return std::max(a, b);
    case ReduceOp::kBitAnd:
      return a & b;
    case ReduceOp::kBitOr:
      return a | b;
  }
  return a;
}

std::int64_t reduce_identity(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum:
      return 0;
    case ReduceOp::kMin:
      return std::numeric_limits<std::int64_t>::max();
    case ReduceOp::kMax:
      return std::numeric_limits<std::int64_t>::min();
    case ReduceOp::kBitAnd:
      return -1;  // all ones
    case ReduceOp::kBitOr:
      return 0;
  }
  return 0;
}

GlobalReduceService::GlobalReduceService(net::Network& net)
    : net_(net),
      value_(net.nodes(), 0),
      contributed_(net.nodes(), sim::TimePoint::infinity()) {
  net_.attach(*this);
}

void GlobalReduceService::begin(NodeSet participants, ReduceOp op) {
  CCREDF_EXPECT(!active_, "GlobalReduceService: round already in progress");
  CCREDF_EXPECT(!participants.empty(), "GlobalReduceService: empty group");
  participants_ = participants;
  pending_ = participants;
  op_ = op;
  accumulator_ = reduce_identity(op);
  for (auto& c : contributed_) c = sim::TimePoint::infinity();
  last_contribution_ = sim::TimePoint::origin();
  active_ = true;
  complete_ = false;
  result_.reset();
  completion_.reset();
}

void GlobalReduceService::contribute(NodeId node, std::int64_t value) {
  CCREDF_EXPECT(active_, "GlobalReduceService: no round in progress");
  CCREDF_EXPECT(participants_.contains(node),
                "GlobalReduceService: node not in group");
  if (contributed_[node] == sim::TimePoint::infinity()) {
    contributed_[node] = net_.sim().now();
    value_[node] = value;
    last_contribution_ = std::max(last_contribution_, contributed_[node]);
  }
}

SlotIndex GlobalReduceService::next_deadline_slot(SlotIndex from,
                                                  SlotIndex limit) {
  for (const NodeId n : pending_) {
    if (contributed_[n] != sim::TimePoint::infinity()) return from;
  }
  return limit;
}

void GlobalReduceService::on_slot(const net::SlotRecord& rec) {
  if (!active_) return;
  // The master collects the operand of every participant whose
  // contribution preceded its sampling instant in this slot.
  NodeSet still_pending;
  for (const NodeId n : pending_) {
    const sim::TimePoint sample =
        rec.start + net_.control_timing().sample_offset_of(rec.master, n);
    if (contributed_[n] > sample) {
      still_pending.insert(n);
    } else {
      accumulator_ = apply_reduce(op_, accumulator_, value_[n]);
    }
  }
  pending_ = still_pending;
  if (pending_.empty()) {
    active_ = false;
    complete_ = true;
    result_ = accumulator_;
    completion_ = rec.end;
    ++rounds_;
  }
}

}  // namespace ccredf::services
