#include "sim/simulator.hpp"

namespace ccredf::sim {

std::size_t Simulator::run_until_slow(TimePoint horizon) {
  std::size_t fired = 0;
  while (!queue_.empty() && queue_.next_time() <= horizon) {
    queue_.fire_next(now_);
    ++fired;
  }
  events_fired_ += fired;
  if (horizon > now_) now_ = horizon;
  return fired;
}

std::size_t Simulator::run_all() {
  std::size_t fired = 0;
  while (!queue_.empty()) {
    queue_.fire_next(now_);
    ++fired;
  }
  events_fired_ += fired;
  return fired;
}

}  // namespace ccredf::sim
