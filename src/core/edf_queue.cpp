#include "core/edf_queue.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ccredf::core {

namespace {
bool edf_before(const Message& a, const Message& b) {
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  if (a.arrival != b.arrival) return a.arrival < b.arrival;
  return a.id < b.id;
}
}  // namespace

void EdfQueueSet::push(Message msg) {
  CCREDF_EXPECT(msg.remaining_slots >= 1 && msg.size_slots >= 1,
                "EdfQueueSet: message must need at least one slot");
  if (msg.traffic_class == TrafficClass::kNonRealTime) {
    nrt_.push_back(std::move(msg));  // FIFO
    return;
  }
  std::vector<Message>& q =
      msg.traffic_class == TrafficClass::kRealTime ? rt_ : be_;
  q.insert(std::upper_bound(q.begin(), q.end(), msg, edf_before),
           std::move(msg));
}

bool EdfQueueSet::contains(MessageId id) const {
  const auto is_id = [id](const Message& m) { return m.id == id; };
  return std::ranges::any_of(rt_, is_id) || std::ranges::any_of(be_, is_id) ||
         std::ranges::any_of(nrt_, is_id);
}

std::optional<Message> EdfQueueSet::consume_slot(MessageId id) {
  for (std::vector<Message>* q : {&rt_, &be_, &nrt_}) {
    const auto it = std::ranges::find(*q, id, &Message::id);
    if (it == q->end()) continue;
    if (--it->remaining_slots > 0) return std::nullopt;
    Message done = std::move(*it);
    q->erase(it);
    return done;
  }
  throw ProtocolError("EdfQueueSet: consume_slot for unknown message");
}

std::size_t EdfQueueSet::drop_connection(ConnectionId id) {
  std::size_t dropped = 0;
  for (std::vector<Message>* q : {&rt_, &be_, &nrt_}) {
    dropped += std::erase_if(
        *q, [id](const Message& m) { return m.connection == id; });
  }
  return dropped;
}

std::size_t EdfQueueSet::reschedule_connection(ConnectionId id,
                                               sim::TimePoint deadline) {
  std::size_t moved = 0;
  for (std::vector<Message>* q : {&rt_, &be_}) {  // NRT is FIFO: no key
    std::size_t n = 0;
    for (Message& m : *q) {
      if (m.connection == id && m.deadline != deadline) {
        m.deadline = deadline;
        ++n;
      }
    }
    if (n > 0) std::sort(q->begin(), q->end(), edf_before);
    moved += n;
  }
  return moved;
}

std::size_t EdfQueueSet::clear() {
  const std::size_t n = size();
  rt_.clear();
  be_.clear();
  nrt_.clear();
  return n;
}

std::size_t EdfQueueSet::size_of(TrafficClass c) const {
  switch (c) {
    case TrafficClass::kRealTime:
      return rt_.size();
    case TrafficClass::kBestEffort:
      return be_.size();
    case TrafficClass::kNonRealTime:
      return nrt_.size();
  }
  return 0;
}

}  // namespace ccredf::core
