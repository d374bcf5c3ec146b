#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace ccredf::sim {

ArrivalProcess::~ArrivalProcess() {
  if (queue_ != nullptr) queue_->detach(*this);
}

EventQueue::~EventQueue() {
  for (ArrivalProcess* p : processes_) {
    if (p != nullptr) p->queue_ = nullptr;
  }
}

void EventQueue::schedule(TimePoint at, Callback fn) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(closures_.size());
    closures_.push_back(std::move(fn));
  } else {
    slot = free_.back();
    free_.pop_back();
    closures_[slot] = std::move(fn);
  }
  heap_push(HeapEntry{at, next_seq_++, slot, 0});
}

void EventQueue::arm(TimePoint at, ArrivalProcess& process,
                     std::uint32_t key) {
  if (at == TimePoint::infinity()) return;
  if (process.queue_ != this) attach(process);
  heap_push(HeapEntry{at, next_seq_++, key, process.index_});
}

template <typename Match>
bool EventQueue::purge(Match match) {
  const std::size_t before = heap_.size();
  std::erase_if(heap_, match);
  if (heap_.size() == before) return false;
  // Rebuild bottom-up.  Firing order depends only on the strict
  // (time, seq) order, never on the heap's layout.
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
  return true;
}

bool EventQueue::disarm(ArrivalProcess& process, std::uint32_t key) {
  if (process.queue_ != this) return false;
  const std::uint32_t index = process.index_;
  return purge([index, key](const HeapEntry& e) {
    return e.process == index && e.ref == key;
  });
}

bool EventQueue::disarm(ArrivalProcess& process) {
  if (process.queue_ != this) return false;
  const std::uint32_t index = process.index_;
  return purge([index](const HeapEntry& e) { return e.process == index; });
}

void EventQueue::attach(ArrivalProcess& p) {
  CCREDF_EXPECT(p.queue_ == nullptr,
                "EventQueue: process is armed on another queue");
  auto it = std::find(processes_.begin() + 1, processes_.end(), nullptr);
  if (it == processes_.end()) it = processes_.insert(it, nullptr);
  *it = &p;
  p.queue_ = this;
  p.index_ = static_cast<std::uint32_t>(it - processes_.begin());
}

void EventQueue::detach(ArrivalProcess& p) {
  disarm(p);
  processes_[p.index_] = nullptr;
  p.queue_ = nullptr;
}

void EventQueue::fire_next(TimePoint& now) {
  CCREDF_EXPECT(!heap_.empty(), "EventQueue::fire_next on empty queue");
  const HeapEntry top = heap_.front();
  now = top.time;
  if (top.process == 0) {
    heap_pop_top();
    // Move the closure out and recycle its slot first: while it runs it
    // may schedule, which can reuse that slot or grow the store.
    Callback fn = std::move(closures_[top.ref]);
    closures_[top.ref] = nullptr;
    free_.push_back(top.ref);
    fn();
    return;
  }
  const TimePoint next = processes_[top.process]->arrive(top.ref);
  // Whatever arrive() pushed sorts after `top` (nothing precedes now,
  // and every new seq is larger), and a purge re-heapifies with the
  // minimum at the root -- so `top` is still the head unless arrive()
  // disarmed it (its key, or its whole process).
  if (heap_.empty() || heap_.front().seq != top.seq) return;
  if (next == TimePoint::infinity()) {
    heap_pop_top();
    return;
  }
  CCREDF_EXPECT(next >= top.time,
                "EventQueue: an arrival cannot be re-armed into the past");
  HeapEntry& head = heap_.front();
  head.time = next;
  head.seq = next_seq_++;
  sift_down(0);
}

// ---- flat binary min-heap over (time, seq) ------------------------------

void EventQueue::sift_up(std::size_t i) {
  HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!e.before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) {
  HeapEntry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1].before(heap_[child])) ++child;
    if (!heap_[child].before(e)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = e;
}

void EventQueue::heap_push(HeapEntry e) {
  heap_.push_back(e);
  sift_up(heap_.size() - 1);
}

void EventQueue::heap_pop_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

}  // namespace ccredf::sim
