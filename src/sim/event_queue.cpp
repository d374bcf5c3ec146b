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

void EventQueue::reserve(std::size_t n) {
  slots_.reserve(n);
  free_.reserve(n);
  heap_.reserve(n);
}

EventId EventQueue::schedule(TimePoint at, Callback fn) {
  std::uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    CCREDF_EXPECT(slots_.size() < (std::uint64_t{1} << kIndexBits),
                  "EventQueue: slab index space exhausted");
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.seq = next_seq_++;
  heap_push(HeapEntry{at, slot.seq, index, 0});
  ++live_;
  return make_id(slot.gen, index);
}

void EventQueue::arm(TimePoint at, ArrivalProcess& process,
                     std::uint32_t key) {
  if (at == TimePoint::infinity()) return;
  if (process.queue_ != this) attach(process);
  heap_push(HeapEntry{at, next_seq_++, key, process.index_});
  ++live_;
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
  const std::uint32_t index = p.index_;
  const std::size_t before = heap_.size();
  std::erase_if(heap_,
                [index](const HeapEntry& e) { return e.process == index; });
  if (heap_.size() != before) {
    live_ -= before - heap_.size();
    // Rebuild bottom-up.  Firing order depends only on the strict
    // (time, seq) order, never on the heap's layout.
    for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
  }
  processes_[index] = nullptr;
  p.queue_ = nullptr;
}

void EventQueue::free_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn.reset();
  slot.seq = 0;
  ++slot.gen;  // invalidates outstanding EventIds for this slot
  free_.push_back(index);
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t index = id_index(id);
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  if (slot.seq == 0 || slot.gen != id_gen(id)) return false;
  free_slot(index);
  --live_;
  return true;
}

void EventQueue::fire_next(TimePoint& now) {
  CCREDF_EXPECT(live_ > 0, "EventQueue::fire_next on empty queue");
  drop_stale_heads();
  const HeapEntry top = heap_.front();
  now = top.time;
  if (top.process == 0) {
    heap_pop_top();
    // Move the callback out and recycle its slot first: while it runs it
    // may schedule, which can reuse that slot or grow the slab.
    Callback fn = std::move(slots_[top.ref].fn);
    free_slot(top.ref);
    --live_;
    fn();
    return;
  }
  const TimePoint next = processes_[top.process]->arrive(top.ref);
  // Whatever arrive() pushed sorts after `top` (nothing precedes now,
  // and every new seq is larger), and purging a destroyed process's
  // entries keeps the minimum at the root -- so `top` is still the head
  // unless its own process was destroyed.
  if (heap_.empty() || heap_.front().seq != top.seq) return;
  if (next == TimePoint::infinity()) {
    heap_pop_top();
    --live_;
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
