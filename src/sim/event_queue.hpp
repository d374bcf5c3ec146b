// Discrete-event core: one time-ordered heap holding two kinds of entry.
//
// An arrival entry names a key of an ArrivalProcess, and every timed
// action inside the library is one: a connection's periodic release
// (net::Network), a scheduled node or link fault (fault::FaultInjector),
// a NACK resolution (services::ReliableChannel) and the workload
// generators' arrivals.  Firing it calls the process's arrive(key),
// which returns that key's next instant, and the same entry is re-keyed
// in place -- a periodic stream costs one heap entry for its whole life.
// disarm() takes a key's entries out, and a destroyed process takes all
// of its entries with it, so no timer outlives its owner.
//
// A closure entry runs a std::function once.  Nothing in the library
// schedules one; they serve tests, examples and replay drivers.
//
// Entries at equal timestamps fire in scheduling order: both kinds draw
// from one strictly increasing sequence number (a re-keyed arrival draws
// a fresh one after arrive() returns), which keeps simulations
// deterministic regardless of heap internals.
//
// The heap is a flat binary heap of 24-byte {time, seq, slot-or-key,
// process} entries; closures wait in a store whose slots are recycled
// through a free list.  Capacity is retained, so a steady simulation
// fires arrivals without touching the allocator.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace ccredf::sim {

class EventQueue;

/// A source of keyed arrivals.  Each armed entry names one key; when it
/// fires the queue calls arrive(key) and re-keys the entry with the
/// returned instant.  A process may hold any number of armed entries (on
/// one queue).  Destroying a process disarms its entries, and a queue
/// destroyed first detaches its processes, so either destruction order
/// is safe.
class ArrivalProcess {
 public:
  ArrivalProcess() = default;
  ArrivalProcess(const ArrivalProcess&) = delete;
  ArrivalProcess& operator=(const ArrivalProcess&) = delete;
  virtual ~ArrivalProcess();

  /// Fires `key`'s arrival due now and returns the key's next instant
  /// (not before now), or TimePoint::infinity() for none.  It may
  /// schedule closures, arm and disarm keys (its own included) and
  /// destroy processes, but nothing it schedules or arms may precede
  /// now.  When it disarms its own key, the returned instant is ignored.
  virtual TimePoint arrive(std::uint32_t key) = 0;

 private:
  friend class EventQueue;
  EventQueue* queue_ = nullptr;
  std::uint32_t index_ = 0;  // into EventQueue::processes_
};

class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue();

  /// Schedules `fn` to run once at absolute time `at`.
  void schedule(TimePoint at, Callback fn);

  /// Arms `key` of `process` at absolute time `at`; arming at infinity
  /// arms nothing.
  void arm(TimePoint at, ArrivalProcess& process, std::uint32_t key);

  /// Takes every armed entry of `key` of `process` out of the heap;
  /// returns false when there was none.  O(size()).
  bool disarm(ArrivalProcess& process, std::uint32_t key);
  /// Takes every armed entry of `process` out of the heap; returns
  /// false when there was none.  O(size()).
  bool disarm(ArrivalProcess& process);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending entry; infinity when empty.  Inline:
  /// the slot engine polls this several times per slot.
  [[nodiscard]] TimePoint next_time() const {
    return heap_.empty() ? TimePoint::infinity() : heap_.front().time;
  }

  /// Fires the earliest entry: sets `now` to its time, then runs its
  /// closure, or calls its process's arrive() and re-keys the entry with
  /// the returned instant (drawing the new sequence number after arrive()
  /// returns) or drops it on infinity.  Throws ConfigError when empty.
  void fire_next(TimePoint& now);

  /// Closure store slots ever allocated (capacity diagnostics; slots are
  /// recycled, so this plateaus at the peak number of pending closures).
  [[nodiscard]] std::size_t slab_slots() const { return closures_.size(); }

 private:
  friend class ArrivalProcess;

  struct HeapEntry {
    TimePoint time;
    std::uint64_t seq = 0;
    std::uint32_t ref = 0;      // closure: store slot; arrival: key
    std::uint32_t process = 0;  // 0: closure; else index into processes_

    [[nodiscard]] bool before(const HeapEntry& o) const {
      if (time != o.time) return time < o.time;
      return seq < o.seq;
    }
  };
  static_assert(sizeof(HeapEntry) == 24, "heap entries stay 24 bytes");

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void heap_push(HeapEntry e);
  void heap_pop_top();
  /// Erases the entries `match` selects and re-heapifies; returns false
  /// when none matched.
  template <typename Match>
  bool purge(Match match);
  void attach(ArrivalProcess& p);
  /// Disarms `p` and forgets it.
  void detach(ArrivalProcess& p);

  std::vector<Callback> closures_;
  std::vector<std::uint32_t> free_;   // recycled closure slots (LIFO)
  std::vector<HeapEntry> heap_;       // flat binary min-heap
  // Attached processes by index; index 0 is the closure marker.
  std::vector<ArrivalProcess*> processes_{nullptr};
  std::uint64_t next_seq_ = 1;
};

}  // namespace ccredf::sim
