// Discrete-event core: one time-ordered heap holding two kinds of entry.
//
// A closure entry runs a callback once: periodic releases, faults, churn,
// link cuts, timeouts.  An arrival entry names a key of an ArrivalProcess
// (the workload generators): firing it calls the process's arrive(key),
// which returns that key's next instant, and the same entry is re-keyed
// in place -- an arrival stream costs one heap entry for its whole life
// and never touches callback storage.
//
// Entries at equal timestamps fire in scheduling order: both kinds draw
// from one strictly increasing sequence number (a re-keyed arrival draws
// a fresh one after arrive() returns), which keeps simulations
// deterministic regardless of heap internals.
//
// Storage is allocation-free in steady state: callbacks live in a slab of
// reusable slots (recycled through a free list), the heap is a flat binary
// heap of 24-byte {time, seq, slot-or-key, process} entries, and small
// closures are stored inline (sim/callback.hpp).  Cancellation is O(1)
// and frees the slot immediately -- the orphaned heap entry is recognised
// by its stale sequence number and skipped when it surfaces.
// Slab/heap/free-list capacity is retained across use, so a simulation
// that schedules and fires events at a steady rate performs zero heap
// allocations per event after warm-up.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace ccredf::sim {

using EventId = std::uint64_t;

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
  /// schedule or cancel closures, arm keys and destroy processes, but
  /// nothing it schedules or arms may precede now.
  virtual TimePoint arrive(std::uint32_t key) = 0;

 private:
  friend class EventQueue;
  EventQueue* queue_ = nullptr;
  std::uint32_t index_ = 0;  // into EventQueue::processes_
};

class EventQueue {
 public:
  using Callback = InlineCallback;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue();

  /// Schedules `fn` at absolute time `at`; returns a handle for cancel().
  EventId schedule(TimePoint at, Callback fn);

  /// Cancels a pending event; returns false if it already ran or was
  /// cancelled.  O(1): the slab slot is recycled immediately and the
  /// orphaned heap entry is skipped when it surfaces.
  bool cancel(EventId id);

  /// Arms `key` of `process` at absolute time `at`; arming at infinity
  /// arms nothing.
  void arm(TimePoint at, ArrivalProcess& process, std::uint32_t key);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest pending event; infinity when empty.  Non-const
  /// because it eagerly discards stale (cancelled) heap entries.  Inline:
  /// the slot engine polls this several times per slot.
  [[nodiscard]] TimePoint next_time() {
    drop_stale_heads();
    return heap_.empty() ? TimePoint::infinity() : heap_.front().time;
  }

  /// Fires the earliest entry: sets `now` to its time, then runs its
  /// closure, or calls its process's arrive() and re-keys the entry with
  /// the returned instant (drawing the new sequence number after arrive()
  /// returns) or drops it on infinity.  Throws ConfigError when empty.
  void fire_next(TimePoint& now);

  /// Reserves slab/heap capacity for `n` simultaneously pending events.
  void reserve(std::size_t n);

  /// Number of slab slots ever allocated (capacity diagnostics; slots are
  /// recycled, so this plateaus at the peak number of pending events).
  [[nodiscard]] std::size_t slab_slots() const { return slots_.size(); }

 private:
  friend class ArrivalProcess;

  // An EventId packs {generation, slot index} so stale handles (slot
  // recycled since) are rejected by cancel() in O(1).
  static constexpr std::uint32_t kIndexBits = 32;
  static EventId make_id(std::uint32_t gen, std::uint32_t index) {
    return (static_cast<EventId>(gen) << kIndexBits) | index;
  }
  static std::uint32_t id_index(EventId id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu);
  }
  static std::uint32_t id_gen(EventId id) {
    return static_cast<std::uint32_t>(id >> kIndexBits);
  }

  struct Slot {
    Callback fn;
    std::uint64_t seq = 0;   // of the current occupant; 0 = vacant
    std::uint32_t gen = 0;   // bumped each time the slot is vacated
  };
  struct HeapEntry {
    TimePoint time;
    std::uint64_t seq = 0;
    std::uint32_t ref = 0;      // closure: slab slot; arrival: key
    std::uint32_t process = 0;  // 0: closure; else index into processes_

    [[nodiscard]] bool before(const HeapEntry& o) const {
      if (time != o.time) return time < o.time;
      return seq < o.seq;
    }
  };
  static_assert(sizeof(HeapEntry) == 24, "heap entries stay 24 bytes");

  // Only closures go stale (by cancellation); a destroyed process's
  // arrivals leave the heap at once (detach()).
  [[nodiscard]] bool stale(const HeapEntry& e) const {
    return e.process == 0 && slots_[e.ref].seq != e.seq;
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void heap_push(HeapEntry e);
  void heap_pop_top();
  // Stale heads are rare (only cancellation creates them), so the loop
  // body almost never runs -- worth inlining into next_time()/fire_next().
  void drop_stale_heads() {
    while (!heap_.empty() && stale(heap_.front())) heap_pop_top();
  }
  void free_slot(std::uint32_t index);
  void attach(ArrivalProcess& p);
  /// Removes every entry of `p` from the heap and forgets `p`.
  void detach(ArrivalProcess& p);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;   // recycled slab indices (LIFO)
  std::vector<HeapEntry> heap_;       // flat binary min-heap
  // Attached processes by index; index 0 is the closure marker.
  std::vector<ArrivalProcess*> processes_{nullptr};
  std::uint64_t next_seq_ = 1;        // 0 marks a vacant slot
  std::size_t live_ = 0;
};

}  // namespace ccredf::sim
