// Open-addressing hash map over 64-bit keys, built for hot paths.
//
// std::unordered_map allocates one node per insert, which would put the
// allocator back on the per-slot path the moment an index entry is added
// or removed.  FlatMap64 stores slots contiguously (linear probing,
// backward-shift deletion, power-of-two capacity): after the table has
// grown to its steady-state size, insert/find/erase never touch the heap.
// Values must be cheap to move; iteration order is unspecified.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace ccredf::core {

template <typename Value>
class FlatMap64 {
 public:
  FlatMap64() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Pre-sizes the table for `n` entries without rehashing on the way.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * kMaxLoadNum < n * kMaxLoadDen) cap *= 2;
    if (cap > slots_.size()) rehash(cap);
  }

  /// Inserts or overwrites; returns true when the key was new.
  bool insert(std::uint64_t key, Value value) {
    if (slots_.empty() ||
        (size_ + 1) * kMaxLoadDen > slots_.size() * kMaxLoadNum) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    std::size_t i = index_of(key);
    while (slots_[i].used) {
      if (slots_[i].key == key) {
        slots_[i].value = std::move(value);
        return false;
      }
      i = (i + 1) & mask_;
    }
    slots_[i].used = true;
    slots_[i].key = key;
    slots_[i].value = std::move(value);
    ++size_;
    return true;
  }

  [[nodiscard]] Value* find(std::uint64_t key) {
    if (slots_.empty()) return nullptr;
    std::size_t i = index_of(key);
    while (slots_[i].used) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  [[nodiscard]] const Value* find(std::uint64_t key) const {
    return const_cast<FlatMap64*>(this)->find(key);
  }
  [[nodiscard]] bool contains(std::uint64_t key) const {
    return find(key) != nullptr;
  }

  /// Removes `key`; returns false when absent.  Backward-shift deletion
  /// keeps probe chains intact without tombstones, so lookup cost never
  /// degrades with churn.
  bool erase(std::uint64_t key) {
    if (slots_.empty()) return false;
    std::size_t i = index_of(key);
    while (slots_[i].used && slots_[i].key != key) i = (i + 1) & mask_;
    if (!slots_[i].used) return false;
    std::size_t hole = i;
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (!slots_[j].used) break;
      const std::size_t ideal = index_of(slots_[j].key);
      // Move j back into the hole iff its ideal slot does not lie in the
      // (cyclic) open interval (hole, j].
      const bool reachable = hole <= j ? (ideal > hole && ideal <= j)
                                       : (ideal > hole || ideal <= j);
      if (!reachable) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].used = false;
    slots_[hole].value = Value{};
    --size_;
    return true;
  }

  void clear() {
    for (auto& s : slots_) {
      s.used = false;
      s.value = Value{};
    }
    size_ = 0;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    Value value{};
    bool used = false;
  };

  static constexpr std::size_t kMinCapacity = 16;
  // Max load factor 7/8: probes stay short, memory stays modest.
  static constexpr std::size_t kMaxLoadNum = 7;
  static constexpr std::size_t kMaxLoadDen = 8;

  [[nodiscard]] std::size_t index_of(std::uint64_t key) const {
    // Fibonacci mixing spreads sequential ids across the table.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
           mask_;
  }

  void rehash(std::size_t new_cap) {
    CCREDF_ASSERT((new_cap & (new_cap - 1)) == 0);
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{});
    mask_ = new_cap - 1;
    size_ = 0;
    for (auto& s : old) {
      if (s.used) insert(s.key, std::move(s.value));
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ccredf::core
