// Open-addressed flat hash index from packed element-pair keys to node
// ids — the CSR layout's replacement for std::unordered_map pair indexes
// (DESIGN.md §13). One flat power-of-two slot array, linear probing,
// tombstone deletion; no per-entry allocation, ~13 bytes a slot.
//
// Keys are PairKey(a, b) = (min << 32) | max with a != b, so a key is
// never 0 (max >= 1) and never ~0 (min < max); those two values are free
// to mark empty and deleted slots.

#ifndef RECON_GRAPH_PAIR_INDEX_H_
#define RECON_GRAPH_PAIR_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/node.h"
#include "util/logging.h"

namespace recon {

class FlatPairIndex {
 public:
  FlatPairIndex() { Rehash(kMinCapacity); }

  NodeId Find(uint64_t key) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.key == key) return s.value;
      if (s.key == kEmpty) return kInvalidNode;
    }
  }

  /// try_emplace: returns {existing value, false} when `key` is present,
  /// else inserts and returns {value, true}.
  std::pair<NodeId, bool> Insert(uint64_t key, NodeId value) {
    MaybeGrow();
    const size_t mask = slots_.size() - 1;
    size_t free_slot = SIZE_MAX;
    for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.key == key) return {s.value, false};
      if (s.key == kTombstone) {
        if (free_slot == SIZE_MAX) free_slot = i;
      } else if (s.key == kEmpty) {
        if (free_slot == SIZE_MAX) {
          free_slot = i;
          ++used_;  // Claiming a virgin slot lengthens probe chains.
        }
        Slot& dst = slots_[free_slot];
        dst.key = key;
        dst.value = value;
        ++size_;
        return {value, true};
      }
    }
  }

  /// Inserts or overwrites (the rename path may retarget a key whose old
  /// entry points at a dead node).
  void InsertOrAssign(uint64_t key, NodeId value) {
    auto [existing, inserted] = Insert(key, value);
    if (inserted || existing == value) return;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.key == key) {
        s.value = value;
        return;
      }
      RECON_CHECK(s.key != kEmpty);
    }
  }

  bool Erase(uint64_t key) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.key == key) {
        s.key = kTombstone;
        --size_;
        return true;
      }
      if (s.key == kEmpty) return false;
    }
  }

  void Reserve(size_t n) {
    size_t cap = kMinCapacity;
    while (cap * 7 / 10 < n) cap *= 2;
    if (cap > slots_.size()) Rehash(cap);
  }

  /// Rehashes down to the smallest table that holds the live entries under
  /// the growth load factor, dropping tombstones. Build-boundary
  /// counterpart of Reserve(): the build reserves window by window from
  /// staged counts, which are upper bounds (a staged pair may already
  /// have its node), and capacity grows by doubling; the slots are
  /// touched, so that slack would otherwise stay resident for the whole
  /// solve.
  void ShrinkToFit() {
    size_t cap = kMinCapacity;
    while (cap * 7 / 10 < size_ + 1) cap *= 2;
    if (cap != slots_.size()) Rehash(cap);
  }

  size_t size() const { return size_; }
  size_t bytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  struct Slot {
    uint64_t key = kEmpty;
    NodeId value = kInvalidNode;
  };
  static constexpr uint64_t kEmpty = 0;
  static constexpr uint64_t kTombstone = ~0ULL;
  static constexpr size_t kMinCapacity = 16;

  static size_t Hash(uint64_t key) {
    // splitmix64 finalizer: full-avalanche over the packed pair.
    key ^= key >> 30;
    key *= 0xbf58476d1ce4e5b9ULL;
    key ^= key >> 27;
    key *= 0x94d049bb133111ebULL;
    key ^= key >> 31;
    return static_cast<size_t>(key);
  }

  void MaybeGrow() {
    // Tombstones count against the load factor: probe chains cross them.
    if ((used_ + 1) * 10 >= slots_.size() * 7) {
      Rehash(size_ + 1 >= slots_.size() * 7 / 20 ? slots_.size() * 2
                                                 : slots_.size());
    }
  }

  void Rehash(size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    used_ = size_;
    const size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.key == kEmpty || s.key == kTombstone) continue;
      size_t i = Hash(s.key) & mask;
      while (slots_[i].key != kEmpty) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;  ///< Live entries.
  size_t used_ = 0;  ///< Live entries + tombstones (probe-chain load).
};

}  // namespace recon

#endif  // RECON_GRAPH_PAIR_INDEX_H_
