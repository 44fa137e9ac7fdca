// Slotted range pool: the storage primitive behind the CSR dependency
// graph layout (DESIGN.md §13). Every slot (a node's in-edge list, a
// node's out-edge list, a reference's node list, a node's static
// evidence) owns a contiguous [begin, begin+count) range of one shared
// buffer instead of its own heap-allocated std::vector. After the graph
// settles, Compact() rewrites the buffer into true CSR form: ranges laid
// out back to back in slot order with zero slack.
//
// Mutation keeps vector semantics on a shared buffer:
//  - Append writes into the range's slack when it has any, and otherwise
//    relocates the range to the end of the buffer with doubled capacity
//    (the old bytes become garbage until the next Compact). Element order
//    is preserved, so iteration order — which the solver's determinism
//    leans on — is exactly what per-slot vectors would produce.
//  - RemoveFirst swap-deletes (moves the last element into the hole),
//    matching the graph's historical removal idiom.
//
// Spans returned by span()/mutable_span() are invalidated by any Append
// or Compact on the same pool, like vector iterators on push_back.
//
// The pool tracks its live element count and the garbage its relocations
// and clears left behind, so an incremental owner can repack only when
// garbage outweighs live data (amortized O(1) per mutation) instead of on
// every batch.

#ifndef RECON_GRAPH_RANGE_POOL_H_
#define RECON_GRAPH_RANGE_POOL_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/logging.h"

namespace recon {

/// Reserves room for `n` elements, at least doubling the capacity whenever
/// it has to grow: a sequence of slightly larger reserves then reallocates
/// O(log n) times, where plain reserve(n) would reallocate on every call.
template <typename Vector>
void ReserveGeometric(Vector& v, size_t n) {
  if (n > v.capacity()) v.reserve(std::max(n, 2 * v.capacity()));
}

template <typename T>
class RangePool {
 public:
  /// Grows the slot array to at least `n` slots (new slots are empty).
  void EnsureSlots(size_t n) {
    if (slots_.size() < n) slots_.resize(n);
  }
  size_t num_slots() const { return slots_.size(); }

  uint32_t count(size_t slot) const { return slots_[slot].count; }

  std::span<const T> span(size_t slot) const {
    const Range& r = slots_[slot];
    return {data_.data() + r.begin, r.count};
  }
  std::span<T> mutable_span(size_t slot) {
    Range& r = slots_[slot];
    return {data_.data() + r.begin, r.count};
  }

  void Append(size_t slot, const T& value) {
    Range& r = slots_[slot];
    if (r.count == r.cap) Grow(r);
    data_[r.begin + r.count] = value;
    ++r.count;
    ++live_;
  }

  /// Swap-deletes the first element matching `pred`; returns whether one
  /// was found. The freed tail element stays as slack for later appends.
  template <typename Pred>
  bool RemoveFirst(size_t slot, Pred pred) {
    Range& r = slots_[slot];
    T* base = data_.data() + r.begin;
    for (uint32_t i = 0; i < r.count; ++i) {
      if (pred(base[i])) {
        base[i] = base[r.count - 1];
        --r.count;
        --live_;
        return true;
      }
    }
    return false;
  }

  /// Empties a slot. Its buffer range becomes garbage until Compact().
  void Clear(size_t slot) {
    Range& r = slots_[slot];
    live_ -= r.count;
    reserved_ -= r.cap;
    r.count = 0;
    r.cap = 0;
    r.begin = 0;
  }

  /// Rebuilds the buffer with ranges back to back in slot order and no
  /// garbage, in O(live capacity). Tight CSR (cap == count) by default.
  /// With `keep_capacity` every range keeps its slack, so a range that is
  /// still growing does not relocate again on its next append — the
  /// incremental repack, which would otherwise refill with garbage at once.
  void Compact(bool keep_capacity = false) {
    std::vector<T> packed;
    packed.reserve(keep_capacity ? reserved_ : live_);
    for (Range& r : slots_) {
      const uint32_t begin = static_cast<uint32_t>(packed.size());
      packed.insert(packed.end(), data_.begin() + r.begin,
                    data_.begin() + r.begin + r.count);
      if (keep_capacity) {
        packed.resize(packed.size() + (r.cap - r.count));
      } else {
        r.cap = r.count;
      }
      r.begin = begin;
    }
    data_ = std::move(packed);
    reserved_ = data_.size();
    if (keep_capacity) return;
    // The range table grew geometrically (ReserveSlots, EnsureSlots); now
    // that the true slot count is known, release the slack (the data
    // buffer is already exact — `packed` was reserved to count).
    slots_.shrink_to_fit();
  }

  /// Capacity for `n` slots / `extra` more buffer elements, grown
  /// geometrically (see ReserveGeometric).
  void ReserveSlots(size_t n) { ReserveGeometric(slots_, n); }
  void ReserveAppend(size_t extra) {
    ReserveGeometric(data_, data_.size() + extra);
  }

  /// Live elements across all slots.
  size_t TotalCount() const { return live_; }
  /// Buffer elements owned by no range: space left behind by relocations
  /// and clears, reclaimed only by Compact(). (Slack inside a range's
  /// capacity is not garbage: its next appends land there.)
  size_t garbage() const { return data_.size() - reserved_; }
  /// Heap bytes held by the shared buffer.
  size_t data_bytes() const { return data_.capacity() * sizeof(T); }
  /// Heap bytes held by the per-slot range table.
  size_t slot_bytes() const { return slots_.capacity() * sizeof(Range); }

 private:
  struct Range {
    uint32_t begin = 0;
    uint32_t count = 0;
    uint32_t cap = 0;
  };

  void Grow(Range& r) {
    const uint32_t new_cap = r.cap == 0 ? 2 : r.cap * 2;
    // A range already at the buffer's end extends in place.
    if (r.begin + r.cap == data_.size()) {
      data_.resize(data_.size() + (new_cap - r.cap));
      reserved_ += new_cap - r.cap;
      r.cap = new_cap;
      return;
    }
    const uint32_t new_begin = static_cast<uint32_t>(data_.size());
    RECON_CHECK(data_.size() + new_cap <
                static_cast<size_t>(UINT32_MAX));
    data_.resize(data_.size() + new_cap);
    for (uint32_t i = 0; i < r.count; ++i) {
      data_[new_begin + i] = data_[r.begin + i];
    }
    reserved_ += new_cap - r.cap;
    r.begin = new_begin;
    r.cap = new_cap;
  }

  std::vector<Range> slots_;
  std::vector<T> data_;
  /// Sum of range counts (live elements) and of range capacities.
  size_t live_ = 0;
  size_t reserved_ = 0;
};

}  // namespace recon

#endif  // RECON_GRAPH_RANGE_POOL_H_
