// Interned value store with precomputed similarity features.
//
// The fixed-point solver re-scores the same attribute pairs many times as
// evidence propagates, and with O(n²) candidate pairs per block each
// distinct value used to be re-parsed and re-tokenized hundreds of times.
// The ValueStore analyzes every distinct interned value exactly once into
// what the comparators and blocking keys read — person names' lowercase
// form and parse, email parse, normalized title + tokens, venue token
// views, year, pages, location — and shares the resulting ValueFeatures
// read-only across pool threads. The SimMemo on top caches pairwise
// comparator results keyed by (evidence, min(ValueId), max(ValueId)) with a
// hard byte bound, so repeated re-scoring becomes a lookup and memory
// pressure degrades to eviction or bypass, never an abort (DESIGN.md §11).

#ifndef RECON_SIM_VALUE_STORE_H_
#define RECON_SIM_VALUE_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/value_pool.h"
#include "strsim/email.h"
#include "strsim/person_name.h"
#include "strsim/title.h"
#include "strsim/venue.h"

namespace recon {

/// What kind of analysis a value domain needs. Determines which ValueFeatures
/// fields are populated.
enum class FeatureKind : int {
  kGeneric = 0,  ///< No analysis: only the kind is recorded.
  kPersonName,
  kEmail,
  kTitle,
  kVenueName,
  kYear,
  kPages,
  kLocation,
};

/// Maps value domains (class, attribute) to feature kinds. Built by the
/// caller from its schema binding; the store itself stays schema-agnostic so
/// recon_sim does not depend on recon_core.
struct ValueKindSchema {
  std::vector<std::pair<ValueDomain, FeatureKind>> kinds;

  /// Kind registered for `domain`, or kGeneric when unregistered.
  FeatureKind KindOf(ValueDomain domain) const {
    for (const auto& [d, k] : kinds) {
      if (d == domain) return k;
    }
    return FeatureKind::kGeneric;
  }
};

/// Precomputed analysis of one distinct attribute value. Only `kind` and
/// the fields for the value's kind are populated.
struct ValueFeatures {
  FeatureKind kind = FeatureKind::kGeneric;

  /// kPersonName: ToLower(raw), for the identical-abbreviation check.
  std::string lower;
  strsim::PersonName name;          ///< kPersonName.
  strsim::EmailAddress email;       ///< kEmail.
  strsim::TitleFeatures title;      ///< kTitle.
  strsim::VenueFeatures venue;      ///< kVenueName.
  strsim::YearFeatures year;        ///< kYear.
  strsim::PagesFeatures pages;      ///< kPages.
  strsim::LocationFeatures location;  ///< kLocation.

  /// Rough heap footprint of this record, for memory accounting.
  int64_t ApproximateBytes() const;
};

/// Analyzes one raw value.
ValueFeatures AnalyzeValue(const std::string& raw, FeatureKind kind);

/// Feature table parallel to a ValuePool: features(id) is the analysis of
/// pool.StringOf(id). Populated by Sync() between parallel phases; reads are
/// lock-free and safe to share across threads while no Sync runs.
class ValueStore {
 public:
  explicit ValueStore(ValueKindSchema schema) : schema_(std::move(schema)) {}

  ValueStore(const ValueStore&) = delete;
  ValueStore& operator=(const ValueStore&) = delete;

  /// The domains whose values this store analyzes, with their kinds.
  const ValueKindSchema& schema() const { return schema_; }

  /// Extends the feature table to cover every ValueId in `pool`, analyzing
  /// only values added since the last Sync. Not thread-safe; call between
  /// parallel phases (after interning, before scoring).
  void Sync(const ValuePool& pool);

  /// Features of an interned value. `id` must be covered (id < size()).
  const ValueFeatures& features(ValueId id) const {
    return features_[static_cast<size_t>(id)];
  }

  /// True when `id` has been analyzed by a completed Sync.
  bool Covers(ValueId id) const {
    return id >= 0 && static_cast<size_t>(id) < features_.size();
  }

  int size() const { return static_cast<int>(features_.size()); }

  /// Number of distinct-value analyses performed — exactly one per interned
  /// value, regardless of how many pairs compare it.
  int64_t num_analyses() const { return static_cast<int64_t>(features_.size()); }

  /// Rough heap footprint of the feature table.
  int64_t approximate_bytes() const { return approximate_bytes_; }

 private:
  ValueKindSchema schema_;
  std::vector<ValueFeatures> features_;
  int64_t approximate_bytes_ = 0;
};

/// Scores a pair of analyzed values on an evidence channel with that
/// channel's field comparator (sim/comparators.h); the one scoring entry
/// point of the graph build, query scoring and Fellegi-Sunter. For
/// kEvPersonNameEmail the name/email sides are identified by kind, so
/// argument order does not matter.
/// Returns 0 for boolean or derived evidence channels that have no atomic
/// comparator.
double FeaturePairSimilarity(int evidence, const ValueFeatures& a,
                             const ValueFeatures& b);

/// Memo key holding the full (evidence, min(ValueId), max(ValueId))
/// triple. The ids pack exactly into 64 bits (ValueId is 32-bit); the
/// evidence channel lives in its own field rather than being folded into
/// spare id bits — the previous single-uint64 packing XORed the evidence
/// into bits 58+, which a ValueId >= 2^26 bled into, silently colliding
/// entries across evidence kinds at large scale.
struct MemoKey {
  uint64_t pair = 0;      ///< (min << 32) | max.
  uint32_t evidence = 0;

  bool operator==(const MemoKey& o) const {
    return pair == o.pair && evidence == o.evidence;
  }
};

struct MemoKeyHash {
  size_t operator()(const MemoKey& k) const {
    // splitmix64-style finalizer over the triple.
    uint64_t x =
        k.pair + (static_cast<uint64_t>(k.evidence) + 1) * 0x9e3779b97f4a7c15ull;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

/// Bounded, sharded memo of pairwise comparator results. Keys hold the
/// full (evidence, min(ValueId), max(ValueId)) triple — no lossy packing —
/// and values are stored as float to match their rounding.
/// Compute runs under the shard lock, so the number of misses equals the
/// number of distinct keys requested — deterministic across thread counts
/// as long as nothing is evicted. When a shard would exceed its share of the
/// byte bound it is cleared (eviction); a bound too small to be useful turns
/// the memo into a pass-through (bypass). Never an abort.
class SimMemo {
 public:
  SimMemo() = default;
  SimMemo(const SimMemo&) = delete;
  SimMemo& operator=(const SimMemo&) = delete;

  /// Sets the total byte bound across all shards. <= 0 or too tiny for even
  /// a handful of entries per shard puts the memo in bypass mode.
  void set_max_bytes(int64_t max_bytes);

  /// Returns the memoized similarity for (evidence, v1, v2), computing it
  /// via `compute` (a double() callable) on first sight. Returns float, so
  /// a result rounds the same whether it was memoized, computed or
  /// bypassed. `hits`/`misses` are per-lane counters owned by the caller
  /// (no contention).
  template <typename Compute>
  float LookupOrCompute(int evidence, ValueId v1, ValueId v2,
                        Compute&& compute, int64_t* hits, int64_t* misses) {
    if (bypass_) {
      ++*misses;
      bypasses_.fetch_add(1, std::memory_order_relaxed);
      return static_cast<float>(compute());
    }
    const MemoKey key = MakeKey(evidence, v1, v2);
    Shard& shard = shards_[MemoKeyHash{}(key) % kNumShards];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      ++*hits;
      return it->second;
    }
    ++*misses;
    if (static_cast<int64_t>(shard.map.size() + 1) * kEntryBytes >
        per_shard_cap_) {
      bytes_.fetch_sub(static_cast<int64_t>(shard.map.size()) * kEntryBytes,
                       std::memory_order_relaxed);
      shard.map.clear();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    const float sim = static_cast<float>(compute());
    shard.map.emplace(key, sim);
    bytes_.fetch_add(kEntryBytes, std::memory_order_relaxed);
    return sim;
  }

  /// Approximate bytes currently held across all shards.
  int64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  /// Number of shard clears forced by the byte bound.
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Number of lookups answered without caching (bound too small).
  int64_t bypasses() const {
    return bypasses_.load(std::memory_order_relaxed);
  }

  /// Key for (evidence, v1, v2) with the ids order-normalized, so both
  /// argument orders share one entry.
  static MemoKey MakeKey(int evidence, ValueId v1, ValueId v2) {
    const uint64_t lo = static_cast<uint64_t>(
        static_cast<uint32_t>(std::min(v1, v2)));
    const uint64_t hi = static_cast<uint64_t>(
        static_cast<uint32_t>(std::max(v1, v2)));
    return MemoKey{(lo << 32) | hi, static_cast<uint32_t>(evidence)};
  }

  /// Estimated heap cost of one map entry (node + bucket overhead).
  static constexpr int64_t kEntryBytes = 56;

 private:
  static constexpr int kNumShards = 64;

  struct Shard {
    std::mutex mu;
    std::unordered_map<MemoKey, float, MemoKeyHash> map;
  };

  Shard shards_[kNumShards];
  int64_t per_shard_cap_ = 0;
  bool bypass_ = true;  ///< Until set_max_bytes grants a usable bound.
  std::atomic<int64_t> bytes_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> bypasses_{0};
};

}  // namespace recon

#endif  // RECON_SIM_VALUE_STORE_H_
