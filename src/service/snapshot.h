// Immutable reconciled snapshot served by the reconciliation daemon
// (DESIGN.md §12).
//
// A Snapshot freezes one reconciled state of a growing dataset into a
// read-only, shareable object: entity clusters, one merged attribute
// profile per entity with its values analyzed once, entity-level
// association links, and a candidate index keyed by the same blocking keys
// candidate generation uses. Query threads pin a snapshot with one atomic
// shared_ptr load and never take a lock; ingest builds the next snapshot on
// the side and swaps the pointer (service.h).
//
// Generations share structure. What depends only on an entity's member set
// (profile, features, display name, blocking keys, member links) is one
// immutable EntityInfo, and the next generation reuses it for as long as
// the member set is unchanged. So is each shard of the candidate index the
// publish did not touch. Per publish, only the entities whose member set
// changed are built; the rest is integer work over the partition.

#ifndef RECON_SERVICE_SNAPSHOT_H_
#define RECON_SERVICE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/options.h"
#include "core/schema_binding.h"
#include "model/dataset.h"
#include "sim/class_sim.h"
#include "sim/value_store.h"
#include "util/budget.h"

namespace recon::service {

/// Dense id of an entity within one snapshot. Entities are ordered by their
/// smallest member RefId, so ids are deterministic; they are *not* stable
/// across snapshot generations (an ingest can merge entities).
using EntityId = int32_t;

/// One "which entity is this reference?" query, the OpenRefine
/// reconciliation query shape: a main text, an optional type (class name),
/// and optional property constraints addressed by attribute name.
struct ReconQuery {
  /// Main query text, matched against the class's name-like attribute
  /// (Person.name, Article.title, Venue.name).
  std::string text;
  /// Class name to search; empty = every class with a similarity function.
  std::string type;
  /// (attribute name, value) constraints. Atomic attributes feed their
  /// evidence channel directly; association attributes (Article.authoredBy,
  /// Article.publishedIn) are matched against the names of the entities the
  /// candidate is linked to, at evidence level kArticle and above.
  std::vector<std::pair<std::string, std::string>> properties;
  /// Maximum candidates returned.
  int limit = 10;
};

/// One scored candidate entity.
struct ScoredCandidate {
  EntityId entity = -1;
  /// Per-class S_rv similarity in [0, 1] (paper §4; boolean graph evidence
  /// does not apply to online queries, which see profiles, not the graph).
  double score = 0.0;
  /// Confident auto-match: score >= merge_threshold and no other candidate
  /// reaches the threshold.
  bool match = false;
};

/// Result of one query against one snapshot.
struct QueryResult {
  std::vector<ScoredCandidate> candidates;
  /// Candidate entities scored before any budget stop.
  int num_scored = 0;
  /// True when a per-request budget stop truncated scoring; the candidates
  /// produced so far are still returned (anytime degradation, DESIGN.md
  /// §10 applied per request).
  bool degraded = false;
};

/// Per-entity reconciled state that depends only on the entity's member
/// set. Immutable once built, and shared by every snapshot generation in
/// which the member set stays the same.
struct EntityInfo {
  EntityInfo(int class_id, int num_attributes)
      : class_id(class_id), profile(class_id, num_attributes) {}

  int class_id;
  /// Source references, ascending. members[0] names the entity.
  std::vector<RefId> members;
  /// Human-readable label: first name-like profile value, else "".
  std::string display_name;
  /// The merged attribute profile: the members' atomic values, in member
  /// order, without repeats.
  Reference profile;
  /// Per attribute with a feature kind: the analyses of
  /// profile.atomic_values(attr), in the same order (empty otherwise).
  std::vector<std::vector<ValueFeatures>> features;
  /// Class-qualified blocking keys of the profile, ascending.
  std::vector<std::string> blocking_keys;
  /// Per association attribute: the references the members link to,
  /// ascending, without repeats.
  std::vector<std::vector<RefId>> link_refs;
  /// Rough heap footprint, for /stats.
  int64_t approximate_bytes = 0;
};

class Snapshot {
 public:
  /// Monotone snapshot generation (0 = initial load).
  uint64_t generation() const { return generation_; }

  int num_entities() const {
    return static_cast<int>(entities_.size());
  }
  int num_references() const { return num_references_; }

  const EntityInfo& entity(EntityId id) const { return *entities_[id]; }
  bool ValidEntity(EntityId id) const {
    return id >= 0 && id < num_entities();
  }

  /// The merged attribute profile of an entity: one Reference holding the
  /// union of the members' atomic values.
  const Reference& profile(EntityId id) const {
    return entities_[id]->profile;
  }
  const Schema& schema() const { return *schema_; }

  /// Entities linked to `id` through association attribute `attr`
  /// (deduplicated, ascending); empty for an atomic attribute. Mapped from
  /// the members' links on each call, so a publish never touches the links
  /// of entities it did not rebuild.
  std::vector<EntityId> linked(EntityId id, int attr) const;

  /// Entity of a source reference, or -1 out of range.
  EntityId EntityOfRef(RefId ref) const {
    return ref >= 0 && ref < static_cast<RefId>(ref_to_entity_.size())
               ? ref_to_entity_[ref]
               : -1;
  }

  /// Scores `query` against the candidate index: blocking-key lookup, then
  /// per-class S_rv scoring of the query's values against each candidate's
  /// profile features. Pure const — safe from any number of threads.
  /// `budget` (optional) is the per-request deadline: a stop truncates the
  /// candidate sweep and marks the result degraded.
  QueryResult Query(const ReconQuery& query,
                    BudgetTracker* budget = nullptr) const;

  /// Approximate heap footprint (profiles + features + index), for /stats.
  int64_t approximate_bytes() const { return approximate_bytes_; }
  /// Blocks of the candidate index within max_block_size.
  int64_t num_blocking_keys() const { return num_blocking_keys_; }
  /// Entities whose EntityInfo this generation built rather than shared
  /// with the previous one (all of them for a from-scratch build).
  int entities_rebuilt() const { return entities_rebuilt_; }

  /// The candidate index as queries see it: blocking key -> entities,
  /// ascending, without the blocks over max_block_size. A full copy, for
  /// tests and diagnostics.
  std::map<std::string, std::vector<EntityId>> Blocks() const;

 private:
  friend std::shared_ptr<const Snapshot> BuildSnapshot(
      const Dataset& dataset, const std::vector<int>& clusters,
      const ReconcilerOptions& options, uint64_t generation,
      const Snapshot* previous);

  /// One shard of the candidate index: class-qualified blocking key ->
  /// the smallest members of the entities holding it, ascending. Entities
  /// are named by their smallest member because, unlike EntityIds, it
  /// stays put while other entities come and go. Blocks over
  /// max_block_size are kept, so that a publish can update them, and
  /// skipped at lookup.
  struct BlockShard {
    std::unordered_map<std::string, std::vector<RefId>> blocks;
  };
  const BlockShard& ShardOf(const std::string& key) const {
    return *shards_[std::hash<std::string>{}(key) & (shards_.size() - 1)];
  }

  /// Candidate entities of one class for a probe reference, ascending.
  /// `features` are the probe's value analyses, as BlockingKeys takes them.
  std::vector<EntityId> CandidateEntities(
      const Reference& probe,
      const std::vector<std::vector<ValueFeatures>>& features,
      int class_id) const;

  uint64_t generation_ = 0;
  int num_references_ = 0;
  std::shared_ptr<const Schema> schema_;
  std::vector<std::shared_ptr<const EntityInfo>> entities_;
  std::vector<EntityId> ref_to_entity_;
  /// The candidate index, in a power-of-two number of shards by key hash.
  /// Shards a publish does not touch are shared with the previous
  /// generation.
  std::vector<std::shared_ptr<const BlockShard>> shards_;
  int64_t num_index_keys_ = 0;
  int64_t num_blocking_keys_ = 0;
  int64_t index_bytes_ = 0;
  SchemaBinding binding_;
  ValueKindSchema kinds_;
  /// The service's evidence level, and the atomic channels at or below it.
  EvidenceLevel evidence_level_ = EvidenceLevel::kContact;
  std::vector<AtomicChannel> channels_;
  std::vector<std::unique_ptr<ClassSimilarity>> class_sims_;
  int max_block_size_ = 1000;
  int entities_rebuilt_ = 0;
  int64_t approximate_bytes_ = 0;
};

/// Builds an immutable snapshot from a reconciled dataset and its cluster
/// assignment (`clusters[ref]` = the smallest member of ref's cluster, as
/// Reconciler and IncrementalReconciler produce it). The dataset is read,
/// never retained: the snapshot owns independent profile storage, so the
/// caller may keep appending to its dataset afterwards.
///
/// With `previous` — a snapshot built from a prefix of the same dataset —
/// the new snapshot shares with it every EntityInfo whose member set is
/// unchanged, and every index shard no changed entity touches; only the
/// changed entities are built. The result equals a build without
/// `previous`. `previous` is only read, so readers may keep using it.
std::shared_ptr<const Snapshot> BuildSnapshot(
    const Dataset& dataset, const std::vector<int>& clusters,
    const ReconcilerOptions& options, uint64_t generation,
    const Snapshot* previous = nullptr);

}  // namespace recon::service

#endif  // RECON_SERVICE_SNAPSHOT_H_
