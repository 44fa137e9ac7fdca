// The dependency graph (paper §3.1): unique similarity nodes per element
// pair, typed directed dependency edges, and the local node-folding
// operation that implements reference enrichment (§3.3).
//
// Storage is a flat CSR layout (DESIGN.md §13): one dense node array plus
// shared range pools for in-edges, out-edges, per-reference node lists,
// and static evidence, and open-addressed flat pair indexes. Compact()
// packs the pools tight after bulk construction; incremental extension
// appends into slack / relocates, and CompactFragmented() repacks a pool
// only once its garbage outweighs its live data (DESIGN.md §17).

#ifndef RECON_GRAPH_DEP_GRAPH_H_
#define RECON_GRAPH_DEP_GRAPH_H_

#include <cstdint>
#include <algorithm>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/node.h"
#include "graph/pair_index.h"
#include "graph/range_pool.h"
#include "graph/value_pool.h"
#include "model/reference.h"

namespace recon {

/// Result of folding the pair nodes of a merged reference (enrichment).
struct MergeRefsResult {
  /// Nodes that gained new incoming dependencies and should be re-queued.
  std::vector<NodeId> gained_inputs;
  /// Nodes removed from the graph (their pairs now covered by survivors).
  std::vector<NodeId> folded;
};

/// Heap footprint of the graph's CSR storage (ReconcileStats::graph_*).
struct GraphBytes {
  size_t nodes = 0;    ///< Node array + pooled static evidence.
  size_t edges = 0;    ///< In- and out-edge pools (buffers + range tables).
  size_t indices = 0;  ///< Pair indexes + per-reference node lists.
  size_t total() const { return nodes + edges + indices; }
};

/// What one build step is about to add to the graph, for ReserveBuild.
/// Upper bounds are fine (a staged value pair may already have its node):
/// the numbers only size allocations.
struct GraphGrowth {
  size_t ref_pairs = 0;    ///< Reference-pair nodes.
  size_t value_pairs = 0;  ///< Value-pair nodes.
  size_t statics = 0;      ///< Static evidence entries.
  size_t edges = 0;        ///< Dependency edges (each is in- and out-listed).
};

/// Similarity dependency graph over references and attribute values.
///
/// The graph owns node/edge storage and the pair -> node indexes. It is
/// policy-free: which nodes and edges exist, and how similarities are
/// computed, is decided by the graph builder and the reconciler.
///
/// Span accessors (in_edges/out_edges/static_real/NodesOfRef) view the
/// shared pools directly and are invalidated by any mutation of the same
/// pool (AddEdge, folds, Compact) — copy first when mutating while
/// iterating.
class DependencyGraph {
 public:
  /// `num_references` fixes the RefId universe (for per-reference node
  /// lists); grow it later with AddReferences.
  explicit DependencyGraph(int num_references);

  /// Extends the RefId universe by `count` references (incremental
  /// reconciliation adds references to an existing graph).
  void AddReferences(int count) {
    RECON_CHECK_GE(count, 0);
    ref_pool_.EnsureSlots(ref_pool_.num_slots() + count);
    ref_epoch_.resize(ref_pool_.num_slots(), 0);
  }

  DependencyGraph(const DependencyGraph&) = delete;
  DependencyGraph& operator=(const DependencyGraph&) = delete;

  // ---- Construction -----------------------------------------------------

  /// Adds the node for reference pair (r1, r2); returns the existing node
  /// if already present. References must differ.
  NodeId AddRefPairNode(int class_id, RefId r1, RefId r2);

  /// Adds the node for value pair (v1, v2) with an initial similarity and
  /// state; returns the existing node if present (initial values are then
  /// left untouched). Values must differ.
  NodeId AddValuePairNode(ValueId v1, ValueId v2, double sim,
                          NodeState state);

  /// Adds a directed dependency edge `from -> to` (to's similarity depends
  /// on from's). Duplicate (from, to, kind, evidence) edges are ignored.
  void AddEdge(NodeId from, NodeId to, DependencyKind kind, int evidence);

  /// Records `sim` as static evidence for (`id`, `evidence`), keeping the
  /// max, and absorbs it into `id`'s evidence cache.
  void AddStaticReal(NodeId id, int evidence, double sim);

  /// Sizes the node array, pools, and pair indexes for `growth` more of
  /// each, as counted from staged evidence (cuts rehash and relocation
  /// churn while it is applied). Capacity grows geometrically, so a build
  /// reserving window by window, or repeated incremental extensions,
  /// reallocate O(log n) times.
  void ReserveBuild(const GraphGrowth& growth);

  /// Packs every pool into tight CSR form (ranges back to back, no slack,
  /// no garbage from folds/relocations) and drops the slack of the pair
  /// indexes. The node array keeps its capacity: its unwritten tail is
  /// not resident, and shrinking it would copy the whole array. Call
  /// once after bulk construction; spans are invalidated.
  void Compact();

  /// The incremental counterpart of Compact(): repacks only the pools whose
  /// garbage exceeds their live data, and keeps every capacity (node
  /// array, pair indexes, and each range's slack), so the cost is
  /// amortized O(1) per pool mutation. Spans are invalidated.
  void CompactFragmented();

  /// Pool repacks so far (Compact() counts one per pool).
  int64_t num_compactions() const { return num_compactions_; }

  // ---- Lookup -----------------------------------------------------------

  NodeId FindRefPair(RefId r1, RefId r2) const;

  const Node& node(NodeId id) const { return nodes_[id]; }
  Node& mutable_node(NodeId id) { return nodes_[id]; }

  std::span<const Edge> in_edges(NodeId id) const { return in_pool_.span(id); }
  std::span<const Edge> out_edges(NodeId id) const {
    return out_pool_.span(id);
  }
  int in_degree(NodeId id) const { return static_cast<int>(in_pool_.count(id)); }
  std::span<const StaticReal> static_real(NodeId id) const {
    return static_pool_.span(id);
  }

  /// Sets `id`'s processing state, invalidating dependents' evidence
  /// caches when the transition changes how `id` contributes evidence
  /// (into or out of kNonMerge excludes / re-admits its similarity; a
  /// merge flips boolean counts). Callers outside the solver's Step()
  /// must use this instead of writing `state` directly: Step() keeps the
  /// caches consistent itself via delta pushes. Returns whether the state
  /// changed.
  ///
  /// This is the path of constraints and user feedback: a reference pair
  /// set to kNonMerge becomes a negative-propagation source, also when it
  /// was already kNonMerge as a derived pair. Leaving kNonMerge clears the
  /// derived bit.
  bool SetNodeState(NodeId id, NodeState state);

  /// The §3.4 triangle rule's demotion: moves reference pair `id` into
  /// kNonMerge as a derived pair, which is never a negative-propagation
  /// source. A pair already in kNonMerge keeps its bit. Returns whether
  /// the state changed.
  bool DemoteDerived(NodeId id);

  /// Clears the cached evidence summaries of every node whose similarity
  /// depends on `id` (its out-edge targets).
  void InvalidateDependentCaches(NodeId id);

  /// Live reference-pair nodes containing reference `r`.
  std::span<const NodeId> NodesOfRef(RefId r) const {
    return ref_pool_.span(static_cast<size_t>(r));
  }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  /// Nodes not yet folded away (Table 6 reports this).
  int num_live_nodes() const { return num_live_nodes_; }
  int num_edges() const { return num_edges_; }
  /// Live reference pairs in kNonMerge. Those not derived are the sources
  /// a full negative-propagation pass examines.
  int num_non_merge_pairs() const { return num_non_merge_pairs_; }
  /// The derived ones among them: demoted by the triangle rule, and
  /// neither constrained nor marked distinct since.
  int num_derived_non_merge_pairs() const {
    return num_derived_non_merge_pairs_;
  }

  /// Reference pairs that left kMerged so far (demoted, or folded away).
  int64_t num_unmerged_pairs() const { return num_unmerged_pairs_; }
  /// The reference pairs that left kMerged since the previous call, in
  /// order (a pair that did so twice is listed twice).
  std::vector<NodeId> TakeUnmerged() { return std::exchange(unmerged_, {}); }

  /// Current heap footprint of the CSR storage, by pool family. The node
  /// array counts its written nodes, not its capacity (see Compact).
  GraphBytes bytes() const;

  // ---- Enrichment (§3.3) ------------------------------------------------

  /// Reference enrichment after merging `gone` into `keep`: every pair node
  /// (gone, x) is folded into (keep, x) — neighbors reconnected, the node
  /// removed — or renamed to (keep, x) if no such node exists. The node for
  /// the pair (keep, gone) itself is left in place (it records the merge).
  ///
  /// If a folded-away node was in state kNonMerge, the surviving node
  /// becomes kNonMerge (a cluster cannot merge with a reference that is
  /// constrained apart from one of its members). It inherits the derived
  /// bit, except that a source on either side makes the survivor a source.
  MergeRefsResult MergeReferences(RefId keep, RefId gone);

  // ---- Change record for negative propagation (DESIGN.md §17) ----------
  // Negative propagation only revisits triangles that contain a change,
  // and only from sources: the non-merge pairs that are not derived.
  // Changes are recorded in epochs: the graph marks every reference-pair
  // node it creates, kills, re-keys, moves between states, or promotes to
  // a source, and marking a node marks both its endpoints. Sim raises need
  // no mark: sims only rise, and only outside kNonMerge, so a triangle's
  // weaker side — already demoted — stays the weaker side. Each pass
  // closes the current epoch with CloseChangeEpoch().

  /// Records reference pair `id` and its endpoints as changed; no-op for
  /// value pairs.
  void MarkDirty(NodeId id) {
    Node& node = nodes_[id];
    if (!node.IsRefPair()) return;
    node.mark_epoch = static_cast<uint8_t>(epoch_);
    MarkRefDirty(static_cast<RefId>(node.a));
    MarkRefDirty(static_cast<RefId>(node.b));
    if (changed_overflow_) return;
    // Past an eighth of the graph (a fresh build) the list stops paying:
    // everything counts as changed.
    if (changed_.size() * 8 >= std::max<size_t>(nodes_.size(), 32768)) {
      changed_overflow_ = true;
      changed_ = {};
    } else {
      changed_.push_back(id);
    }
  }

  /// What one change epoch touched.
  struct ChangeSet {
    /// Live non-derived non-merge reference pairs with an endpoint marked,
    /// ascending: every source whose triangles may contain a change.
    std::vector<NodeId> sources;
    /// The reference pairs marked, ascending (some may be dead by now).
    std::vector<NodeId> nodes;
    /// Too many marks to list: `nodes` is empty and every pair counts as
    /// changed.
    bool all_nodes = false;
  };
  /// Closes the current epoch and reports what it touched.
  ChangeSet CloseChangeEpoch();
  /// Whether node `id` was marked in the epoch the latest
  /// CloseChangeEpoch() closed, or since.
  bool IsNodeDirty(NodeId id) const {
    const uint8_t since = static_cast<uint8_t>(
        nodes_[id].mark_epoch - static_cast<uint8_t>(closed_epoch_));
    return since <= 1;
  }
  /// Whether live pair `id`, one of whose endpoints is `r`, is listed in
  /// NodesOfRef(r). Enrichment keeps merged pairs (and the merging pair)
  /// under their key but drops them from the merged-away reference's list;
  /// those are the exceptions.
  bool InRefList(RefId r, NodeId id) const {
    return !orphans_.contains(OrphanKey(r, id));
  }

 private:
  static uint64_t PairKey(int32_t a, int32_t b) {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
           static_cast<uint32_t>(b);
  }

  /// Appends a node and opens its pool slots.
  NodeId PushNode(Node&& node);

  /// Moves all of `from`'s edges onto `into` (dropping would-be self
  /// loops), marks `from` dead. Returns true if `into` gained at least one
  /// new incoming edge.
  bool FoldInto(NodeId from, NodeId into);

  /// Removes the (source -> target) entry from source's out list and
  /// target's in list.
  void DetachEdge(NodeId source, NodeId target, DependencyKind kind,
                  int16_t evidence);

  void RemoveFromRefLists(NodeId id);

  void MarkRefDirty(RefId r) { ref_epoch_[static_cast<size_t>(r)] = epoch_; }
  static uint64_t OrphanKey(RefId r, NodeId id) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(r)) << 32) |
           static_cast<uint32_t>(id);
  }

  /// The state transition behind SetNodeState and DemoteDerived.
  bool Transition(NodeId id, NodeState state, bool derived);

  /// Counts a reference pair that just entered kNonMerge, and registers it
  /// as a source unless it is `derived`.
  void NoteNonMerge(NodeId id, bool derived) {
    Node& node = nodes_[id];
    if (!node.IsRefPair()) return;
    ++num_non_merge_pairs_;
    node.derived = derived;
    if (derived) {
      ++num_derived_non_merge_pairs_;
    } else {
      non_merge_.push_back({id, node.a, node.b});
    }
  }

  /// Makes derived non-merge pair `id` a source, and marks it so that the
  /// next pass examines all its triangles.
  void PromoteToSource(NodeId id) {
    Node& node = nodes_[id];
    node.derived = false;
    --num_derived_non_merge_pairs_;
    non_merge_.push_back({id, node.a, node.b});
    MarkDirty(id);
  }

  /// Uncounts a reference pair that left kNonMerge (or died in it).
  void NoteLeftNonMerge(NodeId id) {
    Node& node = nodes_[id];
    if (!node.IsRefPair()) return;
    --num_non_merge_pairs_;
    if (node.derived) --num_derived_non_merge_pairs_;
    node.derived = false;
  }

  /// Records reference pair `id` leaving kMerged.
  void NoteUnmerged(NodeId id) {
    if (!nodes_[id].IsRefPair()) return;
    unmerged_.push_back(id);
    ++num_unmerged_pairs_;
  }

  std::vector<Node> nodes_;
  RangePool<Edge> in_pool_;
  RangePool<Edge> out_pool_;
  RangePool<StaticReal> static_pool_;
  /// Slot per RefId: the live pair nodes containing that reference.
  RangePool<NodeId> ref_pool_;
  FlatPairIndex ref_pair_index_;
  FlatPairIndex value_pair_index_;
  /// Fold scratch (FoldInto must copy edge spans before pool mutation).
  std::vector<Edge> scratch_edges_;
  std::vector<NodeId> scratch_refs_;
  std::vector<StaticReal> scratch_statics_;
  /// Per RefId: the latest epoch that marked it (0 = never).
  std::vector<uint32_t> ref_epoch_;
  uint32_t epoch_ = 1;
  uint32_t closed_epoch_ = 1;
  /// Every reference pair that became a source, with the key it had then.
  /// An entry may go stale (the node re-keyed, died, or left the state,
  /// and maybe re-entered it as a derived pair), but each of those changes
  /// marks the stored endpoints, so CloseChangeEpoch() meets the entry and
  /// refreshes or drops it.
  struct NonMergeEntry {
    NodeId id;
    RefId a;
    RefId b;
  };
  std::vector<NonMergeEntry> non_merge_;
  /// Pairs marked in the current epoch (with repeats), unless
  /// changed_overflow_.
  std::vector<NodeId> changed_;
  bool changed_overflow_ = false;
  /// OrphanKey(r, id) of live pairs with endpoint r that NodesOfRef(r) does
  /// not list (see InRefList). Entries of pairs since re-keyed or killed
  /// linger harmlessly: they are only consulted for a current endpoint.
  std::unordered_set<uint64_t> orphans_;
  int num_live_nodes_ = 0;
  int num_edges_ = 0;
  int num_non_merge_pairs_ = 0;
  int num_derived_non_merge_pairs_ = 0;
  int64_t num_compactions_ = 0;
  /// Reference pairs that left kMerged since the last TakeUnmerged().
  std::vector<NodeId> unmerged_;
  int64_t num_unmerged_pairs_ = 0;
};

}  // namespace recon

#endif  // RECON_GRAPH_DEP_GRAPH_H_
