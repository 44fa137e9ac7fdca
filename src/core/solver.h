// The queue-driven fixed-point solver at the heart of Figure 4. Exposed
// (rather than buried in reconciler.cc) so that incremental reconciliation
// can keep one solver alive across batches of new references.

#ifndef RECON_CORE_SOLVER_H_
#define RECON_CORE_SOLVER_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/graph_builder.h"
#include "core/options.h"
#include "core/reconciler_stats.h"
#include "model/dataset.h"
#include "util/budget.h"
#include "util/ring_buffer.h"
#include "util/union_find.h"

namespace recon {

/// Runs the reconciliation fixed point over a built dependency graph.
///
/// The solver owns the active-node queue and the reference union-find that
/// canonicalizes merged references for enrichment. It may be re-entered:
/// enqueue more nodes (e.g. for newly added references) and call Run()
/// again; merged state, non-merge constraints, and cluster canonicalization
/// carry over.
class FixedPointSolver {
 public:
  /// `dataset`, `built` and `stats` must outlive the solver. `budget`
  /// (optional, must outlive the solver while set) carries the run's
  /// execution budget; without one the solver still degrades gracefully
  /// at its convergence safety cap instead of aborting.
  FixedPointSolver(const Dataset& dataset, BuiltGraph& built,
                   const ReconcilerOptions& options, ReconcileStats* stats,
                   BudgetTracker* budget = nullptr);

  FixedPointSolver(const FixedPointSolver&) = delete;
  FixedPointSolver& operator=(const FixedPointSolver&) = delete;

  /// Marks `nodes` active and appends them to the queue (dead, non-merge,
  /// and already-queued nodes are skipped).
  void EnqueueNodes(const std::vector<NodeId>& nodes);

  /// Drains the queue to the fixed point (§3.2), one node at a time in
  /// queue order (FIFO plus strong-boolean queue jumps).
  ///
  /// Budget exhaustion (DESIGN.md §10) never aborts: the current pop
  /// finishes (merge, enrichment, and propagation pushes included), then
  /// the drain freezes — no further pops — leaving the pending queue
  /// intact, so a later Run() with a fresh budget resumes exactly where
  /// this one stopped. Iteration and merge budgets stop
  /// after a prefix of the canonical pop sequence, so their results are
  /// identical at every thread count.
  void Run();

  /// Replaces the budget tracker for the next Run() (nullptr restores the
  /// solver's own unlimited tracker). The incremental reconciler installs
  /// a fresh tracker per flush.
  void set_budget(BudgetTracker* budget) {
    budget_ = budget != nullptr ? budget : own_budget_.get();
  }

  /// True when a previous Run() froze with queued work remaining (a
  /// degraded stop); the next Run() continues the drain.
  bool HasPendingWork() const { return !queue_.empty(); }

  /// §3.4 step 3: post-fixpoint propagation of negative evidence. Called
  /// by the reconciler after Run() when constraints are enabled.
  ///
  /// Sources are the non-merge pairs set by constraints and "distinct"
  /// feedback. The pairs the pass demotes are marked derived and are never
  /// sources of a later pass (DESIGN.md §5), so negative evidence does not
  /// cascade one triangle further with every flush.
  ///
  /// Examines only the triangles that contain a pair changed since the
  /// previous pass (DESIGN.md §17) — all of them on a fresh build — so an
  /// incremental flush pays for its batch's neighborhood, not the graph,
  /// with exactly the full pass's outcome. Records the sources examined in
  /// stats.negprop_sources.
  ///
  /// With `closure_only` the pass skips source pairs whose demotions
  /// cannot touch a merged node and therefore cannot change this run's
  /// closure — the partition is identical, and a degraded (early-frozen)
  /// solve pays for constraint enforcement in proportion to the merges it
  /// actually made. Only valid when the solver is discarded afterwards
  /// (the batch path): the skipped kNonMerge demotions persist as
  /// negative evidence that later Run()s consult, so the incremental
  /// reconciler must not skip them.
  void PropagateNegativeEvidence(bool closure_only = false);

  /// The fixpoint invariant of the dirty-set pass: re-runs the triangle
  /// sweep over every reference, from every source (all non-merge pairs
  /// that are not derived), and returns the number of node states that
  /// changed. Zero means the latest pass did everything a full pass would
  /// have. Costs a full pass; leaves the dirty record alone.
  int64_t RecheckNegativeEvidence();

  /// The evidence-cache invariant: a valid cache equals a fresh rescan of
  /// the node's in-edges. Rebuilds the summary of every live node whose
  /// cache is valid and returns how many differ (reference pairs: every
  /// channel maximum and both merged-neighbor counts; value pairs: whether
  /// any strong-boolean neighbor merged). Zero means the delta pushes and
  /// invalidations kept every cache exact. Costs one full rescan.
  int64_t RecheckEvidenceCaches() const;

  /// Transitive closure over merged pairs. Each reference maps to its
  /// cluster's smallest member id (canonical, independent of merge order).
  /// Also reports the directly merged pairs when `merged_pairs` is
  /// non-null.
  std::vector<int> Closure(
      std::vector<std::pair<RefId, RefId>>* merged_pairs) const;

  /// What changed the closure's input since the previous call: the
  /// reference pairs that entered kMerged, and the merged reference pairs
  /// that left it — demoted by negative evidence or a later batch's
  /// constraints, or folded away. A pair may appear in both lists, and
  /// more than once; the node's current state is the final word.
  struct MergeChanges {
    std::vector<NodeId> merged;
    std::vector<NodeId> unmerged;
  };
  MergeChanges TakeMergeChanges() {
    return {std::exchange(merged_log_, {}), graph_.TakeUnmerged()};
  }

  /// Grows the reference universe (call after Dataset/graph grew).
  void GrowReferences(int count) { refs_.Grow(count); }

  /// The union-find over references maintained by enrichment.
  UnionFind& refs() { return refs_; }

 private:
  /// Budget gate before every queue pop: probes the tracker and spends one
  /// iteration. True = freeze the drain now (the pending pop stays queued).
  bool StopBeforePop(int64_t* iterations, int64_t iteration_cap);

  /// §3.4's triangle rule for source `lid` = (r1, r2): DemoteInTriangle
  /// for every pair (r1, r3) in NodesOfRef(r1). Returns the demotions.
  int DemoteAcrossTriangles(NodeId lid);
  /// One triangle: when `mid` = (r1, r3) is a live pair other than the
  /// source and the live pair (r2, r3) exists, demotes the weaker of the
  /// two to a derived non-merge pair. Returns whether its state changed.
  bool DemoteInTriangle(NodeId lid, NodeId mid);

  void Step(NodeId id);
  /// The write half of Step: state transition, merge, enrichment, delta
  /// pushes, dependent re-activation.
  void Commit(NodeId id, Node& node, double computed);
  void EnrichReferences(NodeId id);
  void Enqueue(NodeId id, bool front);

  // ---- Delta-propagated evidence caching ----
  // Each node's cached EvidenceSummary is born valid (empty node, empty
  // summary) and kept equal to what a full in-edge rescan would produce:
  // the graph layer absorbs additive mutations (new edges, statics), Step()
  // pushes a node's raised sim along its real-valued out-edges and bumps
  // merged-neighbor counts along boolean out-edges at the merge
  // transition, and subtractive surgery (non-merge demotion, lost fold
  // inputs) invalidates the affected caches so they rescan exactly once on
  // their next recomputation. See DESIGN.md, "Delta-propagated evidence caching".

  /// The node's similarity (§3.2), served from its cache, rebuilding it
  /// first when invalid.
  double CachedSimilarity(NodeId id, Node& node);
  /// Full in-edge rescan into `*cache` (the one-time fallback); in-edge
  /// reads land in `*scans`.
  void BuildCacheSummary(NodeId id, EvidenceSummary* cache,
                         int64_t* scans) const;
  /// The similarity `node`'s (valid) cached summary yields.
  double ScoreFromCache(const Node& node) const;
  /// Offers `node.sim` to every real-valued dependent's valid cache.
  void PushSimDelta(NodeId id, const Node& node);
  /// Bumps merged-neighbor counts in boolean dependents' valid caches.
  /// Called exactly once per node, at its kMerged transition.
  void PushMergeDelta(NodeId id);

  const Dataset& dataset_;
  BuiltGraph& built_;
  DependencyGraph& graph_;
  const ReconcilerOptions& options_;
  ReconcileStats* stats_;
  /// Fallback tracker (unlimited budget) for callers that pass none, so
  /// the drain has exactly one budget code path.
  std::unique_ptr<BudgetTracker> own_budget_;
  BudgetTracker* budget_;
  /// Merge budget for the current Run() (0 = unlimited) and the merges
  /// committed so far in it.
  int64_t merge_cap_ = 0;
  int64_t merges_this_run_ = 0;
  UnionFind refs_;
  RingDeque<NodeId> queue_;
  /// Reference pairs merged since the last TakeMergeChanges().
  std::vector<NodeId> merged_log_;
};

}  // namespace recon

#endif  // RECON_CORE_SOLVER_H_
