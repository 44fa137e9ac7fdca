// Incremental reference reconciliation — the paper's first future-work
// item (§7): "an efficient incremental reconciliation approach, applied
// when new references are inserted to an already-reconciled dataset."
//
// The incremental reconciler owns a growing dataset and keeps the
// dependency graph, the blocking index, the fixed-point solver and the
// transitive closure alive across batches. Similarities only rise, but a
// merge is not final: negative evidence that a later batch brings (a new
// co-author constraint, or a new triangle whose weaker side is an earlier
// merge) demotes pairs that earlier flushes merged, which splits clusters
// those flushes published. ReconcileStats::num_unmerged_pairs counts these
// demotions.
//
// What a Flush() costs (DESIGN.md §17):
//  - Proportional to the batch's neighborhood: interning and analyzing its
//    values, candidate lookup, staging and applying its candidate pairs,
//    wiring their associations, the solve drain (the nodes the batch
//    activates and whatever their merges propagate to), and negative
//    propagation, which examines only the triangles that contain a pair
//    changed since the previous pass. (Only constraint and "distinct"
//    feedback pairs are sources; a pass's own demotions are derived and
//    never propagate further, so that neighborhood does not keep growing
//    over a long ingest.)
//  - Amortized O(1) per graph mutation: capacity grows geometrically, and
//    a CSR pool is repacked only once its garbage exceeds its live data.
//  - Not part of Flush(): clusters() brings the kept closure up to date
//    from the pairs the flush merged and unmerged. A new merge unions two
//    clusters and relabels the one whose smallest member is no longer the
//    smallest; a merged pair that left kMerged rebuilds its old cluster
//    from the merged pairs still inside it. Clusters the flush did not
//    touch cost nothing. The service then builds the next snapshot from
//    the previous one and rebuilds only the entities whose member set
//    changed (service/snapshot.h).

#ifndef RECON_CORE_INCREMENTAL_H_
#define RECON_CORE_INCREMENTAL_H_

#include <memory>
#include <vector>

#include "core/candidates.h"
#include "core/graph_builder.h"
#include "core/options.h"
#include "core/reconciler.h"
#include "core/solver.h"
#include "model/dataset.h"

namespace recon {

/// Maintains a reconciled, growing dataset.
///
/// Two batch-only options are not applied incrementally: key-attribute
/// pre-merging (the graph must keep original reference identities so later
/// batches can link to them) and user feedback (pairs would refer to
/// references that may not exist yet at construction time). Use the batch
/// Reconciler when either matters.
class IncrementalReconciler {
 public:
  /// Starts from `initial` (possibly empty of references) and reconciles
  /// it in full.
  IncrementalReconciler(Dataset initial, ReconcilerOptions options);

  IncrementalReconciler(const IncrementalReconciler&) = delete;
  IncrementalReconciler& operator=(const IncrementalReconciler&) = delete;
  ~IncrementalReconciler();

  /// Appends a reference (associations may point at any existing
  /// reference). Returns its id. References are staged; call Flush() — or
  /// result() / clusters(), which flush implicitly — to reconcile.
  RefId AddReference(Reference ref, int gold_entity = -1,
                     Provenance provenance = Provenance::kOther);

  /// Reconciles all staged references against the current state. Each
  /// Flush() is one budget epoch (options().budget applies per flush, not
  /// cumulatively); a budget stop freezes the solve with its queue intact
  /// and the next Flush() — explicit or implicit via result()/clusters()
  /// — resumes it with a fresh allotment. result().stats.stop_reason
  /// reports how the latest flush ended.
  void Flush();

  /// Current partition (flushes first): clusters()[ref] is the smallest
  /// member of ref's cluster, exactly as FixedPointSolver::Closure labels
  /// it. Updates the kept closure with the latest flush's merges and
  /// unmerges.
  const std::vector<int>& clusters();

  /// Flushes, then re-runs the latest flush's negative propagation over
  /// every reference (FixedPointSolver::RecheckNegativeEvidence) and
  /// returns how many node states that changed. Zero means the dirty-set
  /// pass left the graph exactly where a full pass would have (DESIGN.md
  /// §17). Costs a full pass.
  int64_t RecheckNegativeEvidence();

  /// Current result snapshot: clusters + cumulative stats (flushes first).
  ReconcileResult result();

  const Dataset& dataset() const { return dataset_; }
  const ReconcilerOptions& options() const { return options_; }

  // ---- Const query-side accessors (no implicit flush) ---------------------
  // The reconciliation service reads state between flushes without
  // triggering one; these never mutate and are safe while no Flush() runs.

  /// First reference id not yet reconciled.
  RefId flushed_until() const { return flushed_until_; }
  /// References added but not yet flushed.
  int num_staged() const { return dataset_.num_references() - flushed_until_; }
  /// Cumulative stats of the flushes so far.
  const ReconcileStats& stats() const { return stats_; }
  /// The solver over the current graph (its Closure() recomputes from
  /// scratch what clusters() keeps).
  const FixedPointSolver& solver() const { return *solver_; }

 private:
  Dataset dataset_;
  ReconcilerOptions options_;
  ReconcileStats stats_;
  BuiltGraph built_;
  std::unique_ptr<CandidateIndex> index_;
  std::unique_ptr<FixedPointSolver> solver_;
  /// First reference id not yet reconciled.
  RefId flushed_until_ = 0;
  /// Applies the solver's merge changes to the kept closure.
  void UpdateClosure();
  /// Merges the clusters of `a` and `b` through merged pair `id`.
  void Union(NodeId id, RefId a, RefId b);
  /// Rebuilds the cluster labeled `label` from the merged pairs still in
  /// the closure, which may leave it in pieces.
  void SplitCluster(int label);

  // The kept closure. clusters_[ref] is the smallest member of ref's
  // cluster; for a cluster labeled L, members_[L] lists its references and
  // closure_pairs_[L] the merged pairs inside it (both empty for a
  // reference that labels no cluster).
  std::vector<int> clusters_;
  std::vector<std::vector<RefId>> members_;
  std::vector<std::vector<NodeId>> closure_pairs_;
  /// Per node: one endpoint of the pair while it is in the closure, else
  /// -1. Recorded at the merge: a pair demoted out of kMerged can be
  /// re-keyed by enrichment before the closure hears of the demotion.
  std::vector<RefId> closure_end_;
  /// False once Flush() or a recheck may have changed merged pairs.
  bool closure_valid_ = false;
};

}  // namespace recon

#endif  // RECON_CORE_INCREMENTAL_H_
