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

  /// Drains the queue to the fixed point (§3.2). With
  /// options.parallel_fixed_point the drain runs as deterministic
  /// wavefront rounds (DESIGN.md §9, §13): the frontier is scored in
  /// parallel, then committed in canonical queue order with runs of
  /// merge-free disjoint regions executed concurrently (region-partitioned
  /// commit). The schedule is a pure function of the snapshot, so output
  /// is byte-identical at every thread count — including one, which runs
  /// the same rounds inline (so round stats stay comparable across thread
  /// counts).
  ///
  /// Budget exhaustion or cancellation (DESIGN.md §10) never aborts: the
  /// current pop finishes (merge, enrichment, and propagation pushes
  /// included), then the drain freezes — no further pops — leaving the
  /// pending queue intact, so a later Run() with a fresh budget resumes
  /// exactly where this one stopped. Iteration and merge budgets stop
  /// after byte-identical prefixes of the canonical commit sequence, so
  /// their results are identical at every thread count.
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
  /// sweep over every reference, from the sources the latest pass started
  /// with (all non-merge pairs except the ones it demoted, which are the
  /// next pass's sources), and returns the number of node states that
  /// changed. Zero means the latest pass did everything a full pass would
  /// have. Costs a full pass; leaves the dirty record alone.
  int64_t RecheckNegativeEvidence();

  /// Transitive closure over merged pairs. Each reference maps to its
  /// cluster's smallest member id (canonical, independent of merge order).
  /// Also reports the directly merged pairs when `merged_pairs` is
  /// non-null.
  std::vector<int> Closure(
      std::vector<std::pair<RefId, RefId>>* merged_pairs) const;

  /// Grows the reference universe (call after Dataset/graph grew).
  void GrowReferences(int count) { refs_.Grow(count); }

  /// The union-find over references maintained by enrichment.
  UnionFind& refs() { return refs_; }

 private:
  // ---- Parallel wavefront rounds (options_.parallel_fixed_point) --------
  // A round snapshots the head of the queue — up to parallel_frontier_max
  // nodes — as the frontier (its order — FIFO plus strong-boolean queue
  // jumps — is the canonical sort key), scores
  // every frontier node in parallel as a pure read of the frozen graph,
  // then pops and commits exactly like the sequential drain. A parallel
  // score is committed only if the node's generation stamp (Node::gen)
  // still matches the value read while scoring; otherwise an earlier
  // commit of this round changed one of its inputs and the node is
  // re-scored serially. Since committed values and all side-effect
  // ordering equal the sequential solver's, output is byte-identical by
  // construction at every thread count.

  /// What the parallel score phase records per frontier node; consumed by
  /// the serial commit.
  struct ScoreRecord {
    double score = 0;
    /// Node::gen at scoring time; a mismatch at commit means stale.
    uint32_t gen = 0;
    /// In-edge scans the serial computation would have performed.
    int64_t scans = 0;
    /// In-edge scans a valid cache would have avoided.
    int64_t avoided = 0;
    /// True when the score required a full cache rebuild; `cache` then
    /// holds the rebuilt summary to install at commit.
    bool rebuilt = false;
    EvidenceCache cache;
  };

  /// One wavefront round: snapshot, parallel score, region partition, then
  /// commit in canonical order with parallel waves (plus any queue-jumping
  /// nodes enqueued mid-round, which commit serially in place).
  /// Returns false when the round froze early on a budget stop.
  bool RunWavefrontRound(int64_t* iterations, int64_t iteration_cap);
  /// Budget gate before every queue pop: probes the tracker and spends one
  /// iteration. True = freeze the drain now (the pending pop stays queued).
  bool StopBeforePop(int64_t* iterations, int64_t iteration_cap);
  /// Pure read: computes what Step would compute for `id` right now,
  /// including the stat deltas the serial path would record.
  void ScoreNode(NodeId id, ScoreRecord* rec) const;
  /// Step variant that consumes a fresh parallel score (or re-scores
  /// serially on a generation mismatch).
  void StepWithRecord(NodeId id, const ScoreRecord& rec);

  /// §3.4's triangle rule for source `lid` = (r1, r2): DemoteInTriangle
  /// for every pair (r1, r3) in NodesOfRef(r1).
  void DemoteAcrossTriangles(NodeId lid, std::vector<NodeId>* demoted);
  /// One triangle: when `mid` = (r1, r3) is a live pair other than the
  /// source and the live pair (r2, r3) exists, demotes the weaker of the
  /// two, appending it to `*demoted` when its state changed.
  void DemoteInTriangle(NodeId lid, NodeId mid, std::vector<NodeId>* demoted);

  void Step(NodeId id);
  /// The write half of Step: state transition, merge, enrichment, delta
  /// pushes, dependent re-activation, generation bumps.
  void Commit(NodeId id, Node& node, double computed);
  void EnrichReferences(NodeId id);
  void Enqueue(NodeId id, bool front);
  /// The uncached full recomputation; in-edge reads land in `*scans`.
  double ComputeSimilarity(NodeId id, int64_t* scans) const;

  // ---- Region-partitioned parallel commit (DESIGN.md §13) ---------------
  // The commit phase walks pops in canonical order; consecutive pops whose
  // regions contain no predicted merge batch into a *wave*, and a wave's
  // disjoint regions execute concurrently. A region is the union-find
  // closure of the frontier under claim(i) = {node_i} ∪ out(node_i): every
  // node a frontier commit can write — and every frontier node whose
  // inputs it can change — is claimed, so two different regions never
  // touch the same node and in-wave commits commute with each other.
  // Predicted merges (and nodes popped without a record) flush the wave
  // and commit serially at their exact canonical position, because merge
  // side effects (folds, enrichment, queue jumps) are unbounded by claims.

  /// One frontier pop batched into the pending wave.
  struct WaveEntry {
    NodeId id = kInvalidNode;
    uint32_t rec = 0;  ///< Frontier index (names records_/region_parent_).
  };

  /// Pre-image of one node written during an in-wave commit: restoring
  /// snapshots in reverse log order rewinds the region to any member
  /// boundary. Nodes are slim (edges live in CSR pools, which in-wave
  /// commits never touch), so a full copy is cheap and exact.
  struct WaveUndo {
    uint32_t pos;   ///< Wave position of the committing member.
    NodeId id;      ///< Node about to be written.
    Node snapshot;  ///< Its bytes immediately before the write.
  };

  /// Cumulative region counters after each committed member; the join adds
  /// the last mark that survives a rollback (or the final mark when none
  /// was needed), so replayed commits are never double-counted.
  struct WaveMemberMark {
    uint32_t pos;
    int64_t hits;
    int64_t rescores;
    int64_t discards;
    int64_t scans;
    int64_t avoided;
    int64_t rebuilds;
    int64_t delta_pushes;
    int64_t recomputations;
  };

  /// Per-region commit context: members in canonical order, buffered
  /// enqueues tagged with the committing pop's wave position, the undo
  /// log, and private stat counters merged serially at the wave join.
  struct WaveRegionCtx {
    std::vector<uint32_t> members;  ///< Positions into wave_, ascending.
    std::vector<std::pair<uint32_t, NodeId>> enqueues;
    std::vector<WaveUndo> undo;
    std::vector<WaveMemberMark> marks;
    int64_t hits = 0;
    int64_t rescores = 0;
    int64_t discards = 0;
    int64_t scans = 0;
    int64_t avoided = 0;
    int64_t rebuilds = 0;
    int64_t delta_pushes = 0;
    int64_t recomputations = 0;
    /// First members-ordinal whose re-score crossed the merge threshold
    /// (execution stopped just before its first write), or UINT32_MAX.
    uint32_t deferred_from = UINT32_MAX;

    void Clear() {
      members.clear();
      enqueues.clear();
      undo.clear();
      marks.clear();
      hits = rescores = discards = scans = avoided = rebuilds = 0;
      delta_pushes = recomputations = 0;
      deferred_from = UINT32_MAX;
    }
  };

  /// Phase 1b: union-find over frontier indices via the claim table, then
  /// fold per-node merge predictions into per-region heavy flags.
  void PartitionFrontier(size_t frontier_size);
  uint32_t RegionFind(uint32_t x);
  /// Executes and clears the pending wave: groups entries by region,
  /// commits regions concurrently, then joins serially — probing the
  /// budget once per member in canonical order (wave pops defer their
  /// per-pop probes to this join; light commits never change budget state,
  /// so each probe observes exactly what it would have in place), merging
  /// stats, and splicing buffered enqueues into the queue in canonical
  /// push order. If any region's re-score crossed the merge threshold,
  /// every commit at or after the first crossing position is rolled back
  /// from the undo logs and those members are re-injected at the queue
  /// front (their regions marked heavy), so the pop loop replays them
  /// serially in exact canonical order — merges and their unbounded side
  /// effects included; the replayed pops were never probed here, so each
  /// re-pop probes and counts normally. Returns false when a join probe
  /// froze the drain: members from the stop position on are rolled back
  /// and stashed in wave_reinject_, exactly as if never popped.
  bool FlushWave(int64_t* iterations, int64_t iteration_cap);
  /// Pushes wave_reinject_ onto the queue front in canonical order, with
  /// records re-armed and their regions marked heavy for serial replay.
  void ReinjectWave();
  /// In-wave serial commit of one region, members in canonical order.
  void ExecuteWaveRegion(WaveRegionCtx& ctx);
  /// The merge-free half of Commit() with ctx-buffered side effects.
  void WaveCommitLight(NodeId id, Node& node, double computed,
                       WaveRegionCtx& ctx, uint32_t pos);
  /// CachedSimilarity made side-effect free: a cache rebuild lands in
  /// *fresh (installed by the caller only on commit) and the stat deltas
  /// in *rebuilt / *scans / *avoided, so a deferral leaves the node — and
  /// the run's counters — bitwise as the sequential drain would find them.
  double WaveRescore(NodeId id, const Node& node, EvidenceCache* fresh,
                     bool* rebuilt, int64_t* scans, int64_t* avoided) const;
  void WaveEnqueue(NodeId id, WaveRegionCtx& ctx, uint32_t pos);

  // ---- Delta-propagated evidence caching (options_.evidence_cache) ----
  // Each node's EvidenceCache is born valid (empty node, empty summary)
  // and kept equal to what a full in-edge rescan would produce: the graph
  // layer absorbs additive mutations (new edges, statics), Step() pushes a
  // node's raised sim along its real-valued out-edges and bumps merged-
  // neighbor counts along boolean out-edges at the merge transition, and
  // subtractive surgery (non-merge demotion, lost fold inputs) invalidates
  // the affected caches so they rescan exactly once on their next
  // recomputation. See DESIGN.md, "Delta-propagated evidence caching".

  /// Like ComputeSimilarity but served from the node's cache, rebuilding
  /// it first when invalid. Returns the identical value.
  double CachedSimilarity(NodeId id, Node& node);
  /// Full in-edge rescan into `*cache` (the one-time fallback, and the
  /// parallel score path's side-effect-free rebuild). Leaves it valid.
  void BuildCacheSummary(NodeId id, EvidenceCache* cache,
                         int64_t* scans) const;
  /// The similarity a given (valid) evidence summary yields for `node`.
  double ScoreFromCache(const Node& node, const EvidenceCache& cache) const;
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
  /// Nodes the latest PropagateNegativeEvidence() demoted.
  std::vector<NodeId> last_demoted_;

  // Wavefront scratch, reused across rounds. record_round_[n] names the
  // round whose records_[record_index_[n]] belongs to node n; consuming or
  // discarding a record zeroes it (0 is never a live round id).
  std::vector<NodeId> frontier_;
  std::vector<ScoreRecord> records_;
  std::vector<uint32_t> record_round_;
  std::vector<uint32_t> record_index_;
  uint32_t round_id_ = 0;

  // Region-partition scratch, reused across rounds. claim_stamp_/
  // claim_owner_ are per node (stamped with round_id_); the rest are per
  // frontier index. region_ctx_stamp_ entries stay valid across waves
  // because wave_seq_ never repeats.
  std::vector<uint32_t> claim_stamp_;
  std::vector<uint32_t> claim_owner_;
  std::vector<uint32_t> region_parent_;
  std::vector<char> region_heavy_;
  std::vector<uint32_t> region_ctx_stamp_;
  std::vector<uint32_t> region_ctx_id_;
  std::vector<WaveEntry> wave_;
  std::vector<WaveRegionCtx> wave_regions_;
  size_t num_wave_regions_ = 0;
  uint32_t wave_seq_ = 0;
  /// The enqueue splice buffer (surviving back-pushes, canonical order).
  std::vector<std::pair<uint32_t, NodeId>> wave_splice_;
  /// Members the last FlushWave() rolled back, in canonical order; the
  /// pop loop re-queues them (ReinjectWave) for serial replay. None of
  /// them has consumed a budget probe or an iteration: the join only
  /// probes positions before the rollback point, so each canonical pop is
  /// probed and counted exactly once — at the join if its commit
  /// survived, at its re-pop if it rolled back.
  std::vector<WaveEntry> wave_reinject_;
};

}  // namespace recon

#endif  // RECON_CORE_SOLVER_H_
