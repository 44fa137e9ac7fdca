// Run statistics shared by the reconciler and the fixed-point solver.

#ifndef RECON_CORE_RECONCILER_STATS_H_
#define RECON_CORE_RECONCILER_STATS_H_

#include <cstdint>

#include "util/budget.h"

namespace recon {

/// Counters for one reconciliation run (graph size feeds Table 6; timings
/// feed the perf bench). 64-bit throughout: the solver's iteration cap is
/// 500 * num_nodes, which overflows 32 bits on large synthetic datasets.
struct ReconcileStats {
  int64_t num_candidates = 0;
  int64_t num_nodes = 0;       ///< Nodes ever created.
  int64_t num_live_nodes = 0;  ///< Nodes remaining after enrichment folding.
  int64_t num_edges = 0;
  int64_t num_recomputations = 0;
  int64_t num_merges = 0;
  int64_t num_folds = 0;

  // Evidence-cache counters (DESIGN.md §8). Purely observational.
  /// Incremental cache updates pushed along out-edges (sim raises and
  /// merged-neighbor count bumps).
  int64_t num_delta_pushes = 0;
  /// Full in-edge rescans that (re)established a node's cache.
  int64_t num_cache_rebuilds = 0;
  /// In-edges actually scanned while (re)building caches.
  int64_t num_inedge_scans = 0;
  /// In-edges *not* scanned because a valid cache answered instead.
  int64_t num_inedge_scans_avoided = 0;

  // Value-store counters (DESIGN.md §11). Observational.
  /// Pairwise comparator invocations during graph-build scoring (the
  /// cross-product of candidate value sets).
  int64_t num_pair_comparisons = 0;
  /// Distinct-value analyses (parse/tokenize/n-gram passes): exactly one
  /// per distinct interned value. The perf_reconcile gate requires
  /// comparisons >= 5x analyses.
  int64_t num_value_analyses = 0;
  /// Similarity-memo lookups answered from the memo / computed fresh.
  /// Misses equal the number of distinct (evidence, value pair) keys
  /// requested — deterministic across thread counts absent eviction.
  int64_t num_sim_memo_hits = 0;
  int64_t num_sim_memo_misses = 0;
  /// Shard clears forced by the memo byte bound, and lookups served as a
  /// pass-through because the bound was too small to cache at all.
  int64_t num_sim_memo_evictions = 0;
  int64_t num_sim_memo_bypasses = 0;
  /// Approximate heap bytes held by the memo and the feature table.
  int64_t sim_memo_bytes = 0;
  int64_t value_store_bytes = 0;

  /// Blocking-key blocks over ReconcilerOptions::max_block_size: they
  /// contribute no candidate pairs, so pairs that share only such blocks
  /// are never compared. Counted before pair expansion, so the same at
  /// every thread count; an incremental run counts each block once, in the
  /// flush where it first exceeds the cap (cumulative).
  int64_t num_dropped_blocks = 0;

  // Always "generic" (one kernel path); perfbench/src/batch.cc reads it.
  const char* simd_dispatch = "generic";

  // Always 0 (no parallel solve); perfbench/src/batch.cc reads them.
  int64_t num_parallel_scored = 0;
  int64_t num_score_discards = 0;

  /// Heap footprint of the dependency graph's CSR storage
  /// (DependencyGraph::bytes), split by pool family: node array + static
  /// evidence, edge pools, and pair indexes + per-reference node lists.
  int64_t graph_bytes = 0;
  int64_t graph_node_bytes = 0;
  int64_t graph_edge_bytes = 0;
  int64_t graph_index_bytes = 0;
  /// CSR pool repacks so far (DependencyGraph::num_compactions): a build
  /// packs its four pools once; an incremental flush repacks a pool only
  /// when its garbage exceeds its live data, so repacks are rare and paid
  /// for by the mutations that made the garbage (DESIGN.md §17).
  int64_t graph_compactions = 0;
  /// Non-merge sources the latest negative-propagation pass examined:
  /// every one on a batch run, those next to a change on an incremental
  /// flush (DESIGN.md §17) ...
  int64_t negprop_sources = 0;
  /// ... out of this many live non-merge reference pairs, of which the
  /// derived ones are not sources: a full pass examines the difference.
  int64_t num_non_merge_pairs = 0;
  /// Non-merge reference pairs the triangle rule demoted and no constraint
  /// or "distinct" feedback has marked since (DESIGN.md §5).
  int64_t num_derived_non_merge_pairs = 0;
  /// Merged reference pairs that later left kMerged, cumulative: negative
  /// propagation demotes the weaker side of a triangle even when that side
  /// was merged, and on an incremental ingest that can split a cluster an
  /// earlier flush published (DESIGN.md §17).
  int64_t num_unmerged_pairs = 0;

  // Budget / graceful-degradation accounting (ReconcilerOptions::budget,
  // DESIGN.md §10).
  /// Why the run stopped: kConverged on a full fixed point, the exhausted
  /// budget on a degraded — but still valid — stop. On an
  /// incremental reconciler this is the latest flush's reason.
  StopReason stop_reason = StopReason::kConverged;
  /// Fixed-point iterations (queue pops) actually executed; cumulative
  /// across incremental flushes. Compare against
  /// Budget::max_solver_iterations to see how much budget a run used.
  int64_t solver_iterations = 0;
  /// Budget probe points passed (all phases). Deterministic for a fixed
  /// configuration; the denominator of the probe-overhead bench guard.
  int64_t num_budget_probes = 0;

  double build_seconds = 0;
  /// Total solve wall time (queue drain + constraint propagation +
  /// closure). build/solve are lump phase timers.
  double solve_seconds = 0;
  /// Wall time of the queue drain alone (part of solve_seconds).
  double solve_commit_seconds = 0;
};

}  // namespace recon

#endif  // RECON_CORE_RECONCILER_STATS_H_
