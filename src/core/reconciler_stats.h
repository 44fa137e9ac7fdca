// Run statistics shared by the reconciler and the fixed-point solver.

#ifndef RECON_CORE_RECONCILER_STATS_H_
#define RECON_CORE_RECONCILER_STATS_H_

#include <cstdint>
#include <vector>

#include "util/budget.h"

namespace recon {

/// One parallel wavefront round of the fixed-point solve (DESIGN.md §9):
/// how large the snapshotted frontier was, how many parallel scores were
/// committed as-is vs. re-scored serially after a generation mismatch, and
/// the wall time of each phase.
struct SolveRoundStat {
  int64_t frontier = 0;
  int64_t score_hits = 0;
  int64_t serial_rescores = 0;
  /// Frontier scores dropped because the node was dead (folded away) or
  /// demoted to non-merge by the time it was popped. frontier =
  /// score_hits + serial_rescores + score_discards.
  int64_t score_discards = 0;
  double score_seconds = 0;
  double commit_seconds = 0;
};

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

  // Evidence-cache counters (ReconcilerOptions::evidence_cache). Purely
  // observational: results are byte-identical with the cache on or off.
  /// Incremental cache updates pushed along out-edges (sim raises and
  /// merged-neighbor count bumps).
  int64_t num_delta_pushes = 0;
  /// Full in-edge rescans that (re)established a node's cache.
  int64_t num_cache_rebuilds = 0;
  /// In-edges actually scanned while recomputing similarities.
  int64_t num_inedge_scans = 0;
  /// In-edges *not* scanned because a valid cache answered instead.
  int64_t num_inedge_scans_avoided = 0;

  // Value-store counters (ReconcilerOptions::value_store, DESIGN.md §11).
  // Observational: results are byte-identical with the store on or off.
  /// Pairwise comparator invocations during graph-build scoring (the
  /// cross-product of candidate value sets), in either mode.
  int64_t num_pair_comparisons = 0;
  /// Distinct-value analyses (parse/tokenize/n-gram passes). With the store
  /// on this is exactly one per distinct interned value; off, it counts the
  /// raw-path analyses actually performed (per-lane caches included). The
  /// perf_reconcile gate requires comparisons >= 5x analyses with the store.
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

  // Similarity-kernel counters (DESIGN.md §16). Observational: the
  // prefilter only ever skips comparisons it proves cannot stage evidence,
  // so results are byte-identical at every dispatch level.
  /// Title comparisons skipped because the signature upper bound proved
  /// them below seed, and those that fell through to the exact comparator.
  /// Both zero with the store off or at the scalar dispatch level.
  int64_t num_prefilter_skips = 0;
  int64_t num_prefilter_exact = 0;
  /// Bytes the value store spends on prefilter signatures.
  int64_t signature_bytes = 0;
  /// SIMD dispatch level the run's string kernels executed at
  /// (strsim::SimdLevelName: "scalar", "generic", "sse42", "avx2").
  const char* simd_dispatch = "scalar";

  // Parallel wavefront counters (ReconcilerOptions::parallel_fixed_point).
  // Deterministic for a given input at every thread count > 1; all zero on
  // the sequential drain. Like the cache counters, they are observational:
  // everything above is byte-identical in either mode.
  /// Wavefront rounds executed (frontier snapshots that went parallel).
  int64_t num_solver_rounds = 0;
  /// Frontier nodes scored during parallel phases.
  int64_t num_parallel_scored = 0;
  /// Parallel scores committed as-is (generation stamp still matched).
  int64_t num_score_hits = 0;
  /// Frontier nodes re-scored serially at commit because an earlier commit
  /// in the same round mutated one of their inputs.
  int64_t num_serial_rescores = 0;
  /// Frontier scores dropped at commit: the node had been folded away or
  /// demoted mid-round (the serial drain skips such pops identically).
  int64_t num_score_discards = 0;

  // Region-partitioned commit counters (DESIGN.md §13). Deterministic at
  // every thread count: the wave schedule is a pure function of each
  // round's snapshot.
  /// Multi-pop waves whose disjoint regions committed concurrently.
  int64_t num_commit_waves = 0;
  /// Disjoint regions executed across those waves.
  int64_t num_commit_regions = 0;
  /// Frontier commits that ran inside waves (the parallelized share of
  /// the commit phase; the rest committed serially in place).
  int64_t num_wave_commits = 0;
  /// Wave members rolled back because an in-wave re-score unpredictedly
  /// crossed the merge threshold: the crossing member and everything at
  /// or after its wave position restore their pre-images from the undo
  /// logs and replay serially at their exact canonical positions.
  int64_t num_commit_deferrals = 0;

  // Canopy-sharded reconciliation counters (src/shard/, DESIGN.md §14).
  // All zero on the monolithic solve.
  /// Shards the references were partitioned into (0 = not sharded).
  int64_t num_shards = 0;
  /// Candidate pairs whose members landed in different shards; their
  /// nodes are built only in the residual boundary pass.
  int64_t num_boundary_pairs = 0;
  /// Merges committed inside the per-shard solves.
  int64_t num_shard_merges = 0;
  /// Merges committed by the residual boundary pass (cross-shard entity
  /// repairs the per-shard solves could not see).
  int64_t num_boundary_merges = 0;
  /// Wall time of the parallel per-shard solves and of the residual
  /// boundary pass (both included in build/solve_seconds' totals).
  double shard_seconds = 0;
  double boundary_seconds = 0;

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
  /// ... out of this many live non-merge reference pairs (what a full pass
  /// examines).
  int64_t num_non_merge_pairs = 0;

  // Budget / graceful-degradation accounting (ReconcilerOptions::budget,
  // DESIGN.md §10).
  /// Why the run stopped: kConverged on a full fixed point, the exhausted
  /// budget (or kCancelled) on a degraded — but still valid — stop. On an
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
  /// Total solve wall time (rounds + serial segments + constraint
  /// propagation + closure). build/solve are lump phase timers; the solve
  /// drain itself is broken down below.
  double solve_seconds = 0;
  /// Wall time of the parallel score phases (sum over rounds; 0 when the
  /// drain ran sequentially).
  double solve_score_seconds = 0;
  /// Wall time of the serial commit phases plus sequential drain segments.
  /// On a fully sequential solve this is the entire queue drain.
  double solve_commit_seconds = 0;
  /// Per-round breakdown, one entry per wavefront round.
  std::vector<SolveRoundStat> solve_rounds;
};

}  // namespace recon

#endif  // RECON_CORE_RECONCILER_STATS_H_
