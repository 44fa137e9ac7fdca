// Dependency-graph construction (paper §3.1): seeds value-pair nodes from
// atomic-attribute comparisons (step 1), wires association dependencies
// between existing nodes (step 2), and marks constraint-mandated non-merge
// nodes (§3.4). One extension step does all of it: a batch build is the
// extension of an empty graph by the whole dataset, an incremental flush
// the extension by its batch.

#ifndef RECON_CORE_GRAPH_BUILDER_H_
#define RECON_CORE_GRAPH_BUILDER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/candidates.h"
#include "core/options.h"
#include "core/schema_binding.h"
#include "graph/dep_graph.h"
#include "graph/value_pool.h"
#include "model/dataset.h"
#include "sim/class_sim.h"
#include "sim/value_store.h"
#include "util/budget.h"

namespace recon {

/// The build seeds candidate pairs in windows of this many: a window is
/// staged in parallel, then applied serially in candidate order, and the
/// next window reuses its buffers. A constant, so build output never
/// depends on it.
inline constexpr int64_t kStageWindow = 65536;

/// Staged pairs are applied (and association wiring probed) in chunks of
/// this many items; each chunk boundary is one kBuild budget probe.
inline constexpr int64_t kBuildChunk = 256;

/// Everything the reconciler needs to run the fixed point.
struct BuiltGraph {
  std::unique_ptr<DependencyGraph> graph;
  ValuePool values;
  /// Reference-pair nodes in initial processing order: venues before
  /// persons before articles, so that a node tends to precede its outgoing
  /// real-valued neighbors (§3.2's queue invariant).
  std::vector<NodeId> initial_queue;
  /// Per class id; null for classes with no similarity function.
  std::vector<std::unique_ptr<ClassSimilarity>> class_sims;
  SchemaBinding binding;
  int num_candidates = 0;

  /// Precomputed per-value features and the bounded pairwise similarity
  /// memo (DESIGN.md §11). Always set by the builder. shared_ptr because
  /// BuiltGraph moves by value while staging lambdas hold raw pointers
  /// into these.
  std::shared_ptr<ValueStore> feature_store;
  std::shared_ptr<SimMemo> sim_memo;

  /// Scoring-path counters, accumulated deterministically across every
  /// extension step; surfaced as ReconcileStats (DESIGN.md §11).
  int64_t num_pair_comparisons = 0;
  int64_t num_value_analyses = 0;
  int64_t num_sim_memo_hits = 0;
  int64_t num_sim_memo_misses = 0;
  /// Blocking-key blocks over max_block_size, which contribute no
  /// candidate pairs (0 when the caller supplied the candidates).
  int64_t num_dropped_blocks = 0;

  // Always 0 (no title prefilter); perfbench/src/batch.cc reads them.
  int64_t num_prefilter_skips = 0;
  int64_t num_prefilter_exact = 0;
};

/// Interns the atomic attribute values of references >= `first_ref` into
/// `pool` (reference order, then the attribute order of `store`'s schema;
/// idempotent) and syncs `store` over the new values. Runs before
/// candidate generation, which reads the features, and before the build
/// step, which expects every value interned.
void InternReferenceValues(const Dataset& dataset, RefId first_ref,
                           ValuePool& pool, ValueStore& store);

/// Build-time hooks. The default is the ordinary build.
struct BuildOverrides {
  /// Candidate pairs to seed instead of running candidate generation
  /// (must be deduplicated, first < second, sorted — the contract of
  /// GenerateCandidates). Lets a caller time or reuse candidate generation
  /// separately from the build.
  const CandidateList* candidates = nullptr;
};

/// Builds the dependency graph for `dataset` under `options`: interns the
/// values, generates the candidates (or takes overrides.candidates), runs
/// the extension step over the whole dataset with options.feedback, and
/// packs the graph tight (Compact). `budget` (optional) carries the run's
/// execution budget (DESIGN.md §10): probes fire at candidate batches and
/// staging-chunk boundaries, and a stop truncates evidence seeding /
/// association wiring at the next chunk — a degraded but structurally
/// consistent graph. Constraint marking and feedback application always
/// run in full.
BuiltGraph BuildDependencyGraph(const Dataset& dataset,
                                const ReconcilerOptions& options,
                                BudgetTracker* budget = nullptr,
                                const BuildOverrides& overrides = {});

/// Extends an existing graph with nodes for `pairs` (candidate pairs that
/// involve references added after the graph was built) and wires their
/// association dependencies; co-author constraints are applied for article
/// references with id >= `first_new_ref`; no feedback is applied. Call
/// graph->AddReferences() and InternReferenceValues(first_new_ref) before
/// this. Repacks only fragmented pools (CompactFragmented). Returns the new
/// reference-pair nodes in processing order (venues, persons, articles) for
/// the solver to enqueue. A `budget` stop
/// truncates evidence seeding exactly as in BuildDependencyGraph; pairs
/// not yet applied are dropped (fewer merges, still a valid partition).
std::vector<NodeId> ExtendDependencyGraph(
    const Dataset& dataset, const ReconcilerOptions& options,
    const std::vector<std::pair<RefId, RefId>>& pairs, RefId first_new_ref,
    BuiltGraph& built, BudgetTracker* budget = nullptr);

}  // namespace recon

#endif  // RECON_CORE_GRAPH_BUILDER_H_
