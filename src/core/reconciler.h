// The reference reconciliation algorithm (paper Figure 4): queue-driven
// fixed point over the dependency graph, with reconciliation propagation
// (§3.2), reference enrichment (§3.3), constraint enforcement (§3.4), and a
// final transitive closure.

#ifndef RECON_CORE_RECONCILER_H_
#define RECON_CORE_RECONCILER_H_

#include <utility>
#include <vector>

#include "core/graph_builder.h"
#include "core/options.h"
#include "core/reconciler_stats.h"
#include "model/dataset.h"

namespace recon {

/// The reconciliation output: a partition of the references.
struct ReconcileResult {
  /// Canonical cluster representative per reference (references of
  /// different classes are never co-clustered).
  std::vector<int> cluster;
  /// The directly merged reference pairs (before transitive closure);
  /// useful for error analysis and tests.
  std::vector<std::pair<RefId, RefId>> merged_pairs;
  ReconcileStats stats;

  /// Number of partitions among references of `class_id`.
  int NumPartitionsOfClass(const Dataset& dataset, int class_id) const;

  /// The partitions of `class_id`, each sorted, ordered by first member.
  std::vector<std::vector<RefId>> PartitionsOfClass(const Dataset& dataset,
                                                    int class_id) const;
};

/// Copies the graph, blocking, value-store and memo counters of `built`
/// into `stats`; every accessor it reads is O(1). The batch run reports
/// after its solve, the incremental reconciler after every flush.
void ReportBuiltGraph(const BuiltGraph& built, ReconcileStats* stats);

/// Runs reconciliation over a dataset. Stateless between runs; one
/// Reconciler can serve many datasets.
class Reconciler {
 public:
  explicit Reconciler(ReconcilerOptions options)
      : options_(std::move(options)) {}

  /// Builds the dependency graph and runs the algorithm to its fixed
  /// point — or to the options' budget limit, whichever comes first. A degraded stop still enforces constraints and computes
  /// the transitive closure, so the result is always a valid partition;
  /// stats.stop_reason says which exit was taken (DESIGN.md §10).
  ReconcileResult Run(const Dataset& dataset) const;

  /// Runs the fixed point over an already-built graph (shared by the
  /// incremental reconciler). The graph is consumed (mutated).
  ReconcileResult RunOnGraph(const Dataset& dataset, BuiltGraph& built) const;

  /// As above with an externally owned budget tracker, so build and solve
  /// can share one deadline epoch (Run() wires this internally).
  ReconcileResult RunOnGraph(const Dataset& dataset, BuiltGraph& built,
                             BudgetTracker* budget) const;

  const ReconcilerOptions& options() const { return options_; }

 private:
  ReconcilerOptions options_;
};

}  // namespace recon

#endif  // RECON_CORE_RECONCILER_H_
