#include "core/reconciler.h"

#include <algorithm>
#include <map>

#include "core/premerge.h"
#include "core/solver.h"
#include "util/timer.h"

namespace recon {

void ReportBuiltGraph(const BuiltGraph& built, ReconcileStats* stats) {
  const DependencyGraph& graph = *built.graph;
  stats->num_candidates = built.num_candidates;
  stats->num_nodes = graph.num_nodes();
  stats->num_live_nodes = graph.num_live_nodes();
  stats->num_edges = graph.num_edges();
  const GraphBytes gb = graph.bytes();
  stats->graph_bytes = static_cast<int64_t>(gb.total());
  stats->graph_node_bytes = static_cast<int64_t>(gb.nodes);
  stats->graph_edge_bytes = static_cast<int64_t>(gb.edges);
  stats->graph_index_bytes = static_cast<int64_t>(gb.indices);
  stats->graph_compactions = graph.num_compactions();
  stats->num_non_merge_pairs = graph.num_non_merge_pairs();
  stats->num_derived_non_merge_pairs = graph.num_derived_non_merge_pairs();
  stats->num_unmerged_pairs = graph.num_unmerged_pairs();
  stats->num_pair_comparisons = built.num_pair_comparisons;
  stats->num_value_analyses = built.num_value_analyses;
  stats->num_sim_memo_hits = built.num_sim_memo_hits;
  stats->num_sim_memo_misses = built.num_sim_memo_misses;
  stats->num_sim_memo_evictions = built.sim_memo->evictions();
  stats->num_sim_memo_bypasses = built.sim_memo->bypasses();
  stats->sim_memo_bytes = built.sim_memo->bytes();
  stats->value_store_bytes = built.feature_store->approximate_bytes();
  stats->num_dropped_blocks = built.num_dropped_blocks;
}

int ReconcileResult::NumPartitionsOfClass(const Dataset& dataset,
                                          int class_id) const {
  std::map<int, int> seen;
  int count = 0;
  for (RefId id = 0; id < dataset.num_references(); ++id) {
    if (dataset.reference(id).class_id() != class_id) continue;
    if (seen.emplace(cluster[id], 1).second) ++count;
  }
  return count;
}

std::vector<std::vector<RefId>> ReconcileResult::PartitionsOfClass(
    const Dataset& dataset, int class_id) const {
  std::map<int, std::vector<RefId>> by_cluster;
  for (RefId id = 0; id < dataset.num_references(); ++id) {
    if (dataset.reference(id).class_id() != class_id) continue;
    by_cluster[cluster[id]].push_back(id);
  }
  std::vector<std::vector<RefId>> partitions;
  partitions.reserve(by_cluster.size());
  for (auto& [rep, members] : by_cluster) {
    partitions.push_back(std::move(members));
  }
  std::sort(partitions.begin(), partitions.end(),
            [](const auto& x, const auto& y) { return x.front() < y.front(); });
  return partitions;
}

ReconcileResult Reconciler::Run(const Dataset& dataset) const {
  // One tracker for the whole run: the deadline covers candidate
  // generation, graph build, and the solve together (DESIGN.md §10).
  BudgetTracker tracker(options_.budget, options_.probe_hook);
  if (options_.premerge_equal_emails) {
    const SchemaBinding binding = SchemaBinding::Resolve(dataset.schema());
    // Both ends of a "distinct" pair stay out of the email groups, so the
    // pair survives condensing instead of collapsing into one reference.
    std::vector<RefId> keep_apart;
    for (const auto& [a, b] : options_.feedback.distinct) {
      keep_apart.push_back(a);
      keep_apart.push_back(b);
    }
    PremergeResult premerge = PremergeEqualEmails(dataset, binding, keep_apart);
    if (premerge.condensed.num_references() < dataset.num_references()) {
      // Feedback pairs are in original-reference space; remap them.
      ReconcilerOptions condensed_options = options_;
      condensed_options.feedback = Feedback{};
      auto remap = [&](const std::vector<std::pair<int32_t, int32_t>>& in,
                       std::vector<std::pair<int32_t, int32_t>>& out) {
        for (const auto& [a, b] : in) {
          if (a < 0 || b < 0 ||
              a >= static_cast<int32_t>(premerge.condensed_of.size()) ||
              b >= static_cast<int32_t>(premerge.condensed_of.size())) {
            continue;
          }
          const RefId ca = premerge.condensed_of[a];
          const RefId cb = premerge.condensed_of[b];
          if (ca != cb) out.emplace_back(ca, cb);
        }
      };
      remap(options_.feedback.same, condensed_options.feedback.same);
      remap(options_.feedback.distinct,
            condensed_options.feedback.distinct);

      Timer build_timer;
      BuiltGraph built = BuildDependencyGraph(premerge.condensed,
                                              condensed_options, &tracker);
      const double build_seconds = build_timer.ElapsedSeconds();
      const Reconciler condensed_reconciler(condensed_options);
      ReconcileResult condensed = condensed_reconciler.RunOnGraph(
          premerge.condensed, built, &tracker);
      condensed.stats.build_seconds = build_seconds;
      return ExpandResult(premerge, std::move(condensed));
    }
  }
  Timer build_timer;
  BuiltGraph built = BuildDependencyGraph(dataset, options_, &tracker);
  const double build_seconds = build_timer.ElapsedSeconds();
  ReconcileResult result = RunOnGraph(dataset, built, &tracker);
  result.stats.build_seconds = build_seconds;
  return result;
}

ReconcileResult Reconciler::RunOnGraph(const Dataset& dataset,
                                       BuiltGraph& built) const {
  BudgetTracker tracker(options_.budget, options_.probe_hook);
  return RunOnGraph(dataset, built, &tracker);
}

ReconcileResult Reconciler::RunOnGraph(const Dataset& dataset,
                                       BuiltGraph& built,
                                       BudgetTracker* budget) const {
  ReconcileResult result;
  Timer solve_timer;
  FixedPointSolver solver(dataset, built, options_, &result.stats, budget);
  solver.EnqueueNodes(built.initial_queue);
  solver.Run();
  // Degraded or not: constraints are always enforced and the transitive
  // closure always computed, so the result is a valid partition even when
  // the solve froze early (DESIGN.md §10). The solver is discarded after
  // this call, so closure-only propagation suffices — it keeps the
  // epilogue cost proportional to the merges made, which matters under a
  // tight deadline where the graph froze with everything still alive.
  if (options_.constraints) solver.PropagateNegativeEvidence(true);
  result.cluster = solver.Closure(&result.merged_pairs);
  result.stats.solve_seconds = solve_timer.ElapsedSeconds();
  ReportBuiltGraph(built, &result.stats);
  result.stats.stop_reason = budget->stop_reason();
  result.stats.num_budget_probes = budget->num_probes();
  return result;
}

}  // namespace recon
