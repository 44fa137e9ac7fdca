#include "core/incremental.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace recon {

IncrementalReconciler::IncrementalReconciler(Dataset initial,
                                             ReconcilerOptions options)
    : dataset_(std::move(initial)), options_(std::move(options)) {
  // Start from an empty graph over the right schema; the initial
  // references flow through the same incremental path as later batches,
  // so both are reconciled by identical code.
  const Dataset empty(dataset_.schema());
  built_ = BuildDependencyGraph(empty, options_);
  built_.graph->AddReferences(dataset_.num_references());
  index_ = std::make_unique<CandidateIndex>(built_.binding, options_);
  solver_ = std::make_unique<FixedPointSolver>(dataset_, built_, options_,
                                               &stats_);
}

IncrementalReconciler::~IncrementalReconciler() = default;

RefId IncrementalReconciler::AddReference(Reference ref, int gold_entity,
                                          Provenance provenance) {
  const RefId id = dataset_.AddReference(std::move(ref), gold_entity,
                                         provenance);
  built_.graph->AddReferences(1);
  return id;
}

void IncrementalReconciler::Flush() {
  const RefId total = dataset_.num_references();
  // Also re-enter when a budgeted earlier flush froze the solve with
  // queued work: each Flush() spends a fresh budget allotment, resuming
  // the drain exactly where it stopped (DESIGN.md §10).
  if (flushed_until_ >= total && !solver_->HasPendingWork()) return;

  // Per-flush budget epoch: the options' deadline / iteration / merge
  // limits apply to this flush alone.
  BudgetTracker tracker(options_.budget, options_.probe_hook);
  solver_->set_budget(&tracker);

  Timer timer;
  if (flushed_until_ < total) {
    const int new_refs = total - solver_->refs().size();
    if (new_refs > 0) solver_->GrowReferences(new_refs);

    // Intern and analyze the new batch's values first: candidate
    // generation reads their features, and the build step expects every
    // value interned.
    InternReferenceValues(dataset_, flushed_until_, built_.values,
                          *built_.feature_store);
    const CandidateList pairs =
        index_->AddReferences(dataset_, flushed_until_, &built_.values,
                              built_.feature_store.get());
    const std::vector<NodeId> new_nodes = ExtendDependencyGraph(
        dataset_, options_, pairs, flushed_until_, built_, &tracker);
    solver_->EnqueueNodes(new_nodes);
  }
  stats_.build_seconds += timer.ElapsedSeconds();

  timer.Restart();
  solver_->Run();
  // Constraints are enforced even on a degraded stop (DESIGN.md §10).
  if (options_.constraints) solver_->PropagateNegativeEvidence();
  stats_.solve_seconds += timer.ElapsedSeconds();
  built_.num_dropped_blocks = index_->num_dropped_blocks();
  ReportBuiltGraph(built_, &stats_);
  stats_.stop_reason = tracker.stop_reason();
  stats_.num_budget_probes += tracker.num_probes();

  // The tracker dies with this scope; restore the solver's own unlimited
  // fallback before it does.
  solver_->set_budget(nullptr);
  flushed_until_ = total;
  closure_valid_ = false;
}

int64_t IncrementalReconciler::RecheckNegativeEvidence() {
  Flush();
  const int64_t changed = solver_->RecheckNegativeEvidence();
  if (changed > 0) {
    ReportBuiltGraph(built_, &stats_);
    closure_valid_ = false;
  }
  return changed;
}

const std::vector<int>& IncrementalReconciler::clusters() {
  Flush();
  if (!closure_valid_) {
    UpdateClosure();
    closure_valid_ = true;
  }
  return clusters_;
}

void IncrementalReconciler::UpdateClosure() {
  const DependencyGraph& graph = *built_.graph;
  for (RefId r = static_cast<RefId>(clusters_.size());
       r < dataset_.num_references(); ++r) {
    clusters_.push_back(r);
    members_.push_back({r});
    closure_pairs_.emplace_back();
  }
  closure_end_.resize(static_cast<size_t>(graph.num_nodes()), -1);
  auto live_merged = [&graph](NodeId id) {
    const Node& node = graph.node(id);
    return !node.dead && node.state == NodeState::kMerged;
  };

  // The node states are the final word: a pair listed as unmerged may have
  // merged again since, and one listed as merged may have left already.
  FixedPointSolver::MergeChanges changes = solver_->TakeMergeChanges();
  std::vector<int> split;
  for (const NodeId id : changes.unmerged) {
    if (closure_end_[id] < 0 || live_merged(id)) continue;
    split.push_back(clusters_[closure_end_[id]]);
    closure_end_[id] = -1;
  }
  std::sort(split.begin(), split.end());
  split.erase(std::unique(split.begin(), split.end()), split.end());
  for (const int label : split) SplitCluster(label);

  for (const NodeId id : changes.merged) {
    if (closure_end_[id] >= 0 || !live_merged(id)) continue;
    const Node& node = graph.node(id);
    closure_end_[id] = static_cast<RefId>(node.a);
    Union(id, static_cast<RefId>(node.a), static_cast<RefId>(node.b));
  }
}

void IncrementalReconciler::Union(NodeId id, RefId a, RefId b) {
  int keep = clusters_[a];
  int gone = clusters_[b];
  if (keep > gone) std::swap(keep, gone);
  if (keep != gone) {
    // The cluster labeled `gone` takes the smaller label `keep`.
    for (const RefId r : members_[gone]) clusters_[r] = keep;
    members_[keep].insert(members_[keep].end(), members_[gone].begin(),
                          members_[gone].end());
    closure_pairs_[keep].insert(closure_pairs_[keep].end(),
                                closure_pairs_[gone].begin(),
                                closure_pairs_[gone].end());
    members_[gone] = {};
    closure_pairs_[gone] = {};
  }
  closure_pairs_[keep].push_back(id);
}

void IncrementalReconciler::SplitCluster(int label) {
  const DependencyGraph& graph = *built_.graph;
  std::vector<RefId> members = std::exchange(members_[label], {});
  std::vector<NodeId> pairs = std::exchange(closure_pairs_[label], {});
  std::erase_if(pairs, [this](NodeId id) { return closure_end_[id] < 0; });
  std::sort(members.begin(), members.end());
  auto local = [&members](int r) {
    return static_cast<int>(
        std::lower_bound(members.begin(), members.end(), r) -
        members.begin());
  };
  UnionFind pieces(static_cast<int>(members.size()));
  for (const NodeId id : pairs) {
    pieces.Union(local(graph.node(id).a), local(graph.node(id).b));
  }
  // Ascending members: the first one seen in a piece is its smallest.
  std::vector<int> piece_label(members.size(), -1);
  for (size_t i = 0; i < members.size(); ++i) {
    int& piece = piece_label[pieces.Find(static_cast<int>(i))];
    if (piece < 0) piece = members[i];
    clusters_[members[i]] = piece;
    members_[piece].push_back(members[i]);
  }
  for (const NodeId id : pairs) {
    closure_pairs_[clusters_[graph.node(id).a]].push_back(id);
  }
}

ReconcileResult IncrementalReconciler::result() {
  ReconcileResult out;
  out.cluster = clusters();  // Flushes and refreshes the closure.
  // Node order, as FixedPointSolver::Closure reports them.
  for (NodeId id = 0; id < static_cast<NodeId>(closure_end_.size()); ++id) {
    if (closure_end_[id] < 0) continue;
    const Node& node = built_.graph->node(id);
    out.merged_pairs.emplace_back(static_cast<RefId>(node.a),
                                  static_cast<RefId>(node.b));
  }
  out.stats = stats_;
  return out;
}

}  // namespace recon
