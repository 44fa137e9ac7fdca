#include "core/solver.h"

#include <algorithm>
#include <span>

#include "sim/class_sim.h"
#include "sim/params.h"
#include "util/logging.h"
#include "util/timer.h"

namespace recon {

FixedPointSolver::FixedPointSolver(const Dataset& dataset, BuiltGraph& built,
                                   const ReconcilerOptions& options,
                                   ReconcileStats* stats,
                                   BudgetTracker* budget)
    : dataset_(dataset),
      built_(built),
      graph_(*built.graph),
      options_(options),
      stats_(stats),
      own_budget_(budget == nullptr
                      ? std::make_unique<BudgetTracker>(Budget{})
                      : nullptr),
      budget_(budget != nullptr ? budget : own_budget_.get()),
      refs_(dataset.num_references()) {}

void FixedPointSolver::EnqueueNodes(const std::vector<NodeId>& nodes) {
  for (const NodeId id : nodes) {
    Node& node = graph_.mutable_node(id);
    if (node.dead || node.queued || node.state == NodeState::kNonMerge) {
      continue;
    }
    if (node.state == NodeState::kInactive) node.state = NodeState::kActive;
    node.queued = true;
    queue_.push_back(id);
  }
}

bool FixedPointSolver::StopBeforePop(int64_t* iterations,
                                     int64_t iteration_cap) {
  if (budget_->Probe(ProbePoint::kSolveCommit)) return true;
  if (*iterations >= iteration_cap) {
    // The configured budget — or, unconfigured, the convergence safety
    // cap — is spent. Either way this is the degraded-stop path, never an
    // abort: constraints and the closure still run on the frozen state.
    if (!budget_->budget().HasIterationLimit()) {
      RECON_LOG(Warning) << "Fixed point did not converge within the "
                         << iteration_cap
                         << "-iteration safety cap; freezing the solve";
    }
    budget_->ForceStop(StopReason::kIterationBudget);
    return true;
  }
  ++*iterations;
  return false;
}

void FixedPointSolver::Run() {
  const int64_t iteration_cap =
      budget_->budget().HasIterationLimit()
          ? budget_->budget().max_solver_iterations
          : 500LL * std::max(1, graph_.num_nodes()) + 1000;
  merge_cap_ = budget_->budget().HasMergeLimit()
                   ? budget_->budget().max_merges
                   : 0;
  merges_this_run_ = 0;
  int64_t iterations = 0;
  // The whole drain is one "round" for probing purposes; the per-pop
  // kSolveCommit probes inside the loop carry the budget checks.
  budget_->Probe(ProbePoint::kSolveRound);
  Timer timer;
  while (!queue_.empty()) {
    if (StopBeforePop(&iterations, iteration_cap)) break;
    Step(queue_.pop_front());
  }
  stats_->solve_commit_seconds += timer.ElapsedSeconds();
  stats_->solver_iterations += iterations;
  stats_->stop_reason = budget_->stop_reason();
}

void FixedPointSolver::Step(NodeId id) {
  Node& node = graph_.mutable_node(id);
  node.queued = false;
  if (node.dead || node.state == NodeState::kNonMerge) return;
  if (node.state == NodeState::kActive) node.state = NodeState::kInactive;
  Commit(id, node, CachedSimilarity(id, node));
}

void FixedPointSolver::Commit(NodeId id, Node& node, double computed) {
  ++stats_->num_recomputations;
  const double old_sim = node.sim;
  // Similarities are monotone non-decreasing (§3.2 termination).
  if (computed > node.sim) node.sim = static_cast<float>(computed);
  const bool increased = node.sim > old_sim + kSimParams.epsilon;

  // Any raise — even one below epsilon, which re-activates nobody — must
  // reach dependents' caches: a full rescan reads current sims, so the
  // cache has to as well.
  if (node.sim > old_sim) PushSimDelta(id, node);

  if (increased && options_.propagation) {
    for (const Edge& e : graph_.out_edges(id)) {
      if (e.kind == DependencyKind::kRealValued) Enqueue(e.node, false);
    }
  }

  const double threshold = node.IsRefPair() ? kSimParams.merge_threshold
                                             : kSimParams.value_merge_threshold;
  if (node.sim >= threshold && node.state != NodeState::kMerged) {
    node.state = NodeState::kMerged;
    if (node.IsRefPair()) merged_log_.push_back(id);
    ++stats_->num_merges;
    ++merges_this_run_;
    if (merge_cap_ > 0 && merges_this_run_ >= merge_cap_) {
      // The budget is spent, but this commit — deltas, propagation
      // pushes, enrichment — still completes: it is one deterministic
      // unit. The drain freezes before the next pop.
      budget_->ForceStop(StopReason::kMergeBudget);
    }
    PushMergeDelta(id);
    if (options_.propagation) {
      // Strong-boolean dependents jump the queue (§3.2 heuristics).
      for (const Edge& e : graph_.out_edges(id)) {
        if (e.kind == DependencyKind::kStrongBoolean) {
          Enqueue(e.node, options_.strong_neighbors_jump_queue);
        }
      }
      for (const Edge& e : graph_.out_edges(id)) {
        if (e.kind == DependencyKind::kWeakBoolean) Enqueue(e.node, false);
      }
    }
    if (node.IsRefPair() && options_.enrichment) {
      EnrichReferences(id);
    }
  }
}

void FixedPointSolver::EnrichReferences(NodeId id) {
  // Capture the pair first; MergeReferences does not add nodes but the
  // node reference would alias mutable graph state.
  const RefId a = static_cast<RefId>(graph_.node(id).a);
  const RefId b = static_cast<RefId>(graph_.node(id).b);
  const int keep = refs_.Union(a, b);
  const RefId gone = (keep == a) ? b : a;
  MergeRefsResult result = graph_.MergeReferences(keep, gone);
  stats_->num_folds += static_cast<int64_t>(result.folded.size());
  for (const NodeId m : result.gained_inputs) Enqueue(m, false);
}

void FixedPointSolver::Enqueue(NodeId id, bool front) {
  Node& node = graph_.mutable_node(id);
  if (node.dead || node.queued || node.state == NodeState::kNonMerge) {
    return;
  }
  if (node.sim >= 1.0f) return;  // Cannot increase further (§3.2).
  node.queued = true;
  if (node.state == NodeState::kInactive) node.state = NodeState::kActive;
  if (front) {
    queue_.push_front(id);
  } else {
    queue_.push_back(id);
  }
}

double FixedPointSolver::CachedSimilarity(NodeId id, Node& node) {
  if (node.forced_merge) return 1.0;  // User-confirmed match.
  if (!node.cache_valid) {
    BuildCacheSummary(id, &node.cache, &stats_->num_inedge_scans);
    node.cache_valid = true;
    ++stats_->num_cache_rebuilds;
  } else {
    stats_->num_inedge_scans_avoided += graph_.in_degree(id);
  }
  return ScoreFromCache(node);
}

double FixedPointSolver::ScoreFromCache(const Node& node) const {
  if (!node.IsRefPair()) {
    return node.cache.strong_merged > 0 ? 1.0 : node.sim;
  }
  const ClassSimilarity* sim_fn = built_.class_sims[node.class_id].get();
  RECON_CHECK(sim_fn != nullptr)
      << "No similarity function for class " << node.class_id;
  return sim_fn->Compute(node.cache);
}

void FixedPointSolver::BuildCacheSummary(NodeId id, EvidenceSummary* cache,
                                         int64_t* scans) const {
  const Node& node = graph_.node(id);
  *cache = EvidenceSummary();
  if (!node.IsRefPair()) {
    // Value pairs: initial string similarity, lifted to 1 when a merged
    // strong-boolean neighbor certifies the values denote one entity
    // (Fig. 2's n6 after the venues merge). Only whether *any* such
    // neighbor merged matters, so the rescan stops at the first.
    for (const Edge& e : graph_.in_edges(id)) {
      ++*scans;
      if (e.kind == DependencyKind::kStrongBoolean &&
          graph_.node(e.node).state == NodeState::kMerged) {
        cache->strong_merged = 1;
        break;
      }
    }
    return;
  }
  for (const StaticReal& entry : graph_.static_real(id)) {
    cache->Offer(entry.type, entry.sim);
  }
  cache->strong_merged = node.static_strong;
  cache->weak_merged = node.static_weak;
  *scans += graph_.in_degree(id);
  for (const Edge& e : graph_.in_edges(id)) {
    const Node& src = graph_.node(e.node);
    if (src.dead) continue;
    switch (e.kind) {
      case DependencyKind::kRealValued:
        if (src.state != NodeState::kNonMerge) {
          cache->Offer(e.evidence, src.sim);
        }
        break;
      case DependencyKind::kStrongBoolean:
        if (src.state == NodeState::kMerged) ++cache->strong_merged;
        break;
      case DependencyKind::kWeakBoolean:
        if (src.state == NodeState::kMerged) ++cache->weak_merged;
        break;
    }
  }
}

void FixedPointSolver::PushSimDelta(NodeId id, const Node& node) {
  for (const Edge& e : graph_.out_edges(id)) {
    if (e.kind != DependencyKind::kRealValued) continue;
    Node& dep = graph_.mutable_node(e.node);
    if (!dep.cache_valid) continue;  // The eventual rebuild reads node.sim.
    dep.cache.Offer(e.evidence, node.sim);
    ++stats_->num_delta_pushes;
  }
}

void FixedPointSolver::PushMergeDelta(NodeId id) {
  for (const Edge& e : graph_.out_edges(id)) {
    if (e.kind == DependencyKind::kRealValued) continue;
    Node& dep = graph_.mutable_node(e.node);
    if (!dep.cache_valid) continue;
    if (e.kind == DependencyKind::kStrongBoolean) {
      ++dep.cache.strong_merged;
    } else {
      ++dep.cache.weak_merged;
    }
    ++stats_->num_delta_pushes;
  }
}

void FixedPointSolver::PropagateNegativeEvidence(bool closure_only) {
  // Sources are the non-merge pairs a constraint or "distinct" feedback
  // put there. The pairs this rule demotes are derived and never become
  // sources, so negative evidence travels one triangle from a constraint,
  // not one more triangle with every pass (DESIGN.md §5). Only triangles
  // that contain a node changed since the previous pass are examined. Any
  // other triangle was examined by the previous pass with the same nodes
  // and can only repeat a demotion, so the outcome is exactly the full
  // pass's (DESIGN.md §17).
  DependencyGraph::ChangeSet changes = graph_.CloseChangeEpoch();
  std::vector<NodeId>& sources = changes.sources;
  if (closure_only) {
    // A demotion changes the closure only when the demoted node is merged.
    // Both demotion candidates for source (r1, r2) are adjacent to r1 or
    // r2, so when neither reference touches any merged pair the source can
    // be skipped outright.
    std::vector<char> touches_merge(dataset_.num_references(), 0);
    for (NodeId id = 0; id < graph_.num_nodes(); ++id) {
      const Node& node = graph_.node(id);
      if (!node.dead && node.IsRefPair() &&
          node.state == NodeState::kMerged) {
        touches_merge[node.a] = 1;
        touches_merge[node.b] = 1;
      }
    }
    std::erase_if(sources, [&](NodeId id) {
      const Node& node = graph_.node(id);
      return !touches_merge[node.a] && !touches_merge[node.b];
    });
  }
  stats_->negprop_sources = static_cast<int64_t>(sources.size());

  // The changed pairs by endpoint: an unchanged source (r1, r2) meets its
  // new triangles (r1, r2, r3) through a changed (r1, r3) or (r2, r3).
  std::vector<std::pair<RefId, NodeId>> changed_at;
  for (const NodeId cid : changes.nodes) {
    const Node& c = graph_.node(cid);
    if (c.dead) continue;
    changed_at.emplace_back(c.a, cid);
    changed_at.emplace_back(c.b, cid);
  }
  std::sort(changed_at.begin(), changed_at.end());
  auto changed_pairs_at = [&changed_at](RefId r) {
    const auto first = std::lower_bound(changed_at.begin(), changed_at.end(),
                                        std::pair<RefId, NodeId>{r, 0});
    auto last = first;
    while (last != changed_at.end() && last->first == r) ++last;
    return std::span(first, last);
  };
  for (const NodeId lid : sources) {
    if (changes.all_nodes || graph_.IsNodeDirty(lid)) {
      // A changed source forms new triangles with all its neighbors.
      DemoteAcrossTriangles(lid);
      continue;
    }
    const RefId r1 = static_cast<RefId>(graph_.node(lid).a);
    const RefId r2 = static_cast<RefId>(graph_.node(lid).b);
    // The walked side (r1, r3) changed; the full pass walks it only if
    // r1's list holds it.
    for (const auto& [r, mid] : changed_pairs_at(r1)) {
      if (graph_.InRefList(r1, mid)) DemoteInTriangle(lid, mid);
    }
    // The looked-up side (r2, r3) changed; its walked partner (r1, r3)
    // must be in r1's list.
    for (const auto& [r, nid] : changed_pairs_at(r2)) {
      const RefId r3 = static_cast<RefId>(graph_.node(nid).Other(r2));
      const NodeId mid = graph_.FindRefPair(r1, r3);
      if (mid == kInvalidNode || graph_.node(mid).dead ||
          !graph_.InRefList(r1, mid)) {
        continue;
      }
      DemoteInTriangle(lid, mid);
    }
  }
}

int64_t FixedPointSolver::RecheckNegativeEvidence() {
  // Every source a full pass starts from: the live non-merge pairs that
  // are not derived (the latest pass's own demotions among them).
  int64_t changed = 0;
  for (NodeId id = 0; id < graph_.num_nodes(); ++id) {
    const Node& node = graph_.node(id);
    if (!node.dead && node.IsRefPair() &&
        node.state == NodeState::kNonMerge && !node.derived) {
      changed += DemoteAcrossTriangles(id);
    }
  }
  return changed;
}

int64_t FixedPointSolver::RecheckEvidenceCaches() const {
  int64_t differing = 0;
  int64_t scans = 0;
  EvidenceSummary fresh;
  for (NodeId id = 0; id < graph_.num_nodes(); ++id) {
    const Node& node = graph_.node(id);
    if (node.dead || !node.cache_valid) continue;
    BuildCacheSummary(id, &fresh, &scans);
    const EvidenceSummary& kept = node.cache;
    // A value pair's push path counts every merged neighbor while the
    // rescan stops at the first, so only "any merged" must agree.
    const bool same =
        node.IsRefPair()
            ? kept.best == fresh.best &&
                  kept.strong_merged == fresh.strong_merged &&
                  kept.weak_merged == fresh.weak_merged
            : (kept.strong_merged > 0) == (fresh.strong_merged > 0);
    if (!same) ++differing;
  }
  return differing;
}

int FixedPointSolver::DemoteAcrossTriangles(NodeId lid) {
  // Demotions leave the reference lists alone, so the span stays valid.
  int demoted = 0;
  for (const NodeId mid : graph_.NodesOfRef(graph_.node(lid).a)) {
    demoted += DemoteInTriangle(lid, mid) ? 1 : 0;
  }
  return demoted;
}

bool FixedPointSolver::DemoteInTriangle(NodeId lid, NodeId mid) {
  if (mid == lid) return false;
  const Node& l = graph_.node(lid);
  const Node& m = graph_.node(mid);
  if (m.dead || !m.IsRefPair()) return false;
  const RefId r1 = static_cast<RefId>(l.a);
  const RefId r2 = static_cast<RefId>(l.b);
  const RefId r3 = static_cast<RefId>(m.Other(r1));
  if (r3 == r2) return false;
  const NodeId nid = graph_.FindRefPair(r2, r3);
  if (nid == kInvalidNode) return false;
  const Node& n = graph_.node(nid);
  if (n.dead) return false;
  // Demote the weaker side so r1 and r2 cannot be glued through r3
  // (deterministic tie-break on node id). The demotion invalidates
  // dependent caches: a non-merge pair no longer contributes real-valued
  // evidence, which matters if the solver is re-entered.
  const NodeId lower =
      (m.sim > n.sim || (m.sim == n.sim && mid < nid)) ? nid : mid;
  return graph_.DemoteDerived(lower);
}

std::vector<int> FixedPointSolver::Closure(
    std::vector<std::pair<RefId, RefId>>* merged_pairs) const {
  UnionFind closure(dataset_.num_references());
  for (NodeId id = 0; id < graph_.num_nodes(); ++id) {
    const Node& node = graph_.node(id);
    if (node.dead || !node.IsRefPair()) continue;
    if (node.state == NodeState::kMerged) {
      closure.Union(node.a, node.b);
      if (merged_pairs != nullptr) {
        merged_pairs->emplace_back(static_cast<RefId>(node.a),
                                   static_cast<RefId>(node.b));
      }
    }
  }
  // Canonicalize every cluster to its smallest member. Raw union-find
  // representatives depend on union order (union by size), so equivalent
  // merge sequences could label the same partition differently; the
  // minimum member is a stable, order-independent id that byte-identity
  // contracts (thread counts, incremental flushes) can compare directly.
  std::vector<int> cluster(dataset_.num_references());
  std::vector<int> canonical(dataset_.num_references(), -1);
  for (int i = 0; i < dataset_.num_references(); ++i) {
    const int root = closure.Find(i);
    if (canonical[root] < 0) canonical[root] = i;  // Ascending i: minimum.
    cluster[i] = canonical[root];
  }
  return cluster;
}

}  // namespace recon
