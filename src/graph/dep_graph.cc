#include "graph/dep_graph.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace recon {

DependencyGraph::DependencyGraph(int num_references) {
  RECON_CHECK_GE(num_references, 0);
  ref_pool_.EnsureSlots(static_cast<size_t>(num_references));
  ref_epoch_.resize(ref_pool_.num_slots(), 0);
}

NodeId DependencyGraph::PushNode(Node&& node) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(node));
  in_pool_.EnsureSlots(nodes_.size());
  out_pool_.EnsureSlots(nodes_.size());
  static_pool_.EnsureSlots(nodes_.size());
  ++num_live_nodes_;
  return id;
}

void DependencyGraph::ReserveBuild(const GraphGrowth& growth) {
  // The counts come from evidence already staged, never from the
  // candidate count: most candidates carry no evidence and add no node, so
  // a per-candidate estimate would size (and, for the pair indexes, touch)
  // memory for a graph several times the real one.
  const size_t nodes = nodes_.size() + growth.ref_pairs + growth.value_pairs;
  ReserveGeometric(nodes_, nodes);
  in_pool_.ReserveSlots(nodes);
  out_pool_.ReserveSlots(nodes);
  static_pool_.ReserveSlots(nodes);
  in_pool_.ReserveAppend(growth.edges);
  out_pool_.ReserveAppend(growth.edges);
  static_pool_.ReserveAppend(growth.statics);
  ref_pair_index_.Reserve(ref_pair_index_.size() + growth.ref_pairs);
  value_pair_index_.Reserve(value_pair_index_.size() + growth.value_pairs);
}

void DependencyGraph::Compact() {
  in_pool_.Compact();
  out_pool_.Compact();
  static_pool_.Compact();
  ref_pool_.Compact();
  num_compactions_ += 4;
  // The pair indexes are touched slot arrays, so their slack is resident:
  // rehash them to the true entry count. The node array keeps its
  // capacity. Its slack was reserved but never written, so it holds no
  // resident memory, and shrink_to_fit would copy every node while the old
  // array is still live — the peak of a large build — to free nothing.
  ref_pair_index_.ShrinkToFit();
  value_pair_index_.ShrinkToFit();
}

void DependencyGraph::CompactFragmented() {
  auto compact_if_fragmented = [this](auto& pool) {
    if (pool.garbage() <= pool.TotalCount()) return;
    pool.Compact(/*keep_capacity=*/true);
    ++num_compactions_;
  };
  compact_if_fragmented(in_pool_);
  compact_if_fragmented(out_pool_);
  compact_if_fragmented(static_pool_);
  compact_if_fragmented(ref_pool_);
}

DependencyGraph::ChangeSet DependencyGraph::CloseChangeEpoch() {
  ChangeSet out;
  size_t kept = 0;
  for (NonMergeEntry entry : non_merge_) {
    if (ref_epoch_[static_cast<size_t>(entry.a)] == epoch_ ||
        ref_epoch_[static_cast<size_t>(entry.b)] == epoch_) {
      const Node& node = nodes_[entry.id];
      if (node.dead || node.state != NodeState::kNonMerge || node.derived) {
        continue;
      }
      // Re-keyed since registration: both the old and the new endpoints
      // were marked, so the refreshed entry is still a source.
      entry.a = node.a;
      entry.b = node.b;
      out.sources.push_back(entry.id);
    }
    non_merge_[kept++] = entry;
  }
  non_merge_.resize(kept);
  // A node re-registered after leaving and re-entering the state appears
  // twice, and a node marked twice is listed twice.
  auto sort_unique = [](std::vector<NodeId>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  sort_unique(out.sources);
  out.all_nodes = changed_overflow_;
  out.nodes = std::exchange(changed_, {});
  sort_unique(out.nodes);
  changed_overflow_ = false;
  closed_epoch_ = epoch_++;
  return out;
}

GraphBytes DependencyGraph::bytes() const {
  GraphBytes b;
  b.nodes = nodes_.size() * sizeof(Node) + static_pool_.data_bytes() +
            static_pool_.slot_bytes();
  b.edges = in_pool_.data_bytes() + in_pool_.slot_bytes() +
            out_pool_.data_bytes() + out_pool_.slot_bytes();
  b.indices = ref_pair_index_.bytes() + value_pair_index_.bytes() +
              ref_pool_.data_bytes() + ref_pool_.slot_bytes();
  return b;
}

NodeId DependencyGraph::AddRefPairNode(int class_id, RefId r1, RefId r2) {
  RECON_CHECK_NE(r1, r2);
  RECON_CHECK(r1 >= 0 && r1 < static_cast<int>(ref_pool_.num_slots()));
  RECON_CHECK(r2 >= 0 && r2 < static_cast<int>(ref_pool_.num_slots()));
  const uint64_t key = PairKey(r1, r2);
  auto [existing, inserted] =
      ref_pair_index_.Insert(key, static_cast<NodeId>(nodes_.size()));
  if (!inserted) return existing;

  Node node;
  node.kind = NodeKind::kReferencePair;
  node.class_id = static_cast<int16_t>(class_id);
  node.a = std::min(r1, r2);
  node.b = std::max(r1, r2);
  node.sim = 0.0f;
  node.state = NodeState::kInactive;
  const NodeId id = PushNode(std::move(node));
  ref_pool_.Append(static_cast<size_t>(r1), id);
  ref_pool_.Append(static_cast<size_t>(r2), id);
  MarkDirty(id);
  return id;
}

NodeId DependencyGraph::AddValuePairNode(ValueId v1, ValueId v2, double sim,
                                         NodeState state) {
  RECON_CHECK_NE(v1, v2);
  const uint64_t key = PairKey(v1, v2);
  auto [existing, inserted] =
      value_pair_index_.Insert(key, static_cast<NodeId>(nodes_.size()));
  if (!inserted) return existing;

  Node node;
  node.kind = NodeKind::kValuePair;
  node.a = std::min(v1, v2);
  node.b = std::max(v1, v2);
  node.sim = static_cast<float>(sim);
  node.state = state;
  return PushNode(std::move(node));
}

void DependencyGraph::AddEdge(NodeId from, NodeId to, DependencyKind kind,
                              int evidence) {
  RECON_CHECK_NE(from, to);
  const int16_t ev = static_cast<int16_t>(evidence);
  for (const Edge& e : out_pool_.span(from)) {
    if (e.node == to && e.kind == kind && e.evidence == ev) return;
  }
  out_pool_.Append(from, Edge{to, kind, ev});
  in_pool_.Append(to, Edge{from, kind, ev});
  const Node& src = nodes_[from];
  Node& dst = nodes_[to];
  // Push the new source's current contribution so `to`'s evidence cache
  // stays valid: this is exactly what a rescan would read for this edge
  // right now, and later source changes arrive as solver deltas (sim
  // raises, merge transitions) or cache invalidations (demotions, folds).
  if (dst.cache_valid) {
    switch (kind) {
      case DependencyKind::kRealValued:
        if (!src.dead && src.state != NodeState::kNonMerge) {
          dst.cache.Offer(ev, src.sim);
        }
        break;
      case DependencyKind::kStrongBoolean:
        if (src.state == NodeState::kMerged) ++dst.cache.strong_merged;
        break;
      case DependencyKind::kWeakBoolean:
        if (src.state == NodeState::kMerged) ++dst.cache.weak_merged;
        break;
    }
  }
  ++num_edges_;
}

void DependencyGraph::AddStaticReal(NodeId id, int evidence, double sim) {
  // Statics feed the cached summary through the same max, so the cache
  // absorbs the new value directly and stays valid.
  Node& node = nodes_[id];
  node.cache.Offer(evidence, static_cast<float>(sim));
  const int16_t ev = static_cast<int16_t>(evidence);
  for (StaticReal& entry : static_pool_.mutable_span(id)) {
    if (entry.type == ev) {
      if (sim > entry.sim) entry.sim = static_cast<float>(sim);
      return;
    }
  }
  static_pool_.Append(id, StaticReal{ev, static_cast<float>(sim)});
}

bool DependencyGraph::SetNodeState(NodeId id, NodeState state) {
  const Node& node = nodes_[id];
  if (state == NodeState::kNonMerge && node.state == state && node.derived) {
    PromoteToSource(id);
  }
  return Transition(id, state, /*derived=*/false);
}

bool DependencyGraph::DemoteDerived(NodeId id) {
  return Transition(id, NodeState::kNonMerge, /*derived=*/true);
}

bool DependencyGraph::Transition(NodeId id, NodeState state, bool derived) {
  Node& node = nodes_[id];
  const NodeState old = node.state;
  if (old == state) return false;
  node.state = state;
  MarkDirty(id);
  if (state == NodeState::kNonMerge) NoteNonMerge(id, derived);
  if (old == NodeState::kNonMerge) NoteLeftNonMerge(id);
  if (old == NodeState::kMerged) NoteUnmerged(id);
  // Keep dependent evidence caches honest. Additions (a restored or newly
  // merged contribution) are monotone and can be pushed; removals (a
  // demoted contribution) invalidate only the caches whose summary may
  // actually rest on it.
  const bool was_merged = old == NodeState::kMerged;
  const bool is_merged = state == NodeState::kMerged;
  const float node_sim = node.sim;
  for (const Edge& e : out_pool_.span(id)) {
    Node& dep = nodes_[e.node];
    if (!dep.cache_valid) continue;
    if (e.kind == DependencyKind::kRealValued) {
      if (state == NodeState::kNonMerge) {
        // Rescans now exclude this node; if the cached channel max could
        // come from it, the dependent must rescan. A strictly greater max
        // is supported by another (still included) contributor.
        if (dep.cache.best[e.evidence] <= node_sim) dep.cache_valid = false;
      } else if (old == NodeState::kNonMerge) {
        dep.cache.Offer(e.evidence, node_sim);  // Contribution restored.
      }
    } else if (e.kind == DependencyKind::kStrongBoolean) {
      if (is_merged && !was_merged) {
        ++dep.cache.strong_merged;
      } else if (was_merged && !is_merged) {
        dep.cache_valid = false;  // Un-merge (feedback): count must drop.
      }
    } else {
      if (is_merged && !was_merged) {
        ++dep.cache.weak_merged;
      } else if (was_merged && !is_merged) {
        dep.cache_valid = false;
      }
    }
  }
  return true;
}

void DependencyGraph::InvalidateDependentCaches(NodeId id) {
  for (const Edge& e : out_pool_.span(id)) {
    nodes_[e.node].cache_valid = false;
  }
}

NodeId DependencyGraph::FindRefPair(RefId r1, RefId r2) const {
  if (r1 == r2) return kInvalidNode;
  return ref_pair_index_.Find(PairKey(r1, r2));
}

void DependencyGraph::DetachEdge(NodeId source, NodeId target,
                                 DependencyKind kind, int16_t evidence) {
  const bool found =
      out_pool_.RemoveFirst(source, [&](const Edge& e) {
        return e.node == target && e.kind == kind && e.evidence == evidence;
      });
  if (!found) {
    RECON_LOG(Fatal) << "DetachEdge: edge " << source << " -> " << target
                     << " not found";
  }
  --num_edges_;
}

bool DependencyGraph::FoldInto(NodeId from, NodeId into) {
  RECON_CHECK_NE(from, into);
  RECON_CHECK(!nodes_[from].dead && !nodes_[into].dead);
  // `from` dies. `into` keeps its key, and a sim raise changes no
  // triangle's weaker side (DESIGN.md §17), so `into` is marked only if it
  // takes on the non-merge state or becomes a source below.
  MarkDirty(from);
  const float old_sim = nodes_[into].sim;

  bool gained = false;
  // Reconnect incoming dependencies: x -> from becomes x -> into. The
  // span must be copied first: AddEdge below appends into the same pools
  // and would invalidate it mid-iteration.
  {
    const auto src_in = in_pool_.span(from);
    scratch_edges_.assign(src_in.begin(), src_in.end());
  }
  for (const Edge& e : scratch_edges_) {
    DetachEdge(e.node, from, e.kind, e.evidence);
    if (e.node == into) continue;  // Would be a self loop.
    const uint32_t before = in_pool_.count(into);
    AddEdge(e.node, into, e.kind, e.evidence);
    if (in_pool_.count(into) > before) gained = true;
  }
  in_pool_.Clear(from);

  // Reconnect outgoing dependencies: from -> y becomes into -> y.
  //
  // y's evidence cache survives this: src was never merged (merged nodes
  // are not folded) and src.sim <= the sim dst ends up with, so replacing
  // the src edge leaves y's cached channel maxima equal to a rescan — a
  // genuinely new into -> y edge pushes dst's contribution via AddEdge,
  // and dst's own sim raise / demotion is reconciled at the end below.
  bool dst_lost_input = false;
  {
    const auto src_out = out_pool_.span(from);
    scratch_edges_.assign(src_out.begin(), src_out.end());
  }
  for (const Edge& e : scratch_edges_) {
    // Remove the y.in record for `from`.
    if (in_pool_.RemoveFirst(e.node, [&](const Edge& back) {
          return back.node == from && back.kind == e.kind &&
                 back.evidence == e.evidence;
        })) {
      --num_edges_;
    }
    if (e.node == into) {
      // dst loses src's own real-valued contribution; its cached channel
      // max may rest on it.
      if (e.kind == DependencyKind::kRealValued) dst_lost_input = true;
      continue;
    }
    AddEdge(into, e.node, e.kind, e.evidence);
  }
  out_pool_.Clear(from);

  // Static evidence accumulates: the surviving node represents the union
  // of both pairs' information. AddStaticReal maintains dst's cache; the
  // boolean base counts are delta-bumped to match. The span must be copied
  // first: AddStaticReal appends to the same pool, and growth reallocates
  // the storage under a live span.
  {
    const auto src_static = static_pool_.span(from);
    scratch_statics_.assign(src_static.begin(), src_static.end());
  }
  for (const StaticReal& entry : scratch_statics_) {
    AddStaticReal(into, entry.type, entry.sim);
  }
  Node& src = nodes_[from];
  Node& dst = nodes_[into];
  if (src.static_strong > dst.static_strong) {
    if (dst.cache_valid) {
      dst.cache.strong_merged += src.static_strong - dst.static_strong;
    }
    dst.static_strong = src.static_strong;
  }
  if (src.static_weak > dst.static_weak) {
    if (dst.cache_valid) {
      dst.cache.weak_merged += src.static_weak - dst.static_weak;
    }
    dst.static_weak = src.static_weak;
  }

  // Negative evidence survives folding: a cluster may not merge with a
  // reference constrained apart from any of its members. An already-merged
  // destination is left merged (decisions are monotone; the §3.4
  // post-fixpoint pass arbitrates genuine conflicts). The survivor is
  // derived only if every non-merge side of the fold was.
  if (src.state == NodeState::kNonMerge) {
    if (dst.state == NodeState::kNonMerge) {
      if (dst.derived && !src.derived) PromoteToSource(into);
    } else if (dst.state != NodeState::kMerged) {
      dst.state = NodeState::kNonMerge;
      NoteNonMerge(into, src.derived);
      MarkDirty(into);
    }
  } else if (dst.state != NodeState::kNonMerge) {
    // Evidence is now a superset of both nodes'; a monotone similarity
    // function will produce at least max of the two on recomputation.
    dst.sim = std::max(dst.sim, src.sim);
  }

  if (src.state == NodeState::kMerged) NoteUnmerged(from);
  src.dead = true;
  --num_live_nodes_;
  if (src.state == NodeState::kNonMerge) NoteLeftNonMerge(from);
  // Every dst mutation above was cache-maintained (AddEdge pushed gained
  // contributions, statics were offered / delta-bumped), except a direct
  // src -> dst input disappearing with the fold.
  if (dst_lost_input) dst.cache_valid = false;
  if (dst.state == NodeState::kNonMerge) {
    // Rescans exclude a non-merge dst, but dependents may cache the
    // folded node's (or, on a fresh demotion, dst's own) contributions.
    // Covers both the constraint transferred from src and a dst that was
    // already constrained before edges were moved onto it.
    InvalidateDependentCaches(into);
  } else if (dst.sim != old_sim) {
    // Monotone raise outside the solver loop: push it like Step would.
    const float dst_sim = dst.sim;
    for (const Edge& e : out_pool_.span(into)) {
      if (e.kind != DependencyKind::kRealValued) continue;
      Node& dep = nodes_[e.node];
      if (dep.cache_valid) dep.cache.Offer(e.evidence, dst_sim);
    }
  }
  return gained;
}

void DependencyGraph::RemoveFromRefLists(NodeId id) {
  const Node& node = nodes_[id];
  for (const RefId r : {static_cast<RefId>(node.a),
                        static_cast<RefId>(node.b)}) {
    ref_pool_.RemoveFirst(static_cast<size_t>(r),
                          [id](NodeId n) { return n == id; });
  }
}

MergeRefsResult DependencyGraph::MergeReferences(RefId keep, RefId gone) {
  RECON_CHECK_NE(keep, gone);
  MergeRefsResult result;
  // Both reference lists change: gone's empties, keep's gains the renamed
  // and folded-into nodes (each marked below with its other endpoint).
  MarkRefDirty(keep);
  MarkRefDirty(gone);

  // Copy: folding mutates the ref lists.
  {
    const auto gone_span = ref_pool_.span(static_cast<size_t>(gone));
    scratch_refs_.assign(gone_span.begin(), gone_span.end());
  }
  for (const NodeId n : scratch_refs_) {
    Node& node = nodes_[n];
    if (node.dead) continue;
    if (!node.IsRefPair()) continue;
    const RefId other = static_cast<RefId>(node.Other(gone));
    // The (keep, gone) pair node itself, and merged nodes — markers of
    // earlier merges within this cluster, which stay in place as evidence
    // sources and must not be renamed or folded — keep their key but leave
    // gone's list when it is cleared below.
    if (other == keep || node.state == NodeState::kMerged) {
      orphans_.insert(OrphanKey(gone, n));
      continue;
    }

    ref_pair_index_.Erase(PairKey(node.a, node.b));
    const NodeId target = FindRefPair(keep, other);
    if (target != kInvalidNode && target != n && !nodes_[target].dead) {
      // Fold (gone, other) into (keep, other).
      RemoveFromRefLists(n);
      const bool gained = FoldInto(n, target);
      result.folded.push_back(n);
      if (gained) result.gained_inputs.push_back(target);
    } else {
      // Rename (gone, other) to (keep, other).
      RemoveFromRefLists(n);
      node.a = std::min(keep, other);
      node.b = std::max(keep, other);
      ref_pair_index_.InsertOrAssign(PairKey(keep, other), n);
      ref_pool_.Append(static_cast<size_t>(keep), n);
      ref_pool_.Append(static_cast<size_t>(other), n);
      // Listed under both endpoints again: n may have been an orphan of
      // `other` (merged when other was merged away, demoted since).
      orphans_.erase(OrphanKey(keep, n));
      orphans_.erase(OrphanKey(other, n));
      MarkDirty(n);
      // The renamed node now compares enriched elements; it should be
      // reconsidered even though its edge set did not change.
      result.gained_inputs.push_back(n);
    }
  }
  ref_pool_.Clear(static_cast<size_t>(gone));
  return result;
}

}  // namespace recon
