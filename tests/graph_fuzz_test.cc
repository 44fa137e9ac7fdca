// Randomized consistency tests of the dependency graph's enrichment
// folding against a naive reference model: after arbitrary merge
// sequences, the graph's pair index, per-reference node lists, and edge
// symmetry must all remain coherent.

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "graph/dep_graph.h"
#include "sim/evidence.h"
#include "util/random.h"
#include "util/union_find.h"

namespace recon {
namespace {

/// Checks structural invariants of the graph.
void CheckInvariants(const DependencyGraph& graph, int num_refs) {
  std::map<std::pair<int, int>, int> live_pairs;
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    if (node.dead) {
      // Dead nodes must be fully detached.
      EXPECT_TRUE(graph.in_edges(id).empty()) << id;
      EXPECT_TRUE(graph.out_edges(id).empty()) << id;
      continue;
    }
    EXPECT_LE(node.a, node.b);
    if (node.IsRefPair()) {
      // At most one live node per pair; index agrees.
      auto [it, inserted] =
          live_pairs.try_emplace({node.a, node.b}, id);
      EXPECT_TRUE(inserted) << "duplicate pair (" << node.a << ","
                            << node.b << ")";
      EXPECT_EQ(graph.FindRefPair(node.a, node.b), id);
    }
    // Edge symmetry: every out edge has a matching in record and
    // vice versa; no edges touch dead nodes; no self loops.
    for (const Edge& e : graph.out_edges(id)) {
      EXPECT_NE(e.node, id);
      EXPECT_FALSE(graph.node(e.node).dead);
      bool found = false;
      for (const Edge& back : graph.in_edges(e.node)) {
        if (back.node == id && back.kind == e.kind &&
            back.evidence == e.evidence) {
          found = true;
        }
      }
      EXPECT_TRUE(found) << "missing in-record for " << id << "->" << e.node;
    }
    for (const Edge& e : graph.in_edges(id)) {
      EXPECT_FALSE(graph.node(e.node).dead);
    }
  }
  // NodesOfRef lists only live nodes containing the reference.
  for (RefId r = 0; r < num_refs; ++r) {
    for (const NodeId id : graph.NodesOfRef(r)) {
      const Node& node = graph.node(id);
      if (node.dead) continue;  // Lists may lag; dead entries are skipped.
      EXPECT_TRUE(node.a == r || node.b == r);
    }
  }
  // InRefList answers list membership for every live pair and endpoint,
  // including the merged pairs enrichment drops from a merged-away list.
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    if (node.dead || !node.IsRefPair()) continue;
    for (const RefId r : {static_cast<RefId>(node.a),
                          static_cast<RefId>(node.b)}) {
      const auto list = graph.NodesOfRef(r);
      const bool listed = std::find(list.begin(), list.end(), id) != list.end();
      EXPECT_EQ(graph.InRefList(r, id), listed)
          << "pair " << id << " (" << node.a << "," << node.b << ") ref "
          << r;
    }
  }
}

TEST(GraphFuzzTest, RandomMergeSequencesKeepInvariants) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Random rng(seed);
    const int num_refs = 24;
    DependencyGraph graph(num_refs);

    // Random ref-pair nodes.
    const int num_pairs = 60;
    for (int i = 0; i < num_pairs; ++i) {
      const RefId a = static_cast<RefId>(rng.NextBounded(num_refs));
      const RefId b = static_cast<RefId>(rng.NextBounded(num_refs));
      if (a == b) continue;
      graph.AddRefPairNode(0, a, b);
    }
    // Random value nodes wired to random ref pairs.
    std::vector<NodeId> ref_nodes;
    for (NodeId id = 0; id < graph.num_nodes(); ++id) {
      if (graph.node(id).IsRefPair()) ref_nodes.push_back(id);
    }
    for (int v = 0; v < 30 && !ref_nodes.empty(); ++v) {
      const NodeId value =
          graph.AddValuePairNode(1000 + 2 * v, 1001 + 2 * v, 0.5,
                                 NodeState::kInactive);
      const NodeId target = ref_nodes[rng.NextBounded(ref_nodes.size())];
      if (graph.node(target).dead) continue;
      graph.AddEdge(value, target, DependencyKind::kRealValued,
                    kEvPersonName);
      if (rng.NextBool(0.3)) {
        graph.AddEdge(target, value, DependencyKind::kStrongBoolean,
                      kEvPersonName);
      }
    }
    // Random weak edges between ref pairs.
    for (int e = 0; e < 40; ++e) {
      const NodeId x = ref_nodes[rng.NextBounded(ref_nodes.size())];
      const NodeId y = ref_nodes[rng.NextBounded(ref_nodes.size())];
      if (x == y || graph.node(x).dead || graph.node(y).dead) continue;
      graph.AddEdge(x, y, DependencyKind::kWeakBoolean, kEvPersonContact);
    }
    CheckInvariants(graph, num_refs);

    // Random merge sequence through a union-find, mirroring the solver.
    UnionFind refs(num_refs);
    for (int step = 0; step < 15; ++step) {
      const RefId a = refs.Find(static_cast<RefId>(rng.NextBounded(num_refs)));
      const RefId b = refs.Find(static_cast<RefId>(rng.NextBounded(num_refs)));
      if (a == b) continue;
      // Mark the pair node merged if it exists (as the solver would).
      const NodeId pair = graph.FindRefPair(a, b);
      if (pair != kInvalidNode) {
        graph.mutable_node(pair).state = NodeState::kMerged;
      }
      // Demote a merged pair now and then, as negative propagation does:
      // enrichment has left it out of a merged-away reference's list, and
      // a later merge renames it back into lists.
      std::vector<NodeId> merged;
      for (const NodeId id : ref_nodes) {
        if (!graph.node(id).dead &&
            graph.node(id).state == NodeState::kMerged) {
          merged.push_back(id);
        }
      }
      if (!merged.empty() && rng.NextBool(0.5)) {
        graph.SetNodeState(merged[rng.NextBounded(merged.size())],
                           NodeState::kNonMerge);
      }
      const int keep = refs.Union(a, b);
      const RefId gone = (keep == a) ? b : a;
      graph.MergeReferences(keep, gone);
      CheckInvariants(graph, num_refs);
    }
  }
}

TEST(GraphFuzzTest, FoldedEvidenceNeverDisappears) {
  // Every value node wired to some pair of {survivor set} x {gone set}
  // must end up wired to the surviving pair.
  Random rng(99);
  DependencyGraph graph(6);
  // Pairs (0,2), (1,2): value evidence on both.
  const NodeId p02 = graph.AddRefPairNode(0, 0, 2);
  const NodeId p12 = graph.AddRefPairNode(0, 1, 2);
  const NodeId p01 = graph.AddRefPairNode(0, 0, 1);
  const NodeId v1 = graph.AddValuePairNode(100, 101, 0.7, NodeState::kInactive);
  const NodeId v2 = graph.AddValuePairNode(102, 103, 0.9, NodeState::kInactive);
  graph.AddEdge(v1, p02, DependencyKind::kRealValued, kEvPersonName);
  graph.AddEdge(v2, p12, DependencyKind::kRealValued, kEvPersonEmail);

  graph.mutable_node(p01).state = NodeState::kMerged;
  graph.MergeReferences(0, 1);

  // (1,2) folded into (0,2): both value edges now feed (0,2).
  EXPECT_TRUE(graph.node(p12).dead);
  std::set<NodeId> sources;
  for (const Edge& e : graph.in_edges(p02)) sources.insert(e.node);
  EXPECT_TRUE(sources.count(v1));
  EXPECT_TRUE(sources.count(v2));
  (void)rng;
}

}  // namespace
}  // namespace recon
