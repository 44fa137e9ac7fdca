// Dependency-graph node and edge types (paper Definition 3.1 and §3.1's
// edge refinement into real-valued / strong-boolean / weak-boolean
// dependencies).

#ifndef RECON_GRAPH_NODE_H_
#define RECON_GRAPH_NODE_H_

#include <cstdint>

#include "sim/evidence.h"

namespace recon {

/// Dense id of a node within a DependencyGraph.
using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// What a node's element pair is.
enum class NodeKind : uint8_t {
  kReferencePair,  ///< Similarity of two references of the same class.
  kValuePair,      ///< Similarity of two (comparable) attribute values.
};

/// Processing state of a node (§3.2 plus the §3.4 non-merge state).
enum class NodeState : uint8_t {
  kInactive,  ///< Similarity up to date; not queued.
  kActive,    ///< Queued for (re)computation.
  kMerged,    ///< Similarity reached the merge threshold.
  kNonMerge,  ///< Constraint: the two elements are guaranteed distinct.
};

/// How a neighbor's similarity influences a node (§3.1, second refinement).
enum class DependencyKind : uint8_t {
  kRealValued,    ///< The actual similarity value matters.
  kStrongBoolean, ///< Neighbor merge (almost) implies this pair merges.
  kWeakBoolean,   ///< Neighbor merge increases this pair's similarity.
};

/// A directed dependency. In a node's `out` list, `node` is the target
/// whose similarity depends on this node; in the `in` list, `node` is the
/// source this node's similarity depends on.
struct Edge {
  NodeId node;
  DependencyKind kind;
  /// Evidence type (see sim/evidence.h): tags which term of the per-class
  /// similarity function this dependency feeds.
  int16_t evidence;
};

/// One similarity node. Element ids are RefIds for kReferencePair nodes and
/// ValueIds for kValuePair nodes, stored with a < b.
struct Node {
  int32_t a = 0;
  int32_t b = 0;
  float sim = 0.0f;
  NodeKind kind = NodeKind::kReferencePair;
  NodeState state = NodeState::kInactive;
  /// Class id for reference pairs; unused (-1) for value pairs.
  int16_t class_id = -1;
  /// True once the node has been folded away by reference enrichment.
  bool dead : 1 = false;
  /// True while the node sits in the reconciler's active queue.
  bool queued : 1 = false;
  /// User feedback: this pair is a confirmed match; its similarity
  /// computes to 1 regardless of evidence.
  bool forced_merge : 1 = false;
  /// A kNonMerge reference pair put there by the §3.4 triangle rule rather
  /// than by a constraint or "distinct" feedback. Derived pairs are never
  /// negative-propagation sources (DESIGN.md §5, §17).
  bool derived : 1 = false;
  /// Low byte of the change epoch in which DependencyGraph::MarkDirty last
  /// recorded this node (negative propagation's change record, DESIGN.md
  /// §17). Sits in what was padding; an alias 256 epochs back only makes
  /// the pass re-examine a source it did not need to.
  uint8_t mark_epoch = 0;

  /// Count of identical shared association targets acting as merged
  /// strong-/weak-boolean neighbors (paper: the self node (a, a)).
  /// (Static real-valued evidence and the in/out edge lists live in the
  /// DependencyGraph's shared CSR pools, not in the node: see
  /// DependencyGraph::in_edges/out_edges/static_real.)
  int16_t static_strong = 0;
  int16_t static_weak = 0;

  /// The node's evidence summary, maintained by deltas (DESIGN.md §8).
  /// Only the solver reads it; graph surgery and the solver's pushes keep
  /// `cache_valid` honest.
  ///
  /// Invariant while `cache_valid`: the summary equals what a full in-edge
  /// rescan would build at this instant. A fresh node has no in-edges and
  /// no static evidence, so the empty summary is exact and caches are born
  /// valid. Monotone mutations maintain the summary in place — AddEdge
  /// pushes the new source's current contribution, AddStaticReal offers the
  /// static value, and the solver pushes sim raises and merge transitions
  /// along out-edges. Only non-monotone surgery (node folding, non-merge
  /// demotion, which can *remove* contributions) clears `cache_valid`,
  /// making the next recomputation rescan once.
  EvidenceSummary cache;
  /// Sits in the padding after the summary. Moving it into the bitfield
  /// above would shrink Node, and with it every soft-memory budget stop.
  bool cache_valid = true;

  bool IsRefPair() const { return kind == NodeKind::kReferencePair; }
  int32_t Other(int32_t element) const { return element == a ? b : a; }
};

// The node array is the graph's largest allocation: a new flag goes into
// the bitfield above, not a byte of its own.
static_assert(sizeof(Node) == 92, "Node grew");

/// One static real-valued evidence entry (evidence type -> comparator
/// score on a shared attribute value), pooled per node by the graph.
struct StaticReal {
  int16_t type;
  float sim;
};

}  // namespace recon

#endif  // RECON_GRAPH_NODE_H_
