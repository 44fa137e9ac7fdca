#include "core/graph_builder.h"

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/candidates.h"
#include "runtime/parallel.h"
#include "sim/evidence.h"
#include "sim/params.h"
#include "sim/value_store.h"
#include "strsim/email.h"
#include "strsim/person_name.h"
#include "util/logging.h"

namespace recon {

namespace {

/// One piece of atomic evidence staged for a candidate pair: a value-pair
/// node (v1, v2) with its similarity, or — v1 == kInvalidValue — a static
/// similarity on the pair's own node.
struct StagedEvidence {
  ValueId v1 = kInvalidValue;
  ValueId v2 = kInvalidValue;
  double sim = 0.0;
  int evidence = 0;
  /// Reference-pair merge marks this value pair merged (venue names).
  bool propagate_merge = false;

  bool is_static() const { return v1 == kInvalidValue; }
};

/// One candidate pair's staged comparison result. Staging is read-only
/// against the dataset and value pool, so pairs are staged in parallel; the
/// graph mutations they imply are applied serially, in candidate order.
/// The pair's evidence is the range [begin, begin + count) of its lane's
/// arena.
struct StagedPair {
  RefId r1 = kInvalidRef;
  RefId r2 = kInvalidRef;
  int class_id = -1;
  uint32_t lane = 0;
  uint32_t begin = 0;
  uint32_t count = 0;
  bool non_merge = false;
};

/// One staging lane: the arena its pairs' evidence goes to, and counters
/// that feed ReconcileStats. The counters are accumulated serially after
/// each window, so totals are deterministic. Lanes bump them on every
/// comparison, so each lane gets its own cache line.
struct alignas(64) StageLane {
  std::vector<StagedEvidence> arena;
  int64_t pair_comparisons = 0;
  int64_t memo_hits = 0;
  int64_t memo_misses = 0;
};

/// The candidates of one window, staged. The buffers are reused window
/// after window, so staging holds memory for one window, never for the
/// whole candidate list.
struct StagingWindow {
  std::vector<StagedPair> pairs;
  std::vector<StageLane> lanes;

  /// What the staged window holds, for the soft-memory estimate. Counted
  /// from what was staged, not from buffer capacities: how evidence
  /// spreads over the lanes depends on the thread schedule, and a budget
  /// stop must not.
  int64_t bytes() const {
    size_t evidence = 0;
    for (const StageLane& lane : lanes) evidence += lane.arena.size();
    return static_cast<int64_t>(pairs.size() * sizeof(StagedPair) +
                                evidence * sizeof(StagedEvidence));
  }
};

/// Association wiring skips pairs whose contact-list cross product exceeds
/// this bound (guards against mailing-list-like references).
constexpr int64_t kMaxAssocCross = 20000;

class GraphBuilder {
 public:
  GraphBuilder(const Dataset& dataset, const ReconcilerOptions& options,
               BudgetTracker* budget, BuiltGraph& built)
      : dataset_(dataset),
        options_(options),
        binding_(built.binding),
        own_budget_(budget == nullptr
                        ? std::make_unique<BudgetTracker>(Budget{})
                        : nullptr),
        budget_(budget != nullptr ? budget : own_budget_.get()),
        graph_(built.graph.get()),
        values_(&built.values),
        built_(&built),
        store_(built.feature_store.get()),
        memo_(built.sim_memo.get()),
        channels_(AtomicChannels(binding_, options.evidence_level)) {
    ConfigureMemoBudget();
  }

  /// The one graph-build step, for the initial load and every later batch
  /// alike. Step 1 (§3.1) seeds `pairs` into the graph; co-author
  /// constraints are marked for articles >= first_new_ref (§3.4) and
  /// `feedback` (§7) is applied; step 2 (§3.1) wires the association
  /// dependencies of the new nodes. Returns the new reference-pair nodes in
  /// processing order. The references' values must already be interned
  /// (InternReferenceValues); the caller compacts the graph afterwards.
  std::vector<NodeId> Extend(const CandidateList& pairs, RefId first_new_ref,
                             const Feedback& feedback) {
    built_->num_candidates += static_cast<int>(pairs.size());

    const NodeId start_node = graph_->num_nodes();
    SeedPairs(pairs);
    // Constraint 1: authors of one article are distinct persons. Creates
    // non-merge nodes even where no atomic similarity exists (§3.4).
    if (options_.constraints) MarkCoAuthorConstraints(first_new_ref);
    // Confirmed matches and non-matches become forced and non-merge nodes.
    ApplyFeedback(feedback);
    WireAssociations(start_node);

    // Venues, then persons, then articles, then the rest.
    std::vector<NodeId> new_queue;
    BuildInitialQueue(start_node, &new_queue);
    return new_queue;
  }

 private:
  // ---- Step 1: atomic comparisons ---------------------------------------

  /// Seeds the candidates window by window. Each window of kStageWindow
  /// candidates is staged in parallel lanes, then applied serially in
  /// candidate order, so the resulting graph is identical to seeding one
  /// pair at a time; the next window is staged into the same buffers, so
  /// staging memory follows one window, not the candidate list. Before its
  /// apply, the graph is sized from what the window staged (ReserveBuild).
  ///
  /// The kBuild probes fall every kBuildChunk candidates, on the same
  /// candidate indices whatever the window; a window's first probe comes
  /// before it is staged. A budget stop truncates the apply at a chunk
  /// boundary and stages nothing further: the graph then holds a prefix of
  /// the canonical pair order, which is structurally consistent (every
  /// applied pair is complete).
  void SeedPairs(const CandidateList& pairs) {
    static_assert(kStageWindow % kBuildChunk == 0,
                  "every window starts on a probe");
    // Value analyses happen in Sync (one per distinct value), not here.
    built_->num_value_analyses = store_->num_analyses();
    const int64_t n = static_cast<int64_t>(pairs.size());
    StagingWindow window;
    window.lanes.resize(runtime::ResolveNumThreads(options_.num_threads));
    for (int64_t first = 0; first < n; first += kStageWindow) {
      if (!SeedWindow(pairs, first, &window)) break;
    }
    // The window is released here; the estimate goes back to the graph.
    window_bytes_ = 0;
    ReportGraphMemory();
  }

  /// Probes, stages and applies the window that starts at `first`. Returns
  /// false when the budget stopped the build.
  bool SeedWindow(const CandidateList& pairs, int64_t first,
                  StagingWindow* window) {
    if (BuildProbeStops()) return false;
    const int64_t last =
        std::min(static_cast<int64_t>(pairs.size()), first + kStageWindow);
    StageWindow(pairs, first, last, window);
    // A lane that saw the deadline left pairs unstaged.
    if (budget_->stopped()) return false;
    graph_->ReserveBuild(GrowthOf(*window));
    window_bytes_ = window->bytes();
    for (int64_t i = first; i < last; ++i) {
      if (i > first && i % kBuildChunk == 0 && BuildProbeStops()) return false;
      ApplyStagedPair(*window, window->pairs[static_cast<size_t>(i - first)]);
    }
    return true;
  }

  /// Stages candidates [first, last) into `window`, contiguous spans in
  /// parallel lanes, and totals the lanes' counters.
  void StageWindow(const CandidateList& pairs, int64_t first, int64_t last,
                   StagingWindow* window) {
    window->pairs.resize(static_cast<size_t>(last - first));
    for (StageLane& lane : window->lanes) {
      lane.arena.clear();
      lane.pair_comparisons = lane.memo_hits = lane.memo_misses = 0;
    }
    runtime::ParallelForBlocked(
        options_.num_threads, first, last, /*grain=*/0,
        [&](const runtime::Block& block) {
          StageSpan(pairs, first, block.begin, block.end, block.lane, window);
        });
    budget_->ResolveAsyncStop();
    // Serial, lane-order accumulation keeps the totals deterministic.
    for (const StageLane& lane : window->lanes) {
      built_->num_pair_comparisons += lane.pair_comparisons;
      built_->num_sim_memo_hits += lane.memo_hits;
      built_->num_sim_memo_misses += lane.memo_misses;
    }
  }

  /// At most what ApplyStagedPair adds to the graph for `window`: a node
  /// per pair with evidence or a constraint, and per staged value pair a
  /// node and an edge, plus the back edge of a propagate_merge row.
  static GraphGrowth GrowthOf(const StagingWindow& window) {
    GraphGrowth growth;
    for (const StagedPair& pair : window.pairs) {
      if (pair.count > 0 || pair.non_merge) ++growth.ref_pairs;
    }
    for (const StageLane& lane : window.lanes) {
      for (const StagedEvidence& spec : lane.arena) {
        if (spec.is_static()) {
          ++growth.statics;
          continue;
        }
        ++growth.value_pairs;
        growth.edges += spec.propagate_merge ? 2 : 1;
      }
    }
    return growth;
  }

  void ApplyStagedPair(const StagingWindow& window, const StagedPair& pair) {
    if (pair.count == 0 && !pair.non_merge) return;
    const std::span<const StagedEvidence> evidence(
        window.lanes[pair.lane].arena.data() + pair.begin, pair.count);

    const NodeId m = graph_->AddRefPairNode(pair.class_id, pair.r1, pair.r2);
    if (pair.non_merge) {
      // The evidence nodes are still attached below — the paper keeps
      // constrained pairs in the graph with their similarities ("we also
      // include nodes whose elements are ensured to be distinct"), which
      // is why Table 6 reports *more* nodes with constraints on. The
      // non-merge state keeps the pair out of the queue regardless.
      // SetNodeState keeps dependent evidence caches honest when an
      // incremental extension demotes an existing node.
      graph_->SetNodeState(m, NodeState::kNonMerge);
    }
    // Statics first, then value nodes, each in staging order.
    for (const StagedEvidence& spec : evidence) {
      if (spec.is_static()) graph_->AddStaticReal(m, spec.evidence, spec.sim);
    }
    for (const StagedEvidence& spec : evidence) {
      if (spec.is_static()) continue;
      const NodeState state = (spec.sim >= kSimParams.value_merge_threshold)
                                  ? NodeState::kMerged
                                  : NodeState::kInactive;
      const NodeId n =
          graph_->AddValuePairNode(spec.v1, spec.v2, spec.sim, state);
      graph_->AddEdge(n, m, DependencyKind::kRealValued, spec.evidence);
      if (spec.propagate_merge) {
        graph_->AddEdge(m, n, DependencyKind::kStrongBoolean, spec.evidence);
      }
    }
  }

  /// Constraint 2: same first name with a completely different last name
  /// (or vice versa) means distinct persons — unless an email is shared.
  bool ViolatesNameConstraint(const Reference& a, const Reference& b) const {
    if (binding_.person_name < 0) return false;
    const auto& names1 = a.atomic_values(binding_.person_name);
    const auto& names2 = b.atomic_values(binding_.person_name);
    if (names1.empty() || names2.empty()) return false;
    const ValueDomain domain{binding_.person, binding_.person_name};
    bool any_contradiction = false;
    for (const std::string& n1 : names1) {
      const strsim::PersonName& pa = FeaturesOf(domain, n1).name;
      for (const std::string& n2 : names2) {
        const strsim::PersonName& pb = FeaturesOf(domain, n2).name;
        if (strsim::NamesContradict(pa, pb)) {
          any_contradiction = true;
        } else if (!pa.last.empty() && !pb.last.empty() &&
                   strsim::NamesCompatible(pa, pb)) {
          // Some *structured* value pair is fully consistent: no
          // constraint. (Bare first names are compatible with anything and
          // must not neutralize a contradiction between full names.)
          return false;
        }
      }
    }
    return any_contradiction;
  }

  /// Constraint 3: a person has a unique account per email server, so two
  /// references with different accounts on the same server are distinct.
  bool ViolatesAccountConstraint(const Reference& a, const Reference& b) const {
    if (binding_.person_email < 0) return false;
    const ValueDomain domain{binding_.person, binding_.person_email};
    for (const std::string& e1 : a.atomic_values(binding_.person_email)) {
      const strsim::EmailAddress& ea = FeaturesOf(domain, e1).email;
      if (ea.server.empty()) continue;
      for (const std::string& e2 : b.atomic_values(binding_.person_email)) {
        const strsim::EmailAddress& eb = FeaturesOf(domain, e2).email;
        if (ea.server == eb.server && ea.account != eb.account) return true;
      }
    }
    return false;
  }

  /// Store features of an interned value (every atomic value was interned
  /// and analyzed before staging, so the lookup always hits).
  const ValueFeatures& FeaturesOf(ValueDomain domain,
                                  const std::string& raw) const {
    const ValueId id = values_->Find(domain, raw);
    RECON_CHECK_NE(id, kInvalidValue);
    return store_->features(id);
  }

  // ---- Pair staging -----------------------------------------------------

  /// Compares x's attr_a values with y's attr_b values on `row`, in
  /// cross-product order, appending the evidence to the lane's arena:
  /// equal values give a static, which the graph stores as a float
  /// (DependencyGraph::AddStaticReal), the rest go through the shared memo
  /// (rounded through float) and become a value node when they reach the
  /// row's seed. A zero_when_dissimilar row offers its explicit zero when
  /// values were compared but none was seeded.
  void StageRow(const AtomicChannel& row, const Reference& x,
                const Reference& y, StageLane& lane) const {
    const ValueDomain domain1{row.class_id, row.attr_a};
    const ValueDomain domain2{row.class_id, row.attr_b};
    bool compared = false;
    bool any = false;
    for (const std::string& raw1 : x.atomic_values(row.attr_a)) {
      const ValueId v1 = values_->Find(domain1, raw1);
      RECON_CHECK_NE(v1, kInvalidValue);
      for (const std::string& raw2 : y.atomic_values(row.attr_b)) {
        const ValueId v2 = values_->Find(domain2, raw2);
        RECON_CHECK_NE(v2, kInvalidValue);
        ++lane.pair_comparisons;
        compared = true;
        if (v1 == v2) {
          lane.arena.push_back(
              {.sim = FeaturePairSimilarity(row.evidence, store_->features(v1),
                                            store_->features(v2)),
               .evidence = row.evidence});
          any = true;
          continue;
        }
        const double sim = memo_->LookupOrCompute(
            row.evidence, v1, v2,
            [&] {
              return FeaturePairSimilarity(row.evidence, store_->features(v1),
                                           store_->features(v2));
            },
            &lane.memo_hits, &lane.memo_misses);
        if (sim >= row.seed) {
          lane.arena.push_back(
              {v1, v2, sim, row.evidence, row.propagate_merge});
          any = true;
        }
      }
    }
    if (row.zero_when_dissimilar && compared && !any) {
      lane.arena.push_back({.sim = 0.0, .evidence = row.evidence});
    }
  }

  /// Stages the rows of `rows` whose gated flag equals `gated`, in table
  /// order; a cross-attribute row goes a against b, then b against a.
  void StageRows(std::span<const AtomicChannel> rows, bool gated,
                 const Reference& a, const Reference& b,
                 StageLane& lane) const {
    for (const AtomicChannel& row : rows) {
      if (row.gated != gated) continue;
      StageRow(row, a, b, lane);
      if (row.cross()) StageRow(row, b, a, lane);
    }
  }

  /// Constraints 2 and 3 for a person pair whose evidence so far is
  /// `evidence`, unless it shares an email: every email pair was compared,
  /// and equal values or sim 1 mean a shared key.
  void MarkPersonConstraints(const Reference& a, const Reference& b,
                             std::span<const StagedEvidence> evidence,
                             StagedPair* out) const {
    if (!options_.constraints) return;
    for (const StagedEvidence& spec : evidence) {
      if (spec.evidence == kEvPersonEmail && spec.sim >= 1.0) return;
    }
    out->non_merge =
        ViolatesNameConstraint(a, b) || ViolatesAccountConstraint(a, b);
  }

  /// Stages candidate positions [begin, end) of the window that starts at
  /// `first`, one pair at a time (§3.1 step 1): the class's ungated rows,
  /// the person constraints, and the gated rows only for a pair that
  /// already has evidence. The budget is checked every 64 pairs; an
  /// abandon (the deadline already decided the run) leaves the rest
  /// of the span unstaged, and StageWindow's ResolveAsyncStop then records
  /// the stop, so SeedWindow never applies that window.
  void StageSpan(const CandidateList& pairs, int64_t first, int64_t begin,
                 int64_t end, size_t lane_index, StagingWindow* window) const {
    StageLane& lane = window->lanes[lane_index];
    std::vector<StagedEvidence>& arena = lane.arena;
    for (int64_t i = begin; i < end; ++i) {
      if ((i - begin) % 64 == 0 && budget_->ShouldAbandonParallelWork()) {
        return;
      }
      StagedPair* out = &window->pairs[static_cast<size_t>(i - first)];
      *out = StagedPair{};
      out->r1 = pairs[i].first;
      out->r2 = pairs[i].second;
      out->lane = static_cast<uint32_t>(lane_index);
      out->begin = static_cast<uint32_t>(arena.size());
      const Reference& a = dataset_.reference(out->r1);
      const Reference& b = dataset_.reference(out->r2);
      out->class_id = a.class_id();
      const std::span<const AtomicChannel> rows =
          ClassChannels(channels_, out->class_id);
      StageRows(rows, /*gated=*/false, a, b, lane);
      if (out->class_id == binding_.person) {
        MarkPersonConstraints(
            a, b, std::span(arena).subspan(out->begin), out);
      }
      if (arena.size() > out->begin) {
        StageRows(rows, /*gated=*/true, a, b, lane);
      }
      out->count = static_cast<uint32_t>(arena.size() - out->begin);
    }
  }

  // ---- Constraint 1 ------------------------------------------------------

  void MarkCoAuthorConstraints(RefId first_ref) {
    if (binding_.article < 0 || binding_.article_authors < 0) return;
    for (RefId id = first_ref; id < dataset_.num_references(); ++id) {
      const Reference& ref = dataset_.reference(id);
      if (ref.class_id() != binding_.article) continue;
      const auto& authors = ref.associations(binding_.article_authors);
      for (size_t i = 0; i < authors.size(); ++i) {
        for (size_t j = i + 1; j < authors.size(); ++j) {
          NodeId node = graph_->FindRefPair(authors[i], authors[j]);
          if (node == kInvalidNode) {
            node = graph_->AddRefPairNode(binding_.person, authors[i],
                                          authors[j]);
          }
          graph_->SetNodeState(node, NodeState::kNonMerge);
        }
      }
    }
  }

  void ApplyFeedback(const Feedback& feedback) {
    auto valid_pair = [&](RefId a, RefId b) {
      return a >= 0 && b >= 0 && a != b && a < dataset_.num_references() &&
             b < dataset_.num_references() &&
             dataset_.reference(a).class_id() ==
                 dataset_.reference(b).class_id();
    };
    for (const auto& [a, b] : feedback.same) {
      if (!valid_pair(a, b)) continue;
      const NodeId node = graph_->AddRefPairNode(
          dataset_.reference(a).class_id(), a, b);
      graph_->mutable_node(node).forced_merge = true;
      // Overrides an earlier non-merge (and re-admits the node's evidence
      // into dependent caches).
      graph_->SetNodeState(node, NodeState::kInactive);
    }
    for (const auto& [a, b] : feedback.distinct) {
      if (!valid_pair(a, b)) continue;
      const NodeId node = graph_->AddRefPairNode(
          dataset_.reference(a).class_id(), a, b);
      graph_->mutable_node(node).forced_merge = false;
      graph_->SetNodeState(node, NodeState::kNonMerge);
    }
  }

  // ---- Step 2: association wiring ---------------------------------------

  void WireAssociations(NodeId start_node) {
    if (options_.evidence_level < EvidenceLevel::kArticle) return;
    const int total = graph_->num_nodes();
    for (NodeId m = start_node; m < total; ++m) {
      // Wiring only adds evidence; a budget stop truncates it at a chunk
      // boundary (the current node's wiring always completes).
      if ((m - start_node) % kBuildChunk == 0 && BuildProbeStops()) return;
      const Node& node = graph_->node(m);
      if (!node.IsRefPair() || node.dead) continue;
      if (node.state == NodeState::kNonMerge) continue;
      if (node.class_id == binding_.article) {
        WireArticlePair(m);
      } else if (node.class_id == binding_.person &&
                 options_.evidence_level >= EvidenceLevel::kContact) {
        WirePersonContacts(m);
      }
    }
  }

  void WireArticlePair(NodeId m) {
    const Node& node = graph_->node(m);
    const Reference& a1 = dataset_.reference(node.a);
    const Reference& a2 = dataset_.reference(node.b);

    if (binding_.article_authors >= 0) {
      const auto& authors1 = a1.associations(binding_.article_authors);
      const auto& authors2 = a2.associations(binding_.article_authors);
      for (const RefId p : authors1) {
        for (const RefId q : authors2) {
          if (p == q) {
            // The same extracted person reference authors both: identity
            // evidence for the articles (the paper's self node (a, a)).
            graph_->AddStaticReal(m, kEvArticleAuthors, 1.0);
            continue;
          }
          const NodeId n = graph_->FindRefPair(p, q);
          if (n == kInvalidNode) continue;
          if (graph_->node(n).state == NodeState::kNonMerge) continue;
          // Author similarity feeds the article comparison; an article
          // merge (almost) implies its aligned authors merge.
          graph_->AddEdge(n, m, DependencyKind::kRealValued,
                          kEvArticleAuthors);
          graph_->AddEdge(m, n, DependencyKind::kStrongBoolean,
                          kEvPersonArticle);
        }
      }
    }

    if (binding_.article_venue >= 0) {
      const auto& venues1 = a1.associations(binding_.article_venue);
      const auto& venues2 = a2.associations(binding_.article_venue);
      for (const RefId v1 : venues1) {
        for (const RefId v2 : venues2) {
          if (v1 == v2) {
            graph_->AddStaticReal(m, kEvArticleVenue, 1.0);
            continue;
          }
          const NodeId n = graph_->FindRefPair(v1, v2);
          if (n == kInvalidNode) continue;
          if (graph_->node(n).state == NodeState::kNonMerge) continue;
          graph_->AddEdge(n, m, DependencyKind::kRealValued,
                          kEvArticleVenue);
          graph_->AddEdge(m, n, DependencyKind::kStrongBoolean,
                          kEvVenueArticle);
        }
      }
    }
  }

  void WirePersonContacts(NodeId m) {
    const Node& node = graph_->node(m);
    const std::vector<RefId> contacts1 = ContactsOf(node.a);
    const std::vector<RefId> contacts2 = ContactsOf(node.b);
    if (contacts1.empty() || contacts2.empty()) return;
    const int64_t cross = static_cast<int64_t>(contacts1.size()) *
                          static_cast<int64_t>(contacts2.size());
    if (cross > kMaxAssocCross) return;

    int shared = 0;
    for (const RefId c1 : contacts1) {
      for (const RefId c2 : contacts2) {
        if (c1 == c2) {
          ++shared;
          continue;
        }
        const NodeId n = graph_->FindRefPair(c1, c2);
        if (n == kInvalidNode || n == m) continue;
        if (graph_->node(n).state == NodeState::kNonMerge) continue;
        // Bidirectional weak dependency (Fig. 2b: m6 <-> m7).
        graph_->AddEdge(n, m, DependencyKind::kWeakBoolean,
                        kEvPersonContact);
        graph_->AddEdge(m, n, DependencyKind::kWeakBoolean,
                        kEvPersonContact);
      }
    }
    if (shared > 0) {
      Node& mutable_m = graph_->mutable_node(m);
      const int16_t before = mutable_m.static_weak;
      mutable_m.static_weak =
          static_cast<int16_t>(std::min(32000, before + shared));
      // Static weak counts are a base term of the cached summary; absorb
      // the increase so the cache stays valid.
      if (mutable_m.cache_valid) {
        mutable_m.cache.weak_merged += mutable_m.static_weak - before;
      }
    }
  }

  std::vector<RefId> ContactsOf(RefId ref) {
    std::vector<RefId> contacts;
    const Reference& r = dataset_.reference(ref);
    if (binding_.person_coauthor >= 0) {
      const auto& coauthors = r.associations(binding_.person_coauthor);
      contacts.insert(contacts.end(), coauthors.begin(), coauthors.end());
    }
    if (binding_.person_contact >= 0) {
      const auto& mail = r.associations(binding_.person_contact);
      contacts.insert(contacts.end(), mail.begin(), mail.end());
    }
    std::sort(contacts.begin(), contacts.end());
    contacts.erase(std::unique(contacts.begin(), contacts.end()),
                   contacts.end());
    return contacts;
  }

  // ---- Queue and helpers -------------------------------------------------

  void BuildInitialQueue(NodeId start_node, std::vector<NodeId>* queue) {
    auto append_class = [&](int class_id) {
      if (class_id < 0) return;
      for (NodeId id = start_node; id < graph_->num_nodes(); ++id) {
        const Node& node = graph_->node(id);
        if (node.IsRefPair() && !node.dead &&
            node.state != NodeState::kNonMerge &&
            node.class_id == class_id) {
          queue->push_back(id);
        }
      }
    };
    append_class(binding_.venue);
    append_class(binding_.person);
    append_class(binding_.article);
    for (int c = 0; c < dataset_.schema().num_classes(); ++c) {
      if (c == binding_.venue || c == binding_.person || c == binding_.article) {
        continue;
      }
      append_class(c);
    }
  }

  /// Sizes the shared memo: the configured bound, shrunk to fit under the
  /// run's soft memory budget when one is set. The memo degrades on its
  /// own (eviction, then bypass) — it never trips the budget, whose
  /// estimate counts the graph and the live staging window but never the
  /// memo, so the memo bound never moves a budget stop.
  void ConfigureMemoBudget() {
    int64_t bound = options_.sim_memo_max_bytes;
    const int64_t soft = budget_->budget().soft_max_memory_bytes;
    if (soft > 0) bound = std::min(bound, soft);
    memo_->set_max_bytes(bound);
  }

  /// One kBuild budget probe against a fresh memory estimate; true when
  /// the build must stop.
  bool BuildProbeStops() {
    ReportGraphMemory();
    return budget_->Probe(ProbePoint::kBuild);
  }

  /// Updates the budget's soft memory estimate from the current graph
  /// shape (each edge is stored twice: in the source's out list and the
  /// target's in list) plus the live staging window.
  void ReportGraphMemory() {
    budget_->ReportMemoryEstimate(
        static_cast<int64_t>(graph_->num_nodes()) *
            static_cast<int64_t>(sizeof(Node)) +
        2 * static_cast<int64_t>(graph_->num_edges()) *
            static_cast<int64_t>(sizeof(Edge)) +
        window_bytes_);
  }

  const Dataset& dataset_;
  const ReconcilerOptions& options_;
  SchemaBinding binding_;
  /// Fallback unlimited tracker for callers that pass none, so the build
  /// has exactly one budget code path.
  std::unique_ptr<BudgetTracker> own_budget_;
  BudgetTracker* budget_;
  DependencyGraph* graph_;
  ValuePool* values_;
  BuiltGraph* built_;
  /// Owned by built_ (shared_ptr).
  ValueStore* store_;
  SimMemo* memo_;
  /// The atomic channels at or below options_.evidence_level.
  std::vector<AtomicChannel> channels_;
  /// Bytes held by SeedPairs' staging window while it is live.
  int64_t window_bytes_ = 0;
};

}  // namespace

void InternReferenceValues(const Dataset& dataset, RefId first_ref,
                           ValuePool& pool, ValueStore& store) {
  for (RefId id = first_ref; id < dataset.num_references(); ++id) {
    const Reference& r = dataset.reference(id);
    for (const auto& entry : store.schema().kinds) {
      const ValueDomain domain = entry.first;
      if (domain.class_id != r.class_id()) continue;
      for (const std::string& raw : r.atomic_values(domain.attr)) {
        pool.Intern(domain, raw);
      }
    }
  }
  store.Sync(pool);
}

BuiltGraph BuildDependencyGraph(const Dataset& dataset,
                                const ReconcilerOptions& options,
                                BudgetTracker* budget,
                                const BuildOverrides& overrides) {
  BuiltGraph built;
  built.binding = SchemaBinding::Resolve(dataset.schema());
  built.graph = std::make_unique<DependencyGraph>(dataset.num_references());
  built.feature_store =
      std::make_shared<ValueStore>(MakeValueKindSchema(built.binding));
  built.sim_memo = std::make_shared<SimMemo>();
  built.class_sims = MakeClassSimilarities(dataset.schema(), built.binding);

  // Values are interned up front (serially, in reference order — an order
  // fixed regardless of thread count, so ValueIds are stable) and
  // analyzed once each, so candidate generation and the comparison stage
  // are read-only against the pool and the store and can fan out across
  // threads. Interning probes no budget.
  InternReferenceValues(dataset, /*first_ref=*/0, built.values,
                        *built.feature_store);

  CandidateList generated;
  if (overrides.candidates == nullptr) {
    generated = GenerateCandidates(dataset, built.binding, options, budget,
                                   &built.values, built.feature_store.get(),
                                   &built.num_dropped_blocks);
  }
  const CandidateList& candidates =
      overrides.candidates != nullptr ? *overrides.candidates : generated;

  // The whole dataset is the first batch: the same step every incremental
  // flush runs, plus the batch-only user feedback.
  built.initial_queue =
      GraphBuilder(dataset, options, budget, built)
          .Extend(candidates, /*first_new_ref=*/0, options.feedback);
  // The graph shape is now settled for the solve: pack the CSR pools
  // tight (folds and solver delta pushes mutate in place from here).
  built.graph->Compact();
  return built;
}

std::vector<NodeId> ExtendDependencyGraph(
    const Dataset& dataset, const ReconcilerOptions& options,
    const std::vector<std::pair<RefId, RefId>>& pairs, RefId first_new_ref,
    BuiltGraph& built, BudgetTracker* budget) {
  std::vector<NodeId> new_nodes =
      GraphBuilder(dataset, options, budget, built)
          .Extend(pairs, first_new_ref, Feedback{});
  // Extension appends fragment the shared buffers (relocations leave
  // garbage). Repack a pool only once its garbage outweighs its live data,
  // and keep every capacity: a full Compact() per flush would cost the
  // whole graph, twice over with the regrowth the next flush pays.
  built.graph->CompactFragmented();
  return new_nodes;
}

}  // namespace recon
