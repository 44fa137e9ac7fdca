// White-box tests of the fixed-point solver over small hand-built
// datasets: propagation mechanics, value-node certification, enrichment
// folding behaviour, and negative-evidence propagation (the Figure 2/3/4
// machinery at unit scale).

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/graph_builder.h"
#include "core/reconciler.h"
#include "core/solver.h"
#include "eval/metrics.h"
#include "model/dataset.h"

namespace recon {
namespace {

class SolverTest : public ::testing::Test {
 protected:
  SolverTest() : data_(BuildPimSchema()) {
    const Schema& s = data_.schema();
    person_ = s.RequireClass("Person");
    article_ = s.RequireClass("Article");
    venue_ = s.RequireClass("Venue");
    p_name_ = s.RequireAttribute(person_, "name");
    p_email_ = s.RequireAttribute(person_, "email");
    p_contact_ = s.RequireAttribute(person_, "emailContact");
    a_title_ = s.RequireAttribute(article_, "title");
    a_authors_ = s.RequireAttribute(article_, "authoredBy");
    a_venue_ = s.RequireAttribute(article_, "publishedIn");
    v_name_ = s.RequireAttribute(venue_, "name");
    v_year_ = s.RequireAttribute(venue_, "year");
  }

  RefId Person(const std::string& name, const std::string& email = "") {
    const RefId id = data_.NewReference(person_, -1);
    if (!name.empty()) data_.mutable_reference(id).AddAtomicValue(p_name_, name);
    if (!email.empty()) {
      data_.mutable_reference(id).AddAtomicValue(p_email_, email);
    }
    return id;
  }

  RefId Venue(const std::string& name, const std::string& year) {
    const RefId id = data_.NewReference(venue_, -1);
    data_.mutable_reference(id).AddAtomicValue(v_name_, name);
    data_.mutable_reference(id).AddAtomicValue(v_year_, year);
    return id;
  }

  RefId Article(const std::string& title, std::vector<RefId> authors,
                RefId venue) {
    const RefId id = data_.NewReference(article_, -1);
    Reference& ref = data_.mutable_reference(id);
    ref.AddAtomicValue(a_title_, title);
    for (const RefId a : authors) ref.AddAssociation(a_authors_, a);
    if (venue != kInvalidRef) ref.AddAssociation(a_venue_, venue);
    return id;
  }

  /// Runs the solver and returns the final graph for inspection.
  ReconcileResult RunAndKeepGraph(BuiltGraph* out,
                                  ReconcilerOptions options =
                                      ReconcilerOptions::DepGraph()) {
    *out = BuildDependencyGraph(data_, options);
    const Reconciler reconciler(options);
    return reconciler.RunOnGraph(data_, *out);
  }

  Dataset data_;
  int person_, article_, venue_;
  int p_name_, p_email_, p_contact_;
  int a_title_, a_authors_, a_venue_;
  int v_name_, v_year_;
};

TEST_F(SolverTest, VenueValuePairCertifiedByMergedVenues) {
  // Two articles with the same title published in "VLDB" / full-form
  // venues; a third venue pair with the same two name strings must get
  // certified name evidence after the first venue pair merges (Fig. 2 n6).
  const RefId v1 = Venue("International Conference on Very Large Data Bases",
                         "1999");
  const RefId v2 = Venue("VLDB", "1999");
  const RefId a1 = Article("Adaptive query processing for streams", {}, v1);
  const RefId a2 = Article("Adaptive query processing for streams", {}, v2);
  // The same two venue-name strings again, same year: no articles connect
  // them directly.
  const RefId v3 = Venue("International Conference on Very Large Data Bases",
                         "1999");
  const RefId v4 = Venue("VLDB", "1999");
  (void)a1;
  (void)a2;

  BuiltGraph built;
  const ReconcileResult result = RunAndKeepGraph(&built);
  EXPECT_EQ(result.cluster[v1], result.cluster[v2]);
  // v3/v4 carry the certified value pair: they merge with full confidence
  // (and indeed into the same venue cluster).
  EXPECT_EQ(result.cluster[v3], result.cluster[v4]);
}

TEST_F(SolverTest, ArticleMergePropagatesToAuthors) {
  const RefId p1 = Person("Robert S. Epstein");
  const RefId p2 = Person("Epstein, R.S.");
  const RefId a1 = Article("Distributed query processing", {p1}, kInvalidRef);
  const RefId a2 = Article("Distributed query processing", {p2}, kInvalidRef);
  (void)a1;
  (void)a2;
  const ReconcileResult result =
      Reconciler(ReconcilerOptions::DepGraph()).Run(data_);
  // Abbreviated name alone (0.8) cannot merge; the article merge adds
  // strong-boolean evidence that pushes it over.
  EXPECT_EQ(result.cluster[p1], result.cluster[p2]);
}

TEST_F(SolverTest, WithoutPropagationAuthorsStayApart) {
  const RefId p1 = Person("Robert S. Epstein");
  const RefId p2 = Person("Epstein, R.S.");
  Article("Distributed query processing", {p1}, kInvalidRef);
  Article("Distributed query processing", {p2}, kInvalidRef);
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.propagation = false;
  options.enrichment = false;
  // In a single dependency-ordered pass, persons are computed before
  // articles, so the article merge comes too late to help them.
  const ReconcileResult result = Reconciler(options).Run(data_);
  EXPECT_NE(result.cluster[p1], result.cluster[p2]);
}

TEST_F(SolverTest, EnrichmentBridgesThroughPooledEvidence) {
  // The paper's p5/p8/p9 story in miniature: "Stonebraker, M." reaches the
  // email-only reference only after "Michael Stonebraker" is pooled into
  // its cluster (enrichment) *and* a common contact is established — name
  // plus name~email evidence alone stays just below the threshold, exactly
  // as §2.2 narrates.
  const RefId p5 = Person("Stonebraker, M.");
  const RefId p8 = Person("", "stonebraker@csail.mit.edu");
  const RefId p9 = Person("Michael Stonebraker", "stonebraker@csail.mit.edu");
  // The Wong contact pair (p6 ~ p7 in the paper).
  const RefId p6 = Person("Eugene Wong");
  const RefId p7 = Person("Eugene Wong", "eugene@berkeley.edu");
  data_.mutable_reference(p5).AddAssociation(p_contact_, p6);
  data_.mutable_reference(p6).AddAssociation(p_contact_, p5);
  data_.mutable_reference(p8).AddAssociation(p_contact_, p7);
  data_.mutable_reference(p7).AddAssociation(p_contact_, p8);

  const ReconcileResult result =
      Reconciler(ReconcilerOptions::DepGraph()).Run(data_);
  EXPECT_EQ(result.cluster[p8], result.cluster[p9]);  // Email key.
  EXPECT_EQ(result.cluster[p6], result.cluster[p7]);  // Identical names.
  EXPECT_EQ(result.cluster[p5], result.cluster[p9]);  // The §2.2 bridge.

  // Counterfactual: without the contact link, the bridge must NOT form.
  Dataset bare(BuildPimSchema());
  const RefId q5 = bare.NewReference(person_, -1);
  bare.mutable_reference(q5).AddAtomicValue(p_name_, "Stonebraker, M.");
  const RefId q8 = bare.NewReference(person_, -1);
  bare.mutable_reference(q8).AddAtomicValue(p_email_,
                                            "stonebraker@csail.mit.edu");
  const RefId q9 = bare.NewReference(person_, -1);
  bare.mutable_reference(q9).AddAtomicValue(p_name_, "Michael Stonebraker");
  bare.mutable_reference(q9).AddAtomicValue(p_email_,
                                            "stonebraker@csail.mit.edu");
  const ReconcileResult counterfactual =
      Reconciler(ReconcilerOptions::DepGraph()).Run(bare);
  EXPECT_EQ(counterfactual.cluster[q8], counterfactual.cluster[q9]);
  EXPECT_NE(counterfactual.cluster[q5], counterfactual.cluster[q9]);
}

TEST_F(SolverTest, NegativeEvidencePropagatesAtFixpoint) {
  // w is constrained apart from the Mary-Smith cluster (same first,
  // different last). A reference x similar to both must not glue them.
  const RefId a = Person("Mary Smith", "msmith@x.edu");
  const RefId b = Person("Mary Smith", "msmith@x.edu");
  const RefId w = Person("Mary Jones", "mjones@y.edu");
  // x: compatible-ish with both sides (bare name), contacts shared with
  // both.
  const RefId x = Person("mary");
  for (const RefId p : {a, b, w}) {
    data_.mutable_reference(x).AddAssociation(p_contact_, p);
    data_.mutable_reference(p).AddAssociation(p_contact_, x);
  }
  const ReconcileResult result =
      Reconciler(ReconcilerOptions::DepGraph()).Run(data_);
  EXPECT_EQ(result.cluster[a], result.cluster[b]);
  EXPECT_NE(result.cluster[a], result.cluster[w]);
}

TEST_F(SolverTest, StatsCountFoldsOnlyWithEnrichment) {
  for (int i = 0; i < 4; ++i) Person("Eugene Wong", "ew@x.edu");
  ReconcilerOptions with = ReconcilerOptions::DepGraph();
  with.premerge_equal_emails = false;
  ReconcilerOptions without = with;
  without.enrichment = false;
  const ReconcileResult r_with = Reconciler(with).Run(data_);
  const ReconcileResult r_without = Reconciler(without).Run(data_);
  EXPECT_GT(r_with.stats.num_folds, 0);
  EXPECT_EQ(r_without.stats.num_folds, 0);
  // Same final partition either way here (everything key-merges).
  EXPECT_EQ(r_with.cluster, r_without.cluster);
}

TEST_F(SolverTest, SolverIsReentrantAfterManualEnqueue) {
  const RefId p1 = Person("Eugene Wong", "ew@x.edu");
  const RefId p2 = Person("Eugene Wong", "ew@x.edu");
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.premerge_equal_emails = false;
  BuiltGraph built = BuildDependencyGraph(data_, options);
  ReconcileStats stats;
  FixedPointSolver solver(data_, built, options, &stats);
  solver.EnqueueNodes(built.initial_queue);
  solver.Run();
  // Re-running with an empty queue is a no-op; re-enqueueing the same
  // nodes converges instantly (sims are already at fixpoint).
  solver.Run();
  const int64_t recomputes = stats.num_recomputations;
  solver.EnqueueNodes(built.initial_queue);
  solver.Run();
  EXPECT_LE(stats.num_recomputations, recomputes + 2);
  const std::vector<int> clusters = solver.Closure(nullptr);
  EXPECT_EQ(clusters[p1], clusters[p2]);
}

TEST_F(SolverTest, ParallelScoreCountersStayZeroAtAnyThreadCount) {
  // The solve is one sequential drain; the benchmark driver still reads
  // num_parallel_scored and num_score_discards, which must report 0 while
  // the drain does real work at every thread count.
  const RefId p1 = Person("Robert S. Epstein");
  const RefId p2 = Person("Epstein, R.S.");
  Article("Distributed query processing", {p1}, kInvalidRef);
  Article("Distributed query processing", {p2}, kInvalidRef);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.num_threads = threads;
    const ReconcileResult result = Reconciler(options).Run(data_);
    EXPECT_GT(result.stats.num_recomputations, 0);
    EXPECT_GT(result.stats.num_merges, 0);
    EXPECT_EQ(result.stats.num_parallel_scored, 0);
    EXPECT_EQ(result.stats.num_score_discards, 0);
  }
}

// ---- Derived non-merge pairs ------------------------------------------------

// A hand-built graph over bare person references, with pair similarities
// set directly, for the §3.4 triangle rule alone: which non-merge pairs are
// negative-propagation sources, and which are derived.
class DerivedNonMergeTest : public ::testing::Test {
 protected:
  DerivedNonMergeTest() : data_(BuildPimSchema()) {
    person_ = data_.schema().RequireClass("Person");
    for (int i = 0; i < 8; ++i) data_.NewReference(person_, -1);
    options_.enrichment = false;
    built_.graph = std::make_unique<DependencyGraph>(data_.num_references());
    solver_ = std::make_unique<FixedPointSolver>(data_, built_, options_,
                                                 &stats_);
  }

  DependencyGraph& graph() { return *built_.graph; }

  NodeId Pair(RefId a, RefId b, float sim) {
    const NodeId id = graph().AddRefPairNode(person_, a, b);
    graph().mutable_node(id).sim = sim;
    return id;
  }

  /// What a co-author constraint (or "distinct" feedback) does to a pair.
  void Constrain(NodeId id) { graph().SetNodeState(id, NodeState::kNonMerge); }

  bool IsDerived(NodeId id) {
    return graph().node(id).state == NodeState::kNonMerge &&
           graph().node(id).derived;
  }
  bool IsSource(NodeId id) {
    return graph().node(id).state == NodeState::kNonMerge &&
           !graph().node(id).derived;
  }

  /// One negative-propagation pass, which must leave nothing for a full
  /// pass to demote. Returns the sources the graph reports for the epoch
  /// the pass's own demotions fall in, checking that no derived pair is
  /// among them.
  std::vector<NodeId> Pass() {
    solver_->PropagateNegativeEvidence();
    EXPECT_EQ(solver_->RecheckNegativeEvidence(), 0);
    std::vector<NodeId> sources = graph().CloseChangeEpoch().sources;
    for (const NodeId id : sources) EXPECT_FALSE(IsDerived(id)) << id;
    return sources;
  }

  Dataset data_;
  int person_;
  ReconcilerOptions options_ = ReconcilerOptions::DepGraph();
  ReconcileStats stats_;
  BuiltGraph built_;
  std::unique_ptr<FixedPointSolver> solver_;
};

TEST_F(DerivedNonMergeTest, TriangleDemotionsAreNotSources) {
  // (0,1) is constrained; its triangle through 2 demotes the weaker
  // (1,2). Under a rule where every non-merge pair is a source, (1,2)
  // would then demote the weaker side of its own triangle through 3,
  // (2,3), one pass later.
  const NodeId l = Pair(0, 1, 0.1f);
  const NodeId a = Pair(0, 2, 0.9f);
  const NodeId d = Pair(1, 2, 0.5f);
  const NodeId e = Pair(1, 3, 0.8f);
  const NodeId f = Pair(2, 3, 0.4f);
  Constrain(l);

  // (1,2)'s demotion marks endpoint 1, so the constraint is a source of
  // the next epoch; the derived pair is not.
  EXPECT_EQ(Pass(), std::vector<NodeId>{l});
  EXPECT_TRUE(IsDerived(d));
  EXPECT_NE(graph().node(f).state, NodeState::kNonMerge);
  EXPECT_EQ(graph().num_non_merge_pairs(), 2);
  EXPECT_EQ(graph().num_derived_non_merge_pairs(), 1);
  // Nothing changed, so a second pass must not reach (2,3) either.
  EXPECT_TRUE(Pass().empty());
  EXPECT_NE(graph().node(f).state, NodeState::kNonMerge);

  // A co-author constraint on the derived pair makes it a source: the
  // next pass demotes (2,3), derived in turn.
  Constrain(d);
  EXPECT_TRUE(IsSource(d));
  EXPECT_EQ(graph().num_derived_non_merge_pairs(), 0);
  EXPECT_EQ(Pass(), std::vector<NodeId>{d});
  EXPECT_TRUE(IsDerived(f));
  EXPECT_NE(graph().node(e).state, NodeState::kNonMerge);
  EXPECT_EQ(graph().num_non_merge_pairs(), 3);
  EXPECT_EQ(graph().num_derived_non_merge_pairs(), 1);

  // feedback.same on the derived (2,3), as ApplyFeedback does it, clears
  // the bit; the solve then merges the pair, which outweighs (1,3) in the
  // constraint's triangle through 3.
  graph().mutable_node(f).forced_merge = true;
  graph().SetNodeState(f, NodeState::kInactive);
  EXPECT_FALSE(graph().node(f).derived);
  EXPECT_EQ(graph().num_non_merge_pairs(), 2);
  EXPECT_EQ(graph().num_derived_non_merge_pairs(), 0);
  solver_->EnqueueNodes({f});
  solver_->Run();
  ASSERT_EQ(graph().node(f).state, NodeState::kMerged);
  Pass();
  EXPECT_FALSE(graph().node(f).derived);
  EXPECT_EQ(graph().node(f).state, NodeState::kMerged);
  EXPECT_TRUE(IsDerived(e));
  EXPECT_TRUE(IsSource(l));
  EXPECT_TRUE(IsSource(d));
  EXPECT_EQ(graph().node(a).state, NodeState::kInactive);
  EXPECT_EQ(graph().num_derived_non_merge_pairs(), 1);
}

TEST_F(DerivedNonMergeTest, FoldLeavesASource) {
  // Two constrained triangles demote (1,2) and (5,6).
  const NodeId l1 = Pair(0, 1, 0.1f);
  Pair(0, 2, 0.9f);
  const NodeId d1 = Pair(1, 2, 0.5f);
  const NodeId l2 = Pair(4, 5, 0.1f);
  Pair(4, 6, 0.9f);
  const NodeId d2 = Pair(5, 6, 0.5f);
  Constrain(l1);
  Constrain(l2);
  Pass();
  ASSERT_TRUE(IsDerived(d1));
  ASSERT_TRUE(IsDerived(d2));

  // Derived into constraint: merging 2 into 3 folds the derived (1,2)
  // into the constrained (1,3), which stays a source.
  const NodeId c1 = Pair(1, 3, 0.2f);
  Constrain(c1);
  graph().MergeReferences(/*keep=*/3, /*gone=*/2);
  ASSERT_TRUE(graph().node(d1).dead);
  EXPECT_TRUE(IsSource(c1));
  EXPECT_EQ(graph().num_derived_non_merge_pairs(), 1);
  EXPECT_EQ(graph().CloseChangeEpoch().sources,
            (std::vector<NodeId>{l1, c1}));
  EXPECT_EQ(solver_->RecheckNegativeEvidence(), 0);

  // Constraint into derived: merging 7 into 5 folds the constrained (6,7)
  // into the derived (5,6), which becomes a source.
  const NodeId c2 = Pair(6, 7, 0.2f);
  Constrain(c2);
  graph().MergeReferences(/*keep=*/5, /*gone=*/7);
  ASSERT_TRUE(graph().node(c2).dead);
  EXPECT_TRUE(IsSource(d2));
  EXPECT_EQ(graph().num_derived_non_merge_pairs(), 0);
  EXPECT_EQ(graph().CloseChangeEpoch().sources,
            (std::vector<NodeId>{l2, d2}));
  EXPECT_EQ(solver_->RecheckNegativeEvidence(), 0);
  EXPECT_EQ(graph().num_non_merge_pairs(), 4);
}

// ---- Evidence-cache invalidation ------------------------------------------

// A hand-built graph where a dependent's cached summary rests on one
// contribution that later goes away. Only SetNodeState's invalidation can
// tell the dependent to rescan; the PIM and Cora sweeps reach these lines
// only on ties.
class CacheInvalidationTest : public ::testing::Test {
 protected:
  CacheInvalidationTest() : data_(BuildPimSchema()) {
    person_ = data_.schema().RequireClass("Person");
    article_ = data_.schema().RequireClass("Article");
    for (int i = 0; i < 4; ++i) data_.NewReference(person_, -1);
    for (int i = 0; i < 2; ++i) data_.NewReference(article_, -1);
    options_.enrichment = false;
    // Dependents are scored only when the test enqueues them.
    options_.propagation = false;
    built_.graph = std::make_unique<DependencyGraph>(data_.num_references());
    built_.class_sims.resize(data_.schema().num_classes());
    built_.class_sims[person_] = MakeClassSimilarity("Person");
    built_.class_sims[article_] = MakeClassSimilarity("Article");
    solver_ = std::make_unique<FixedPointSolver>(data_, built_, options_,
                                                 &stats_);
  }

  DependencyGraph& graph() { return *built_.graph; }

  /// Scores `id` once and returns its similarity.
  float Score(NodeId id) {
    solver_->EnqueueNodes({id});
    solver_->Run();
    return graph().node(id).sim;
  }

  Dataset data_;
  int person_, article_;
  ReconcilerOptions options_ = ReconcilerOptions::DepGraph();
  ReconcileStats stats_;
  BuiltGraph built_;
  std::unique_ptr<FixedPointSolver> solver_;
};

TEST_F(CacheInvalidationTest, DemotedChannelMaximum) {
  // Article pair (4,5) takes author evidence from two person pairs; the
  // higher, 0.9, is the channel's unique maximum.
  const NodeId high = graph().AddRefPairNode(person_, 0, 1);
  const NodeId low = graph().AddRefPairNode(person_, 2, 3);
  graph().mutable_node(high).sim = 0.9f;
  graph().mutable_node(low).sim = 0.6f;
  const NodeId article = graph().AddRefPairNode(article_, 4, 5);
  graph().AddStaticReal(article, kEvArticleTitle, 0.8);
  graph().AddEdge(high, article, DependencyKind::kRealValued,
                  kEvArticleAuthors);
  graph().AddEdge(low, article, DependencyKind::kRealValued,
                  kEvArticleAuthors);
  ASSERT_EQ(solver_->RecheckEvidenceCaches(), 0);

  // A co-author constraint on the maximum: the cached 0.9 is gone.
  graph().SetNodeState(high, NodeState::kNonMerge);
  EXPECT_EQ(solver_->RecheckEvidenceCaches(), 0);

  EvidenceSummary remaining;
  remaining.Offer(kEvArticleTitle, 0.8f);
  remaining.Offer(kEvArticleAuthors, 0.6f);
  EvidenceSummary stale = remaining;
  stale.Offer(kEvArticleAuthors, 0.9f);
  const ClassSimilarity& sim = *built_.class_sims[article_];
  ASSERT_NE(static_cast<float>(sim.Compute(remaining)),
            static_cast<float>(sim.Compute(stale)));
  EXPECT_EQ(Score(article), static_cast<float>(sim.Compute(remaining)));
}

TEST_F(CacheInvalidationTest, UnmergedStrongNeighbor) {
  // Article pair (4,5) is confirmed by feedback.same, as ApplyFeedback
  // does it, and its merge certifies the author pair (0,1).
  const NodeId article = graph().AddRefPairNode(article_, 4, 5);
  const NodeId author = graph().AddRefPairNode(person_, 0, 1);
  graph().AddStaticReal(author, kEvPersonName, 0.75);
  graph().AddEdge(article, author, DependencyKind::kStrongBoolean,
                  kEvPersonArticle);
  graph().mutable_node(article).forced_merge = true;
  graph().SetNodeState(article, NodeState::kInactive);
  Score(article);
  ASSERT_EQ(graph().node(article).state, NodeState::kMerged);
  ASSERT_EQ(graph().node(author).cache.strong_merged, 1);
  ASSERT_EQ(solver_->RecheckEvidenceCaches(), 0);

  // "Distinct" feedback on the same pair: it leaves kMerged, and the
  // author pair's merged-neighbor count must drop with it.
  graph().mutable_node(article).forced_merge = false;
  graph().SetNodeState(article, NodeState::kNonMerge);
  EXPECT_EQ(solver_->RecheckEvidenceCaches(), 0);

  EvidenceSummary remaining;
  remaining.Offer(kEvPersonName, 0.75f);
  EvidenceSummary stale = remaining;
  stale.strong_merged = 1;
  const ClassSimilarity& sim = *built_.class_sims[person_];
  ASSERT_NE(static_cast<float>(sim.Compute(remaining)),
            static_cast<float>(sim.Compute(stale)));
  EXPECT_EQ(Score(author), static_cast<float>(sim.Compute(remaining)));
  EXPECT_NE(graph().node(author).state, NodeState::kMerged);
}

}  // namespace
}  // namespace recon
