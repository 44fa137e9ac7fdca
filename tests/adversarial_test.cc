// Failure-injection and adversarial-input tests: degenerate datasets the
// reconciler must survive with sane output (no crashes, no hangs, bounded
// damage).

#include <string>

#include <gtest/gtest.h>

#include "core/reconciler.h"
#include "eval/metrics.h"
#include "model/dataset.h"

namespace recon {
namespace {

class AdversarialTest : public ::testing::Test {
 protected:
  AdversarialTest() : data_(BuildPimSchema()) {
    const Schema& s = data_.schema();
    person_ = s.RequireClass("Person");
    article_ = s.RequireClass("Article");
    venue_ = s.RequireClass("Venue");
    name_ = s.RequireAttribute(person_, "name");
    email_ = s.RequireAttribute(person_, "email");
    contact_ = s.RequireAttribute(person_, "emailContact");
    coauthor_ = s.RequireAttribute(person_, "coAuthor");
    title_ = s.RequireAttribute(article_, "title");
    authors_ = s.RequireAttribute(article_, "authoredBy");
  }

  RefId Person(int gold, const std::string& name,
               const std::string& email = "") {
    const RefId id = data_.NewReference(person_, gold);
    if (!name.empty()) data_.mutable_reference(id).AddAtomicValue(name_, name);
    if (!email.empty()) {
      data_.mutable_reference(id).AddAtomicValue(email_, email);
    }
    return id;
  }

  ReconcileResult Run() {
    const Reconciler reconciler(ReconcilerOptions::DepGraph());
    return reconciler.Run(data_);
  }

  Dataset data_;
  int person_, article_, venue_;
  int name_, email_, contact_, coauthor_, title_, authors_;
};

TEST_F(AdversarialTest, EmptyDataset) {
  const ReconcileResult result = Run();
  EXPECT_TRUE(result.cluster.empty());
  EXPECT_EQ(result.stats.num_nodes, 0);
}

TEST_F(AdversarialTest, SingleReference) {
  const RefId p = Person(0, "Eugene Wong");
  const ReconcileResult result = Run();
  EXPECT_EQ(result.cluster[p], p);
}

TEST_F(AdversarialTest, ReferencesWithNoAttributesStaySingletons) {
  for (int i = 0; i < 5; ++i) data_.NewReference(person_, i);
  const ReconcileResult result = Run();
  for (RefId id = 0; id < 5; ++id) EXPECT_EQ(result.cluster[id], id);
}

TEST_F(AdversarialTest, EveryoneHasTheSameFullName) {
  // 30 distinct entities, one name string. The key-less identical full
  // names collapse — that is the documented behaviour of full-name
  // equality — but it must terminate and produce one clean partition.
  for (int i = 0; i < 30; ++i) Person(i, "Wei Wang");
  const ReconcileResult result = Run();
  const PairMetrics m = EvaluateClass(data_, result.cluster, person_);
  EXPECT_EQ(m.num_partitions, 1);
}

TEST_F(AdversarialTest, SelfAssociationIsHarmless) {
  const RefId a = Person(0, "Eugene Wong");
  const RefId b = Person(0, "Eugene Wong");
  data_.mutable_reference(a).AddAssociation(contact_, a);  // Self link.
  data_.mutable_reference(a).AddAssociation(contact_, b);
  data_.mutable_reference(b).AddAssociation(contact_, b);
  const ReconcileResult result = Run();
  EXPECT_EQ(result.cluster[a], result.cluster[b]);
}

TEST_F(AdversarialTest, MutualContactCycle) {
  // A tight cycle of contacts between two clusters must not prevent
  // convergence.
  const RefId a1 = Person(0, "Eugene Wong", "ew@x.edu");
  const RefId a2 = Person(0, "Eugene Wong", "ew@x.edu");
  const RefId b1 = Person(1, "Robert Epstein", "re@x.edu");
  const RefId b2 = Person(1, "Robert Epstein", "re@x.edu");
  data_.mutable_reference(a1).AddAssociation(contact_, b1);
  data_.mutable_reference(b1).AddAssociation(contact_, a1);
  data_.mutable_reference(a2).AddAssociation(contact_, b2);
  data_.mutable_reference(b2).AddAssociation(contact_, a2);
  const ReconcileResult result = Run();
  EXPECT_EQ(result.cluster[a1], result.cluster[a2]);
  EXPECT_EQ(result.cluster[b1], result.cluster[b2]);
  EXPECT_NE(result.cluster[a1], result.cluster[b1]);
}

TEST_F(AdversarialTest, HugeMailingListContactsAreBounded) {
  // One "reference" (a mailing list) in contact with everyone must not
  // blow up association wiring (kMaxAssocCross guard).
  const RefId list = Person(999, "dbgroup", "dbgroup@x.edu");
  for (int i = 0; i < 200; ++i) {
    const RefId p = Person(i, "Member" + std::to_string(i) + " Smith");
    data_.mutable_reference(list).AddAssociation(contact_, p);
    data_.mutable_reference(p).AddAssociation(contact_, list);
  }
  const ReconcileResult result = Run();
  EXPECT_EQ(static_cast<int>(result.cluster.size()), 201);
}

TEST_F(AdversarialTest, ArticleWithManyIdenticalAuthors) {
  // Extraction glitches can list the same author reference repeatedly;
  // the deduplicating Reference::AddAssociation plus the co-author
  // constraint must cope.
  const RefId p1 = Person(0, "Eugene Wong");
  const RefId p2 = Person(1, "Robert Epstein");
  const RefId a = data_.NewReference(article_, 50);
  data_.mutable_reference(a).AddAtomicValue(title_, "Query processing");
  for (int i = 0; i < 10; ++i) {
    data_.mutable_reference(a).AddAssociation(authors_, p1);
    data_.mutable_reference(a).AddAssociation(authors_, p2);
  }
  const ReconcileResult result = Run();
  EXPECT_NE(result.cluster[p1], result.cluster[p2]);  // Constraint 1.
}

TEST_F(AdversarialTest, PathologicallyLongValues) {
  const std::string long_name(5000, 'x');
  const RefId a = Person(0, long_name);
  const RefId b = Person(0, long_name);
  const ReconcileResult result = Run();
  // Identical 5000-char "names" parse as one giant token; no crash, and
  // they may or may not merge — both clusters must simply be valid.
  EXPECT_EQ(result.cluster[result.cluster[a]], result.cluster[a]);
  EXPECT_EQ(result.cluster[result.cluster[b]], result.cluster[b]);
}

TEST_F(AdversarialTest, ConflictingConstraintAndKeyEvidence) {
  // Same email (key: merge!) but contradictory full names (constraint 2
  // applies only *without* a shared email): the key must win, matching
  // the paper's rule.
  const RefId a = Person(0, "Mary Smith", "msmith@x.edu");
  const RefId b = Person(0, "Mary Jones", "msmith@x.edu");
  const ReconcileResult result = Run();
  EXPECT_EQ(result.cluster[a], result.cluster[b]);
}

TEST_F(AdversarialTest, IndepDecSurvivesTheSameInputs) {
  for (int i = 0; i < 10; ++i) Person(i, "Wei Wang");
  Person(11, "");  // Attribute-less.
  const RefId self = Person(12, "Loop Self");
  data_.mutable_reference(self).AddAssociation(contact_, self);
  const Reconciler baseline(ReconcilerOptions::IndepDec());
  const ReconcileResult result = baseline.Run(data_);
  EXPECT_EQ(static_cast<int>(result.cluster.size()),
            data_.num_references());
}

TEST_F(AdversarialTest, AllPairsNonMergeStillTerminates) {
  // Authors of one article are pairwise constrained; a large author list
  // creates a clique of non-merge nodes.
  const RefId a = data_.NewReference(article_, 50);
  data_.mutable_reference(a).AddAtomicValue(title_, "The committee paper");
  for (int i = 0; i < 40; ++i) {
    const RefId p = Person(i, "Alex Carter");  // All same name!
    data_.mutable_reference(a).AddAssociation(authors_, p);
  }
  const ReconcileResult result = Run();
  // The constraint keeps all 40 same-named co-authors apart.
  const PairMetrics m = EvaluateClass(data_, result.cluster, person_);
  EXPECT_EQ(m.num_partitions, 40);
}

}  // namespace
}  // namespace recon
