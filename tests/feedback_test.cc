// Tests for user-feedback support (paper §7): confirmed matches force
// merges (and propagate through the graph like any other merge), confirmed
// non-matches become constraints with full negative propagation.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/reconciler.h"
#include "datagen/pim_generator.h"
#include "invariants.h"
#include "model/dataset.h"

namespace recon {
namespace {

class FeedbackTest : public ::testing::Test {
 protected:
  FeedbackTest() : data_(BuildPimSchema()) {
    const Schema& s = data_.schema();
    person_ = s.RequireClass("Person");
    name_ = s.RequireAttribute(person_, "name");
    email_ = s.RequireAttribute(person_, "email");
    contact_ = s.RequireAttribute(person_, "emailContact");
  }

  RefId Person(const std::string& name, const std::string& email = "") {
    const RefId id = data_.NewReference(person_, -1);
    if (!name.empty()) data_.mutable_reference(id).AddAtomicValue(name_, name);
    if (!email.empty()) {
      data_.mutable_reference(id).AddAtomicValue(email_, email);
    }
    return id;
  }

  Dataset data_;
  int person_, name_, email_, contact_;
};

TEST_F(FeedbackTest, ConfirmedMatchForcesMerge) {
  // Nothing connects these two references; the user says they match.
  const RefId a = Person("J. S.", "jsmith1@x.edu");
  const RefId b = Person("Johannes Schmidt-Meyer", "jsm@y.de");
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  EXPECT_NE(Reconciler(options).Run(data_).cluster[a],
            Reconciler(options).Run(data_).cluster[b]);
  options.feedback.same.emplace_back(a, b);
  const ReconcileResult result = Reconciler(options).Run(data_);
  EXPECT_EQ(result.cluster[a], result.cluster[b]);
}

TEST_F(FeedbackTest, ConfirmedMatchPropagatesLikeAnyMerge) {
  // Forcing a merge pools the references; a third reference then matches
  // the enriched cluster through the pooled email.
  const RefId a = Person("Eugene Wong");
  const RefId b = Person("", "ew@berkeley.edu");
  const RefId c = Person("", "ew@berkeley.edu");
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.premerge_equal_emails = false;  // Exercise the graph path.
  options.feedback.same.emplace_back(a, b);
  const ReconcileResult result = Reconciler(options).Run(data_);
  EXPECT_EQ(result.cluster[a], result.cluster[b]);
  EXPECT_EQ(result.cluster[a], result.cluster[c]);
}

TEST_F(FeedbackTest, ConfirmedNonMatchBlocksMerge) {
  // Identical full names would merge; the user says they are different
  // people.
  const RefId a = Person("Wei Wang");
  const RefId b = Person("Wei Wang");
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  EXPECT_EQ(Reconciler(options).Run(data_).cluster[a],
            Reconciler(options).Run(data_).cluster[b]);
  options.feedback.distinct.emplace_back(a, b);
  const ReconcileResult result = Reconciler(options).Run(data_);
  EXPECT_NE(result.cluster[a], result.cluster[b]);
}

TEST_F(FeedbackTest, NonMatchPropagatesNegativeEvidence) {
  // A third identical-name reference may join one side but not both.
  const RefId a = Person("Wei Wang");
  const RefId b = Person("Wei Wang");
  const RefId c = Person("Wei Wang");
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.feedback.distinct.emplace_back(a, b);
  const ReconcileResult result = Reconciler(options).Run(data_);
  EXPECT_NE(result.cluster[a], result.cluster[b]);
  EXPECT_TRUE(result.cluster[c] != result.cluster[a] ||
              result.cluster[c] != result.cluster[b]);
}

TEST_F(FeedbackTest, FeedbackSurvivesPremerge) {
  // With pre-merging enabled, feedback in original-reference space must
  // be remapped onto the condensed references.
  const RefId a1 = Person("Alpha One", "alpha@x.edu");
  const RefId a2 = Person("", "alpha@x.edu");  // Premerges with a1.
  const RefId b = Person("Beta Two", "beta@y.edu");
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  ASSERT_TRUE(options.premerge_equal_emails);
  options.feedback.same.emplace_back(a2, b);  // Via the premerged member.
  const ReconcileResult result = Reconciler(options).Run(data_);
  EXPECT_EQ(result.cluster[a1], result.cluster[a2]);
  EXPECT_EQ(result.cluster[a2], result.cluster[b]);
}

TEST_F(FeedbackTest, DistinctFeedbackSurvivesSharedEmail) {
  // Both references carry one address, so pre-merging alone would condense
  // them into a single reference; "distinct" feedback keeps them apart.
  const RefId a = Person("Wei Wang", "wang@x.edu");
  const RefId b = Person("W. Wang", "wang@x.edu");
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  ASSERT_TRUE(options.premerge_equal_emails);
  EXPECT_EQ(Reconciler(options).Run(data_).cluster[a],
            Reconciler(options).Run(data_).cluster[b]);
  options.feedback.distinct.emplace_back(a, b);
  const ReconcileResult result = Reconciler(options).Run(data_);
  EXPECT_NE(result.cluster[a], result.cluster[b]);
  EXPECT_TRUE(invariants::CheckPartition(data_, options, result).empty());
}

TEST_F(FeedbackTest, DistinctFeedbackSurvivesPremergeOnGeneratedData) {
  // On PIM A 0.02x (seed 404) references 9 and 384 share an email and are
  // pre-merged; with "distinct" feedback on them the partition must keep
  // them apart and satisfy every invariant.
  datagen::PimConfig config =
      datagen::ScaleConfig(datagen::PimConfigA(), 0.02);
  config.seed = 404;
  const Dataset data = datagen::GeneratePim(config);
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  ASSERT_TRUE(options.premerge_equal_emails);
  const ReconcileResult before = Reconciler(options).Run(data);
  ASSERT_EQ(before.cluster[9], before.cluster[384]);
  options.feedback.distinct.emplace_back(9, 384);
  const ReconcileResult result = Reconciler(options).Run(data);
  EXPECT_NE(result.cluster[9], result.cluster[384]);
  const std::vector<std::string> violations =
      invariants::CheckPartition(data, options, result);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST_F(FeedbackTest, InvalidPairsAreIgnored) {
  const RefId a = Person("Someone Real");
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.feedback.same.emplace_back(a, a);        // Self pair.
  options.feedback.same.emplace_back(a, 999);      // Out of range.
  options.feedback.distinct.emplace_back(-1, a);   // Negative.
  const ReconcileResult result = Reconciler(options).Run(data_);
  EXPECT_EQ(result.cluster[a], a);
}

TEST_F(FeedbackTest, FeedbackOnGeneratedDataImprovesRecall) {
  // Simulate a user confirming a few cross-style pairs the algorithm
  // missed; the confirmations must strictly reduce partition counts.
  datagen::PimConfig config = datagen::PimConfigA();
  config = datagen::ScaleConfig(config, 0.02);
  const Dataset data = datagen::GeneratePim(config);
  const int person = data.schema().RequireClass("Person");

  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  const ReconcileResult before = Reconciler(options).Run(data);

  // Find up to 5 same-entity pairs in different clusters and confirm them.
  std::map<int, RefId> first_cluster_of_entity;
  int confirmed = 0;
  for (RefId id = 0; id < data.num_references() && confirmed < 5; ++id) {
    if (data.reference(id).class_id() != person) continue;
    const int gold = data.gold_entity(id);
    auto [it, inserted] =
        first_cluster_of_entity.try_emplace(gold, id);
    if (!inserted &&
        before.cluster[it->second] != before.cluster[id]) {
      options.feedback.same.emplace_back(it->second, id);
      ++confirmed;
    }
  }
  ASSERT_GT(confirmed, 0);
  const ReconcileResult after = Reconciler(options).Run(data);
  EXPECT_LT(after.NumPartitionsOfClass(data, person),
            before.NumPartitionsOfClass(data, person));
}

}  // namespace
}  // namespace recon
