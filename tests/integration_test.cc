// Cross-module integration tests: full reconciliation runs over generated
// datasets, checking the paper's qualitative claims at small scale.

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "core/reconciler.h"
#include "datagen/cora_generator.h"
#include "datagen/pim_generator.h"
#include "eval/metrics.h"

namespace recon {
namespace {

datagen::PimConfig SmallPim(uint64_t seed) {
  datagen::PimConfig config = datagen::PimConfigA();
  config = datagen::ScaleConfig(config, 0.04);
  config.seed = seed;
  return config;
}

TEST(IntegrationTest, DepGraphBeatsIndepDecOnPersons) {
  const Dataset data = datagen::GeneratePim(SmallPim(42));
  const int person = data.schema().RequireClass("Person");

  const Reconciler baseline(ReconcilerOptions::IndepDec());
  const PairMetrics indep =
      EvaluateClass(data, baseline.Run(data).cluster, person);
  const Reconciler depgraph(ReconcilerOptions::DepGraph());
  const PairMetrics dep =
      EvaluateClass(data, depgraph.Run(data).cluster, person);

  EXPECT_GT(dep.recall, indep.recall);
  EXPECT_GE(dep.f1, indep.f1);
  EXPECT_GT(dep.precision, 0.9);
}

TEST(IntegrationTest, DepGraphBeatsIndepDecOnVenues) {
  const Dataset data = datagen::GeneratePim(SmallPim(43));
  const int venue = data.schema().RequireClass("Venue");
  const Reconciler baseline(ReconcilerOptions::IndepDec());
  const PairMetrics indep =
      EvaluateClass(data, baseline.Run(data).cluster, venue);
  const Reconciler depgraph(ReconcilerOptions::DepGraph());
  const PairMetrics dep =
      EvaluateClass(data, depgraph.Run(data).cluster, venue);
  EXPECT_GT(dep.recall, indep.recall);
}

TEST(IntegrationTest, ModesOrderOnPartitionCounts) {
  // Table 5's ordering at small scale: more machinery, fewer partitions
  // (allowing ties).
  const Dataset data = datagen::GeneratePim(SmallPim(44));
  const int person = data.schema().RequireClass("Person");

  auto partitions = [&](bool propagation, bool enrichment) {
    ReconcilerOptions options;
    options.propagation = propagation;
    options.enrichment = enrichment;
    const Reconciler reconciler(options);
    return reconciler.Run(data).NumPartitionsOfClass(data, person);
  };
  const int traditional = partitions(false, false);
  const int propagation = partitions(true, false);
  const int merge = partitions(false, true);
  const int full = partitions(true, true);

  // More machinery never produces more partitions than Traditional, and
  // Full refines Merge. (Full vs Propagation is not ordered in general:
  // enrichment folds non-merge constraints onto whole clusters, which can
  // correctly block merges Propagation would have made.)
  EXPECT_LE(propagation, traditional);
  EXPECT_LE(merge, traditional);
  EXPECT_LE(full, merge);
}

TEST(IntegrationTest, EvidenceLevelsOrderOnPartitionCounts) {
  const Dataset data = datagen::GeneratePim(SmallPim(45));
  const int person = data.schema().RequireClass("Person");
  int previous = 1 << 30;
  for (const EvidenceLevel level :
       {EvidenceLevel::kAttrWise, EvidenceLevel::kNameEmail,
        EvidenceLevel::kArticle, EvidenceLevel::kContact}) {
    ReconcilerOptions options;
    options.evidence_level = level;
    const Reconciler reconciler(options);
    const int parts = reconciler.Run(data).NumPartitionsOfClass(data, person);
    EXPECT_LE(parts, previous);
    previous = parts;
  }
}

TEST(IntegrationTest, ConstraintsImprovePrecision) {
  const Dataset data = datagen::GeneratePim(SmallPim(46));
  const int person = data.schema().RequireClass("Person");

  ReconcilerOptions with = ReconcilerOptions::DepGraph();
  ReconcilerOptions without = ReconcilerOptions::DepGraph();
  without.constraints = false;
  const PairMetrics m_with =
      EvaluateClass(data, Reconciler(with).Run(data).cluster, person);
  const PairMetrics m_without =
      EvaluateClass(data, Reconciler(without).Run(data).cluster, person);
  EXPECT_GE(m_with.precision, m_without.precision);
}

TEST(IntegrationTest, ClustersNeverMixClasses) {
  const Dataset data = datagen::GeneratePim(SmallPim(47));
  const Reconciler reconciler(ReconcilerOptions::DepGraph());
  const ReconcileResult result = reconciler.Run(data);
  std::map<int, int> class_of_cluster;
  for (RefId id = 0; id < data.num_references(); ++id) {
    const int class_id = data.reference(id).class_id();
    auto [it, inserted] =
        class_of_cluster.try_emplace(result.cluster[id], class_id);
    EXPECT_EQ(it->second, class_id);
  }
}

TEST(IntegrationTest, ClusterVectorIsCanonical) {
  const Dataset data = datagen::GeneratePim(SmallPim(48));
  const Reconciler reconciler(ReconcilerOptions::DepGraph());
  const ReconcileResult result = reconciler.Run(data);
  ASSERT_EQ(static_cast<int>(result.cluster.size()), data.num_references());
  for (RefId id = 0; id < data.num_references(); ++id) {
    const int rep = result.cluster[id];
    ASSERT_GE(rep, 0);
    ASSERT_LT(rep, data.num_references());
    EXPECT_EQ(result.cluster[rep], rep);  // Representative is fixed point.
  }
}

TEST(IntegrationTest, CoraDepGraphImprovesVenueRecall) {
  datagen::CoraConfig config;
  config.num_papers = 40;
  config.num_citations = 300;
  const Dataset data = datagen::GenerateCora(config);
  const int venue = data.schema().RequireClass("Venue");

  const Reconciler baseline(ReconcilerOptions::IndepDec());
  const PairMetrics indep =
      EvaluateClass(data, baseline.Run(data).cluster, venue);
  const Reconciler depgraph(ReconcilerOptions::DepGraph());
  const PairMetrics dep =
      EvaluateClass(data, depgraph.Run(data).cluster, venue);
  EXPECT_GT(dep.recall, indep.recall);
  EXPECT_GT(dep.f1, indep.f1);
}

TEST(IntegrationTest, OwnerSplitByAccountConstraint) {
  // Dataset D's phenomenon: the owner's two eras (new last name, new
  // account on the same server) must NOT be merged when constraints are
  // on.
  datagen::PimConfig config = datagen::PimConfigD();
  config = datagen::ScaleConfig(config, 0.05);
  const Dataset data = datagen::GeneratePim(config);
  const int person = data.schema().RequireClass("Person");

  const Reconciler reconciler(ReconcilerOptions::DepGraph());
  const ReconcileResult result = reconciler.Run(data);

  // Gold entity 0 is the owner. Collect the clusters of her references.
  std::set<int> owner_clusters;
  for (RefId id = 0; id < data.num_references(); ++id) {
    if (data.reference(id).class_id() == person &&
        data.gold_entity(id) == 0) {
      owner_clusters.insert(result.cluster[id]);
    }
  }
  EXPECT_GE(owner_clusters.size(), 2u)
      << "owner eras should be split by the unique-account constraint";
}

}  // namespace
}  // namespace recon
