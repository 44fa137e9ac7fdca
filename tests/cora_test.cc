// Cora-specific tests: the citation-benchmark phenomena behind Table 7.

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "core/reconciler.h"
#include "datagen/cora_generator.h"
#include "eval/metrics.h"

namespace recon {
namespace {

datagen::CoraConfig SmallCora(uint64_t seed) {
  datagen::CoraConfig config;
  config.num_papers = 40;
  config.num_citations = 320;
  config.num_authors = 70;
  config.num_venue_series = 20;
  config.seed = seed;
  return config;
}

TEST(CoraTest, VenueGoldIsSeriesLevel) {
  // All year-instances of one series carry the same gold label.
  datagen::Universe universe;
  const Dataset data = datagen::GenerateCora(SmallCora(11), &universe);
  const int venue = data.schema().RequireClass("Venue");
  const int name_attr = data.schema().RequireAttribute(venue, "name");
  // Gather gold labels per acronym-resolved series.
  std::map<std::string, std::set<int>> golds_per_acronym;
  for (const RefId id : data.ReferencesOfClass(venue)) {
    const std::string& name = data.reference(id).FirstValue(name_attr);
    for (const auto& spec : universe.venues) {
      if (name == spec.acronym) {
        golds_per_acronym[spec.acronym].insert(data.gold_entity(id));
      }
    }
  }
  ASSERT_FALSE(golds_per_acronym.empty());
  for (const auto& [acronym, golds] : golds_per_acronym) {
    EXPECT_EQ(golds.size(), 1u) << acronym;
  }
}

TEST(CoraTest, WrongVenueMentionsDragDownDepGraphVenuePrecision) {
  datagen::CoraConfig clean = SmallCora(12);
  clean.p_wrong_venue = 0.0;
  datagen::CoraConfig noisy = SmallCora(12);
  noisy.p_wrong_venue = 0.10;

  const Reconciler reconciler(ReconcilerOptions::DepGraph());
  auto venue_precision = [&](const datagen::CoraConfig& config) {
    const Dataset data = datagen::GenerateCora(config);
    const int venue = data.schema().RequireClass("Venue");
    return EvaluateClass(data, reconciler.Run(data).cluster, venue)
        .precision;
  };
  EXPECT_GT(venue_precision(clean), venue_precision(noisy));
}

TEST(CoraTest, DepGraphBeatsIndepDecOnEveryClass) {
  const Dataset data = datagen::GenerateCora(SmallCora(13));
  const Reconciler indep(ReconcilerOptions::IndepDec());
  const Reconciler dep(ReconcilerOptions::DepGraph());
  const auto ci = indep.Run(data).cluster;
  const auto cd = dep.Run(data).cluster;
  for (const char* cls : {"Person", "Article", "Venue"}) {
    const int id = data.schema().RequireClass(cls);
    EXPECT_GE(EvaluateClass(data, cd, id).f1,
              EvaluateClass(data, ci, id).f1)
        << cls;
  }
}

TEST(CoraTest, ArticleRecallGainComesFromAuthorAndVenueEvidence) {
  // With association evidence off (attr-wise) article recall is lower
  // than with it on, on the same data.
  const Dataset data = datagen::GenerateCora(SmallCora(14));
  const int article = data.schema().RequireClass("Article");
  ReconcilerOptions attr_only = ReconcilerOptions::DepGraph();
  attr_only.evidence_level = EvidenceLevel::kAttrWise;
  const double r_attr =
      EvaluateClass(data, Reconciler(attr_only).Run(data).cluster, article)
          .recall;
  const double r_full =
      EvaluateClass(data,
                    Reconciler(ReconcilerOptions::DepGraph()).Run(data)
                        .cluster,
                    article)
          .recall;
  EXPECT_GE(r_full, r_attr);
}

TEST(CoraTest, AuthorsNamedOnly) {
  // Cora person references carry only names (the paper's premise for why
  // the single-class baseline struggles there).
  const Dataset data = datagen::GenerateCora(SmallCora(15));
  const int person = data.schema().RequireClass("Person");
  EXPECT_EQ(data.schema().class_def(person).FindAttribute("email"), -1);
  const int name = data.schema().RequireAttribute(person, "name");
  for (const RefId id : data.ReferencesOfClass(person)) {
    EXPECT_FALSE(data.reference(id).atomic_values(name).empty());
  }
}

TEST(CoraTest, CitationCountsRoughlyZipf) {
  const Dataset data = datagen::GenerateCora(SmallCora(16));
  const int article = data.schema().RequireClass("Article");
  std::map<int, int> citations_per_paper;
  for (const RefId id : data.ReferencesOfClass(article)) {
    ++citations_per_paper[data.gold_entity(id)];
  }
  int max_citations = 0;
  for (const auto& [gold, count] : citations_per_paper) {
    max_citations = std::max(max_citations, count);
  }
  const double mean =
      320.0 / static_cast<double>(citations_per_paper.size());
  EXPECT_GT(max_citations, mean);  // Head heavier than the mean.
}

}  // namespace
}  // namespace recon
