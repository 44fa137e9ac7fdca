#include <gtest/gtest.h>

#include "sim/class_sim.h"
#include "sim/comparators.h"
#include "sim/evidence.h"
#include "sim/params.h"
#include "sim/value_store.h"

namespace recon {
namespace {

SimParams Params() { return SimParams{}; }

EvidenceSummary WithEvidence(
    std::initializer_list<std::pair<Evidence, double>> items) {
  EvidenceSummary ev;
  for (const auto& [type, sim] : items) ev.Offer(type, sim);
  return ev;
}

// ---- EvidenceSummary --------------------------------------------------------

TEST(EvidenceSummaryTest, AbsentVsZero) {
  EvidenceSummary ev;
  EXPECT_FALSE(ev.Has(kEvPersonName));
  ev.Offer(kEvPersonName, 0.0);
  EXPECT_TRUE(ev.Has(kEvPersonName));
  EXPECT_DOUBLE_EQ(ev.Get(kEvPersonName), 0.0);
}

TEST(EvidenceSummaryTest, OfferKeepsMax) {
  EvidenceSummary ev;
  ev.Offer(kEvPersonEmail, 0.6);
  ev.Offer(kEvPersonEmail, 0.9);
  ev.Offer(kEvPersonEmail, 0.3);
  EXPECT_DOUBLE_EQ(ev.Get(kEvPersonEmail), 0.9);
}

// ---- Person similarity ---------------------------------------------------------

TEST(PersonSimilarityTest, EmailIsKeyAttribute) {
  PersonSimilarity sim(Params());
  // Identical emails merge even with dissimilar names (paper §4).
  EvidenceSummary ev = WithEvidence({{kEvPersonEmail, 1.0},
                                     {kEvPersonName, 0.1}});
  EXPECT_DOUBLE_EQ(sim.Compute(ev), 1.0);
}

TEST(PersonSimilarityTest, IdenticalFullNamesMergeAlone) {
  PersonSimilarity sim(Params());
  EvidenceSummary ev = WithEvidence({{kEvPersonName, 1.0}});
  EXPECT_GE(sim.Compute(ev), Params().merge_threshold);
}

TEST(PersonSimilarityTest, AbbreviatedNameAloneDoesNotMerge) {
  PersonSimilarity sim(Params());
  // "Wong, E." vs "Eugene Wong" style evidence, capped at 0.8.
  EvidenceSummary ev = WithEvidence({{kEvPersonName, kAbbreviatedNameCap}});
  EXPECT_LT(sim.Compute(ev), Params().merge_threshold);
}

TEST(PersonSimilarityTest, AbbreviatedNamePlusArticleMerges) {
  PersonSimilarity sim(Params());
  EvidenceSummary ev = WithEvidence({{kEvPersonName, kAbbreviatedNameCap}});
  ev.strong_merged = 1;  // One merged authored-article pair.
  EXPECT_GE(sim.Compute(ev), Params().merge_threshold);
}

TEST(PersonSimilarityTest, BooleanEvidenceGatedOnTrv) {
  PersonSimilarity sim(Params());
  EvidenceSummary ev = WithEvidence({{kEvPersonName, 0.5}});
  ev.strong_merged = 5;
  ev.weak_merged = 5;
  // S_rv = 0.5 < t_rv = 0.7: boolean evidence must not apply.
  EXPECT_DOUBLE_EQ(sim.Compute(ev), 0.5);
}

TEST(PersonSimilarityTest, WeakEvidenceAccumulates) {
  PersonSimilarity sim(Params());
  EvidenceSummary base = WithEvidence({{kEvPersonName, 0.75}});
  const double s0 = sim.Compute(base);
  base.weak_merged = 2;
  const double s2 = sim.Compute(base);
  EXPECT_NEAR(s2 - s0, 2 * Params().person.gamma, 1e-9);
}

TEST(PersonSimilarityTest, NameEmailEvidenceHelpsWithoutEmail) {
  PersonSimilarity sim(Params());
  const double without =
      sim.Compute(WithEvidence({{kEvPersonName, 0.6}}));
  const double with = sim.Compute(
      WithEvidence({{kEvPersonName, 0.6}, {kEvPersonNameEmail, 0.9}}));
  EXPECT_GT(with, without);
}

TEST(PersonSimilarityTest, NoEvidenceScoresZero) {
  PersonSimilarity sim(Params());
  EXPECT_DOUBLE_EQ(sim.Compute(EvidenceSummary()), 0.0);
}

TEST(PersonSimilarityTest, MonotoneInEachChannel) {
  PersonSimilarity sim(Params());
  // Property: raising any single evidence value never lowers the score.
  const Evidence channels[] = {kEvPersonName, kEvPersonEmail,
                               kEvPersonNameEmail};
  for (const Evidence channel : channels) {
    double previous = -1;
    for (double x = 0.0; x <= 1.0; x += 0.1) {
      EvidenceSummary ev = WithEvidence(
          {{kEvPersonName, 0.5}, {kEvPersonEmail, 0.5}});
      ev.Offer(channel, x);
      const double s = sim.Compute(ev);
      EXPECT_GE(s, previous) << "channel " << channel << " at " << x;
      previous = s;
    }
  }
}

// ---- Article similarity ---------------------------------------------------------

TEST(ArticleSimilarityTest, TitleRequired) {
  ArticleSimilarity sim(Params());
  EvidenceSummary ev = WithEvidence({{kEvArticleYear, 1.0},
                                     {kEvArticlePages, 1.0}});
  EXPECT_DOUBLE_EQ(sim.Compute(ev), 0.0);
}

TEST(ArticleSimilarityTest, IdenticalTitleAloneMerges) {
  ArticleSimilarity sim(Params());
  EXPECT_GE(sim.Compute(WithEvidence({{kEvArticleTitle, 1.0}})),
            Params().merge_threshold);
}

TEST(ArticleSimilarityTest, AuxEvidenceLiftsNoisyTitle) {
  ArticleSimilarity sim(Params());
  const double alone = sim.Compute(WithEvidence({{kEvArticleTitle, 0.85}}));
  const double supported = sim.Compute(
      WithEvidence({{kEvArticleTitle, 0.85},
                    {kEvArticleAuthors, 1.0},
                    {kEvArticleVenue, 1.0},
                    {kEvArticlePages, 1.0}}));
  EXPECT_GT(supported, alone);
  EXPECT_GE(supported, Params().merge_threshold);
}

TEST(ArticleSimilarityTest, ConflictingAuxLowersScore) {
  ArticleSimilarity sim(Params());
  const double match = sim.Compute(
      WithEvidence({{kEvArticleTitle, 0.9}, {kEvArticleYear, 1.0}}));
  const double clash = sim.Compute(
      WithEvidence({{kEvArticleTitle, 0.9}, {kEvArticleYear, 0.0}}));
  EXPECT_GT(match, clash);
}

// ---- Venue similarity -----------------------------------------------------------

TEST(VenueSimilarityTest, NameRequired) {
  VenueSimilarity sim(Params());
  EXPECT_DOUBLE_EQ(sim.Compute(WithEvidence({{kEvVenueYear, 1.0}})), 0.0);
}

TEST(VenueSimilarityTest, ExactNameMergesAlone) {
  VenueSimilarity sim(Params());
  EXPECT_GE(sim.Compute(WithEvidence({{kEvVenueName, 1.0}})),
            Params().merge_threshold);
}

TEST(VenueSimilarityTest, ArticlesBridgeDissimilarNames) {
  VenueSimilarity sim(Params());
  // Venue t_rv is 0.1 and beta is 0.2: weak name evidence plus a few
  // merged articles crosses the merge threshold (the SIGMOD example).
  EvidenceSummary ev = WithEvidence({{kEvVenueName, 0.3}});
  EXPECT_LT(sim.Compute(ev), Params().merge_threshold);
  ev.strong_merged = 3;
  EXPECT_GE(sim.Compute(ev), Params().merge_threshold);
}

TEST(VenueSimilarityTest, BelowTrvGetsNoArticleBoost) {
  VenueSimilarity sim(Params());
  EvidenceSummary ev = WithEvidence({{kEvVenueName, 0.05}});
  ev.strong_merged = 10;
  EXPECT_LT(sim.Compute(ev), 0.1);
}

// ---- Factory ----------------------------------------------------------------------

TEST(ClassSimilarityFactoryTest, BuildsAllKnownClasses) {
  EXPECT_NE(MakeClassSimilarity("Person", Params()), nullptr);
  EXPECT_NE(MakeClassSimilarity("Article", Params()), nullptr);
  EXPECT_NE(MakeClassSimilarity("Venue", Params()), nullptr);
}

// ---- Comparators (policy wrappers) --------------------------------------------------

/// Scores two raw values on `evidence` the way the graph does: each is
/// analyzed as `kind`, then compared by the channel's field comparator.
double FieldScore(int evidence, FeatureKind kind, const std::string& a,
                  const std::string& b) {
  return FeaturePairSimilarity(evidence, AnalyzeValue(a, kind),
                               AnalyzeValue(b, kind));
}

double NameScore(const std::string& a, const std::string& b) {
  return FieldScore(kEvPersonName, FeatureKind::kPersonName, a, b);
}

TEST(ComparatorsTest, AbbreviatedNamesAreCapped) {
  EXPECT_LE(NameScore("Wong, E.", "Eugene Wong"), kAbbreviatedNameCap);
  // Byte-identical abbreviated strings are equal attribute values and may
  // merge on their own (above the 0.85 merge threshold)...
  EXPECT_DOUBLE_EQ(NameScore("Wong, E.", "Wong, E."),
                   kEqualAbbreviatedNameSim);
  // ...but identical bare first names / nicknames stay capped.
  EXPECT_LE(NameScore("mike", "mike"), kAbbreviatedNameCap);
  EXPECT_DOUBLE_EQ(NameScore("Eugene Wong", "Eugene Wong"), 1.0);
}

TEST(ComparatorsTest, AllBoundedInUnitInterval) {
  const std::pair<std::string, std::string> pairs[] = {
      {"Eugene Wong", "Wong, E."},
      {"a@b.c", "x@y.z"},
      {"SIGMOD", "ACM Conference on Management of Data"},
      {"169-180", "pp. 169"},
      {"1978", "2004"},
      {"", ""},
  };
  const std::pair<int, FeatureKind> comparators[] = {
      {kEvPersonName, FeatureKind::kPersonName},
      {kEvPersonEmail, FeatureKind::kEmail},
      {kEvArticleTitle, FeatureKind::kTitle},
      {kEvVenueName, FeatureKind::kVenueName},
      {kEvArticleYear, FeatureKind::kYear},
      {kEvArticlePages, FeatureKind::kPages},
      {kEvVenueLocation, FeatureKind::kLocation},
  };
  for (const auto& [a, b] : pairs) {
    for (const auto& [evidence, kind] : comparators) {
      const double sim = FieldScore(evidence, kind, a, b);
      EXPECT_GE(sim, 0.0);
      EXPECT_LE(sim, 1.0);
    }
  }
}

}  // namespace
}  // namespace recon
