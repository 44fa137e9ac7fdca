#include <gtest/gtest.h>

#include <cmath>

#include "sim/class_sim.h"
#include "sim/comparators.h"
#include "sim/evidence.h"
#include "sim/params.h"
#include "sim/value_store.h"

namespace recon {
namespace {

EvidenceSummary WithEvidence(
    std::initializer_list<std::pair<Evidence, double>> items) {
  EvidenceSummary ev;
  for (const auto& [type, sim] : items) ev.Offer(type, sim);
  return ev;
}

// ---- Parameters -------------------------------------------------------------

TEST(SimTest, ParamsAreThePapersPublishedSettings) {
  // §5.2: merge-threshold 0.85 for references and 1.0 for attribute values;
  // beta = 0.1 (0.2 for Venue), gamma = 0.05, t_rv = 0.7 for Person and
  // Article and 0.1 for Venue.
  EXPECT_EQ(kSimParams.merge_threshold, 0.85);
  EXPECT_EQ(kSimParams.value_merge_threshold, 1.0);
  const struct {
    const char* name;
    const BooleanEvidenceParams& params;
    double beta;
    double gamma;
    double t_rv;
  } kClasses[] = {
      {"Person", kSimParams.person, 0.1, 0.05, 0.7},
      {"Article", kSimParams.article, 0.1, 0.05, 0.7},
      {"Venue", kSimParams.venue, 0.2, 0.05, 0.1},
  };
  for (const auto& c : kClasses) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(c.params.beta, c.beta);
    EXPECT_EQ(c.params.gamma, c.gamma);
    EXPECT_EQ(c.params.t_rv, c.t_rv);
  }
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
  EXPECT_EQ(ev.Get(kEvPersonEmail), 0.9f);
}

TEST(EvidenceSummaryTest, OfferStoresTheFloatTheGraphHolds) {
  // The graph keeps every similarity as a float, so a double comparator
  // score offered here reads back as its float rounding: 0.88 (the score
  // of two equal names "Wong, E.") reads 0.87999999523162842.
  EvidenceSummary ev;
  ev.Offer(kEvPersonName, 0.88);
  EXPECT_EQ(ev.Get(kEvPersonName), static_cast<double>(0.88f));
  EXPECT_NE(ev.Get(kEvPersonName), 0.88);
  // A second offer that rounds to the same float changes nothing.
  ev.Offer(kEvPersonName, std::nextafter(0.88, 1.0));
  EXPECT_EQ(ev.Get(kEvPersonName), static_cast<double>(0.88f));
  // Channels and boolean counts are independent.
  EXPECT_FALSE(ev.Has(kEvPersonEmail));
  EXPECT_EQ(ev.strong_merged, 0);
  EXPECT_EQ(ev.weak_merged, 0);
}

// ---- Person similarity ---------------------------------------------------------

TEST(PersonSimilarityTest, EmailIsKeyAttribute) {
  const PersonSimilarity sim;
  // Identical emails merge even with dissimilar names (paper §4).
  EvidenceSummary ev = WithEvidence({{kEvPersonEmail, 1.0},
                                     {kEvPersonName, 0.1}});
  EXPECT_DOUBLE_EQ(sim.Compute(ev), 1.0);
}

TEST(PersonSimilarityTest, IdenticalFullNamesMergeAlone) {
  const PersonSimilarity sim;
  EvidenceSummary ev = WithEvidence({{kEvPersonName, 1.0}});
  EXPECT_GE(sim.Compute(ev), kSimParams.merge_threshold);
}

TEST(PersonSimilarityTest, AbbreviatedNameAloneDoesNotMerge) {
  const PersonSimilarity sim;
  // "Wong, E." vs "Eugene Wong" style evidence, capped at 0.8.
  EvidenceSummary ev = WithEvidence({{kEvPersonName, kAbbreviatedNameCap}});
  EXPECT_LT(sim.Compute(ev), kSimParams.merge_threshold);
}

TEST(PersonSimilarityTest, AbbreviatedNamePlusArticleMerges) {
  const PersonSimilarity sim;
  EvidenceSummary ev = WithEvidence({{kEvPersonName, kAbbreviatedNameCap}});
  ev.strong_merged = 1;  // One merged authored-article pair.
  EXPECT_GE(sim.Compute(ev), kSimParams.merge_threshold);
}

TEST(PersonSimilarityTest, BooleanEvidenceGatedOnTrv) {
  const PersonSimilarity sim;
  EvidenceSummary ev = WithEvidence({{kEvPersonName, 0.5}});
  ev.strong_merged = 5;
  ev.weak_merged = 5;
  // S_rv = 0.5 < t_rv = 0.7: boolean evidence must not apply.
  EXPECT_DOUBLE_EQ(sim.Compute(ev), 0.5);
}

TEST(PersonSimilarityTest, WeakEvidenceAccumulates) {
  const PersonSimilarity sim;
  EvidenceSummary base = WithEvidence({{kEvPersonName, 0.75}});
  const double s0 = sim.Compute(base);
  base.weak_merged = 2;
  const double s2 = sim.Compute(base);
  EXPECT_NEAR(s2 - s0, 2 * kSimParams.person.gamma, 1e-9);
}

TEST(PersonSimilarityTest, NameEmailEvidenceHelpsWithoutEmail) {
  const PersonSimilarity sim;
  const double without =
      sim.Compute(WithEvidence({{kEvPersonName, 0.6}}));
  const double with = sim.Compute(
      WithEvidence({{kEvPersonName, 0.6}, {kEvPersonNameEmail, 0.9}}));
  EXPECT_GT(with, without);
}

TEST(PersonSimilarityTest, NoEvidenceScoresZero) {
  const PersonSimilarity sim;
  EXPECT_DOUBLE_EQ(sim.Compute(EvidenceSummary()), 0.0);
}

TEST(PersonSimilarityTest, MonotoneInEachChannel) {
  const PersonSimilarity sim;
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
  const ArticleSimilarity sim;
  EvidenceSummary ev = WithEvidence({{kEvArticleYear, 1.0},
                                     {kEvArticlePages, 1.0}});
  EXPECT_DOUBLE_EQ(sim.Compute(ev), 0.0);
}

TEST(ArticleSimilarityTest, IdenticalTitleAloneMerges) {
  const ArticleSimilarity sim;
  EXPECT_GE(sim.Compute(WithEvidence({{kEvArticleTitle, 1.0}})),
            kSimParams.merge_threshold);
}

TEST(ArticleSimilarityTest, AuxEvidenceLiftsNoisyTitle) {
  const ArticleSimilarity sim;
  const double alone = sim.Compute(WithEvidence({{kEvArticleTitle, 0.85}}));
  const double supported = sim.Compute(
      WithEvidence({{kEvArticleTitle, 0.85},
                    {kEvArticleAuthors, 1.0},
                    {kEvArticleVenue, 1.0},
                    {kEvArticlePages, 1.0}}));
  EXPECT_GT(supported, alone);
  EXPECT_GE(supported, kSimParams.merge_threshold);
}

TEST(ArticleSimilarityTest, ConflictingAuxLowersScore) {
  const ArticleSimilarity sim;
  const double match = sim.Compute(
      WithEvidence({{kEvArticleTitle, 0.9}, {kEvArticleYear, 1.0}}));
  const double clash = sim.Compute(
      WithEvidence({{kEvArticleTitle, 0.9}, {kEvArticleYear, 0.0}}));
  EXPECT_GT(match, clash);
}

// ---- Venue similarity -----------------------------------------------------------

TEST(VenueSimilarityTest, NameRequired) {
  const VenueSimilarity sim;
  EXPECT_DOUBLE_EQ(sim.Compute(WithEvidence({{kEvVenueYear, 1.0}})), 0.0);
}

TEST(VenueSimilarityTest, ExactNameMergesAlone) {
  const VenueSimilarity sim;
  EXPECT_GE(sim.Compute(WithEvidence({{kEvVenueName, 1.0}})),
            kSimParams.merge_threshold);
}

TEST(VenueSimilarityTest, ArticlesBridgeDissimilarNames) {
  const VenueSimilarity sim;
  // Venue t_rv is 0.1 and beta is 0.2: weak name evidence plus a few
  // merged articles crosses the merge threshold (the SIGMOD example).
  EvidenceSummary ev = WithEvidence({{kEvVenueName, 0.3}});
  EXPECT_LT(sim.Compute(ev), kSimParams.merge_threshold);
  ev.strong_merged = 3;
  EXPECT_GE(sim.Compute(ev), kSimParams.merge_threshold);
}

TEST(VenueSimilarityTest, BelowTrvGetsNoArticleBoost) {
  const VenueSimilarity sim;
  EvidenceSummary ev = WithEvidence({{kEvVenueName, 0.05}});
  ev.strong_merged = 10;
  EXPECT_LT(sim.Compute(ev), 0.1);
}

// ---- Factory ----------------------------------------------------------------------

TEST(ClassSimilarityFactoryTest, BuildsAllKnownClasses) {
  EXPECT_NE(MakeClassSimilarity("Person"), nullptr);
  EXPECT_NE(MakeClassSimilarity("Article"), nullptr);
  EXPECT_NE(MakeClassSimilarity("Venue"), nullptr);
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
