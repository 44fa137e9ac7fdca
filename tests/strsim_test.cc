#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "strsim/edit_distance.h"
#include "strsim/email.h"
#include "strsim/jaro_winkler.h"
#include "strsim/person_name.h"
#include "strsim/title.h"
#include "strsim/tokens.h"
#include "strsim/venue.h"

namespace recon::strsim {
namespace {

// ---- Edit distance ----------------------------------------------------------

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(LevenshteinDistance("", ""), 0);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3);
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0);
}

TEST(EditDistanceTest, Symmetric) {
  EXPECT_EQ(LevenshteinDistance("stonebraker", "stonebaker"),
            LevenshteinDistance("stonebaker", "stonebraker"));
}

TEST(EditDistanceTest, SimilarityRange) {
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "xyz"), 0.0);
  const double sim = EditSimilarity("stonebraker", "stonebaker");
  EXPECT_GT(sim, 0.85);
  EXPECT_LT(sim, 1.0);
}

// ---- Jaro-Winkler -----------------------------------------------------------

TEST(JaroWinklerTest, Extremes) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("same", "same"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
}

TEST(JaroWinklerTest, ClassicValues) {
  // Canonical record-linkage test pairs (Winkler's own examples).
  EXPECT_NEAR(JaroSimilarity("MARTHA", "MARHTA"), 0.944, 0.001);
  EXPECT_NEAR(JaroSimilarity("DWAYNE", "DUANE"), 0.822, 0.001);
  EXPECT_NEAR(JaroWinklerSimilarity("MARTHA", "MARHTA"), 0.961, 0.001);
}

TEST(JaroWinklerTest, PrefixBoostsButBounded) {
  const double jaro = JaroSimilarity("prefixes", "prefixed");
  const double jw = JaroWinklerSimilarity("prefixes", "prefixed");
  EXPECT_GT(jw, jaro);
  EXPECT_LE(jw, 1.0);
}

TEST(JaroWinklerTest, SymmetricProperty) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"stonebraker", "stonebaker"},
      {"halevy", "halvey"},
      {"wong", "wang"},
  };
  for (const auto& [a, b] : pairs) {
    EXPECT_DOUBLE_EQ(JaroWinklerSimilarity(a, b), JaroWinklerSimilarity(b, a));
  }
}

// ---- Token measures ----------------------------------------------------------

TEST(TokensTest, JaccardDiceOverlap) {
  const std::vector<std::string> a = {"data", "base", "systems"};
  const std::vector<std::string> b = {"data", "base", "management"};
  EXPECT_DOUBLE_EQ(JaccardSimilarity(a, b), 0.5);
  EXPECT_DOUBLE_EQ(DiceSimilarity(a, b), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient(a, b), 2.0 / 3.0);
}

TEST(TokensTest, EmptyBehaviour) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a"}, {}), 0.0);
  EXPECT_DOUBLE_EQ(DiceSimilarity({}, {}), 1.0);
}

TEST(TokensTest, DuplicatesCollapse) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a", "a", "b"}, {"a", "b", "b"}), 1.0);
}

TEST(TokensTest, MongeElkanForgivesTokenNoise) {
  const std::vector<std::string> a = {"query", "optimization"};
  const std::vector<std::string> b = {"qeury", "optimizaton"};
  EXPECT_GT(SymmetricMongeElkan(a, b), 0.85);
}

TEST(TokensTest, MongeElkanAveragesBothDirections) {
  // Each direction averages, over its own tokens, the best Jaro-Winkler
  // match on the other side; the symmetric score is their mean.
  const std::vector<std::string> a = {"data", "base"};
  const std::vector<std::string> b = {"data"};
  const double a_to_b = 0.5 * (1.0 + JaroWinklerSimilarity("base", "data"));
  EXPECT_DOUBLE_EQ(SymmetricMongeElkan(a, b), 0.5 * (a_to_b + 1.0));
  EXPECT_DOUBLE_EQ(SymmetricMongeElkan(a, b), SymmetricMongeElkan(b, a));
  EXPECT_DOUBLE_EQ(SymmetricMongeElkan(a, a), 1.0);
  EXPECT_DOUBLE_EQ(SymmetricMongeElkan({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(SymmetricMongeElkan(a, {}), 0.0);
}

// ---- Person names ---------------------------------------------------------------

TEST(PersonNameTest, ParseFirstLast) {
  const PersonName name = ParsePersonName("Michael Stonebraker");
  EXPECT_EQ(name.last, "stonebraker");
  ASSERT_EQ(name.given.size(), 1u);
  EXPECT_EQ(name.given[0].text, "michael");
  EXPECT_FALSE(name.given[0].is_initial);
  EXPECT_TRUE(name.IsFullName());
}

TEST(PersonNameTest, ParseFirstMiddleLast) {
  const PersonName name = ParsePersonName("Robert S. Epstein");
  EXPECT_EQ(name.last, "epstein");
  ASSERT_EQ(name.given.size(), 2u);
  EXPECT_EQ(name.given[0].text, "robert");
  EXPECT_FALSE(name.given[0].is_initial);
  EXPECT_EQ(name.given[1].text, "s");
  EXPECT_TRUE(name.given[1].is_initial);
}

TEST(PersonNameTest, ParseLastCommaPackedInitials) {
  const PersonName name = ParsePersonName("Epstein, R.S.");
  EXPECT_EQ(name.last, "epstein");
  ASSERT_EQ(name.given.size(), 2u);
  EXPECT_EQ(name.given[0].text, "r");
  EXPECT_TRUE(name.given[0].is_initial);
  EXPECT_EQ(name.given[1].text, "s");
  EXPECT_TRUE(name.given[1].is_initial);
  EXPECT_FALSE(name.IsFullName());
}

TEST(PersonNameTest, ParseLastCommaFirst) {
  const PersonName name = ParsePersonName("Stonebraker, Michael");
  EXPECT_EQ(name.last, "stonebraker");
  ASSERT_EQ(name.given.size(), 1u);
  EXPECT_EQ(name.given[0].text, "michael");
  EXPECT_TRUE(name.IsFullName());
}

TEST(PersonNameTest, ParseSingleToken) {
  const PersonName name = ParsePersonName("mike");
  EXPECT_TRUE(name.single_token);
  EXPECT_TRUE(name.last.empty());
  ASSERT_EQ(name.given.size(), 1u);
  EXPECT_EQ(name.given[0].text, "mike");
}

TEST(PersonNameTest, ParseEmptyAndWhitespace) {
  EXPECT_TRUE(ParsePersonName("").given.empty());
  EXPECT_TRUE(ParsePersonName("   ").given.empty());
}

TEST(PersonNameTest, NicknameCanonicalization) {
  EXPECT_EQ(CanonicalGivenName("Mike"), "michael");
  EXPECT_EQ(CanonicalGivenName("bob"), "robert");
  EXPECT_EQ(CanonicalGivenName("zygmunt"), "zygmunt");  // No mapping.
}

TEST(PersonNameSimilarityTest, IdenticalFullNames) {
  EXPECT_DOUBLE_EQ(PersonNameSimilarity("Eugene Wong", "Eugene Wong"), 1.0);
}

TEST(PersonNameSimilarityTest, AbbreviationMatchesStrongly) {
  const double sim = PersonNameSimilarity("Robert S. Epstein", "Epstein, R.S.");
  EXPECT_GT(sim, 0.9);
}

TEST(PersonNameSimilarityTest, NicknameMatchesFullName) {
  const double sim = PersonNameSimilarity("mike", "Michael Stonebraker");
  EXPECT_GT(sim, 0.7);
}

TEST(PersonNameSimilarityTest, DifferentPersonsScoreLow) {
  EXPECT_LT(PersonNameSimilarity("Eugene Wong", "Robert Epstein"), 0.6);
  EXPECT_LT(PersonNameSimilarity("Alice Smith", "Mary Jones"), 0.6);
}

TEST(PersonNameSimilarityTest, SymmetricProperty) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"Robert S. Epstein", "Epstein, R.S."},
      {"mike", "Michael Stonebraker"},
      {"Wong, E.", "Eugene Wong"},
  };
  for (const auto& [a, b] : pairs) {
    EXPECT_DOUBLE_EQ(PersonNameSimilarity(a, b), PersonNameSimilarity(b, a))
        << a << " vs " << b;
  }
}

TEST(PersonNameSimilarityTest, BoundedInUnitInterval) {
  const std::vector<std::string> names = {
      "Eugene Wong", "Wong, E.", "mike", "", "Robert S. Epstein",
      "Stonebraker, M.", "X", "Li Wei", "van der Berg, J.",
  };
  for (const auto& a : names) {
    for (const auto& b : names) {
      const double sim = PersonNameSimilarity(a, b);
      EXPECT_GE(sim, 0.0) << a << " / " << b;
      EXPECT_LE(sim, 1.0) << a << " / " << b;
    }
  }
}

TEST(PersonNameConstraintTest, ContradictionSameFirstDifferentLast) {
  EXPECT_TRUE(NamesContradict(ParsePersonName("Mary Smith"),
                              ParsePersonName("Mary Jones")));
  EXPECT_TRUE(NamesContradict(ParsePersonName("Matt Stonebraker"),
                              ParsePersonName("Matt Wong")));
}

TEST(PersonNameConstraintTest, ContradictionSameLastDifferentFirst) {
  EXPECT_TRUE(NamesContradict(ParsePersonName("Matt Stonebraker"),
                              ParsePersonName("Michael Stonebraker")));
}

TEST(PersonNameConstraintTest, NoContradictionForAbbreviations) {
  EXPECT_FALSE(NamesContradict(ParsePersonName("Stonebraker, M."),
                               ParsePersonName("Michael Stonebraker")));
  EXPECT_FALSE(NamesContradict(ParsePersonName("mike"),
                               ParsePersonName("Michael Stonebraker")));
}

TEST(PersonNameConstraintTest, NicknamesDoNotContradict) {
  EXPECT_FALSE(NamesContradict(ParsePersonName("Mike Stonebraker"),
                               ParsePersonName("Michael Stonebraker")));
}

TEST(PersonNameConstraintTest, Compatibility) {
  EXPECT_TRUE(NamesCompatible(ParsePersonName("Eugene Wong"),
                              ParsePersonName("Wong, E.")));
  EXPECT_FALSE(NamesCompatible(ParsePersonName("Eugene Wong"),
                               ParsePersonName("Eugene Epstein")));
  EXPECT_FALSE(NamesCompatible(ParsePersonName("Robert Epstein"),
                               ParsePersonName("Susan Epstein")));
}

// ---- Email -------------------------------------------------------------------

TEST(EmailTest, Parse) {
  const EmailAddress email = ParseEmail("Stonebraker@CSAIL.MIT.EDU");
  EXPECT_EQ(email.account, "stonebraker");
  EXPECT_EQ(email.server, "csail.mit.edu");
  EXPECT_EQ(ParseEmail("noserver").account, "noserver");
  EXPECT_TRUE(ParseEmail("noserver").server.empty());
}

TEST(EmailSimilarityTest, ExactMatchIsOne) {
  EXPECT_DOUBLE_EQ(
      EmailSimilarity("a@b.edu", "A@B.EDU"), 1.0);
}

TEST(EmailSimilarityTest, SameAccountDifferentServerScoresHigh) {
  const double sim =
      EmailSimilarity("stonebraker@csail.mit.edu", "stonebraker@mit.edu");
  EXPECT_GE(sim, 0.9);
  EXPECT_LT(sim, 1.0);
}

TEST(EmailSimilarityTest, DifferentAccountsSameServerScoreLow) {
  EXPECT_LT(EmailSimilarity("wong@mit.edu", "epstein@mit.edu"), 0.5);
}

TEST(NameEmailSimilarityTest, LastNameAccount) {
  EXPECT_GE(NameEmailSimilarity("Stonebraker, M.",
                                "stonebraker@csail.mit.edu"),
            0.8);
}

TEST(NameEmailSimilarityTest, PatternAccounts) {
  EXPECT_GE(NameEmailSimilarity("Robert Epstein", "repstein@cs.wisc.edu"),
            0.85);
  EXPECT_GE(NameEmailSimilarity("Robert Epstein",
                                "robert.epstein@cs.wisc.edu"),
            0.9);
}

TEST(NameEmailSimilarityTest, NicknameAccount) {
  EXPECT_GE(NameEmailSimilarity("Michael Stonebraker", "mike@mit.edu"), 0.6);
}

TEST(NameEmailSimilarityTest, UnrelatedScoresZero) {
  EXPECT_LT(NameEmailSimilarity("Eugene Wong", "epstein@mit.edu"), 0.3);
}

// ---- Venue -------------------------------------------------------------------

TEST(VenueTest, AcronymGeneration) {
  EXPECT_EQ(VenueAcronym("Very Large Data Bases"), "vldb");
  EXPECT_EQ(VenueAcronym("Proceedings of the Conference on Management of "
                         "Data"),
            "md");  // Generic venue words removed.
}

TEST(VenueTest, AcronymExpansionMatches) {
  EXPECT_GE(VenueNameSimilarity("VLDB",
                                "International Conference on Very Large "
                                "Data Bases"),
            0.9);
  EXPECT_GE(VenueNameSimilarity("SIGMOD",
                                "ACM Conference on Management of Data"),
            0.5);
}

TEST(VenueTest, SameStringIsOne) {
  EXPECT_DOUBLE_EQ(VenueNameSimilarity("ACM SIGMOD", "ACM SIGMOD"), 1.0);
}

TEST(VenueTest, ProceedingsPrefixIgnored) {
  EXPECT_GE(VenueNameSimilarity(
                "Proceedings of the International Conference on Very Large "
                "Data Bases",
                "Very Large Data Bases"),
            0.85);
}

TEST(VenueTest, UnrelatedVenuesScoreLow) {
  EXPECT_LT(VenueNameSimilarity("SIGMOD", "SOSP"), 0.4);
}

TEST(VenueTest, YearSimilarity) {
  EXPECT_DOUBLE_EQ(YearSimilarity("1978", "1978"), 1.0);
  EXPECT_DOUBLE_EQ(YearSimilarity("1978", "1979"), 0.5);
  EXPECT_DOUBLE_EQ(YearSimilarity("1978", "1985"), 0.0);
  EXPECT_DOUBLE_EQ(YearSimilarity("", "1978"), 0.0);
}

TEST(VenueTest, LocationSimilarity) {
  EXPECT_GE(LocationSimilarity("Austin, Texas", "Austin TX"), 0.5);
  EXPECT_DOUBLE_EQ(LocationSimilarity("Austin, Texas", "Austin, Texas"), 1.0);
}

// ---- Title / pages -------------------------------------------------------------

TEST(TitleTest, Normalization) {
  EXPECT_EQ(NormalizeTitle("  Distributed Query-Processing! "),
            "distributed query processing");
}

TEST(TitleTest, CaseAndPunctInsensitive) {
  EXPECT_DOUBLE_EQ(
      TitleSimilarity("Distributed Query Processing",
                      "distributed query processing."),
      1.0);
}

TEST(TitleTest, TypoTolerant) {
  EXPECT_GT(TitleSimilarity("Distributed query processing in a relational "
                            "data base system",
                            "Distributed query procesing in a relational "
                            "data base system"),
            0.9);
}

TEST(TitleTest, DifferentTitlesScoreLow) {
  EXPECT_LT(TitleSimilarity("Distributed query processing",
                            "Epidemic gossip protocols"),
            0.3);
}

TEST(PagesTest, ParseAndCompare) {
  const auto range = ParsePages("pp. 169--180");
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->first, 169);
  EXPECT_EQ(range->last, 180);

  EXPECT_DOUBLE_EQ(PagesSimilarity("169-180", "169--180"), 1.0);
  EXPECT_DOUBLE_EQ(PagesSimilarity("169-180", "169-185"), 0.8);
  EXPECT_DOUBLE_EQ(PagesSimilarity("169-180", "175-190"), 0.5);
  EXPECT_DOUBLE_EQ(PagesSimilarity("169-180", "200-210"), 0.0);
  EXPECT_FALSE(ParsePages("n/a").has_value());
}

}  // namespace
}  // namespace recon::strsim
