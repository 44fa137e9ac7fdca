// Parameterized property tests: invariants that must hold for every
// comparator over a broad sweep of inputs, and for the reconciler over
// every configuration; plus one corrupted real result per partition
// invariant, each caught by exactly that check.

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/reconciler.h"
#include "datagen/pim_generator.h"
#include "invariants.h"
#include "sim/evidence.h"
#include "sim/value_store.h"
#include "strsim/edit_distance.h"
#include "strsim/jaro_winkler.h"

namespace recon {
namespace {

// ---- Comparator properties over a diverse string sweep ---------------------

const std::vector<std::string>& SweepStrings() {
  static const auto* strings = new std::vector<std::string>{
      "",
      "a",
      "mike",
      "Mike",
      "Eugene Wong",
      "Wong, E.",
      "Epstein, R.S.",
      "Robert S. Epstein",
      "stonebraker@csail.mit.edu",
      "STONEBRAKER@MIT.EDU",
      "ACM SIGMOD",
      "Proceedings of the International Conference on Very Large Data Bases",
      "169-180",
      "1978",
      "Austin, Texas",
      "Distributed query processing in a relational data base system",
      "   whitespace   padded   ",
      "unicode-free but-weird..punctuation!!",
      "Li Wei",
      "van der Berg, J.",
  };
  return *strings;
}

using StringPair = std::tuple<std::string, std::string>;

class ComparatorPropertyTest : public ::testing::TestWithParam<StringPair> {};

TEST_P(ComparatorPropertyTest, AllComparatorsBoundedAndSymmetric) {
  const auto& [a, b] = GetParam();
  // Each same-attribute field comparator, as its channel and the feature
  // kind its values are analyzed into.
  const std::pair<int, FeatureKind> comparators[] = {
      {kEvPersonName, FeatureKind::kPersonName},
      {kEvPersonEmail, FeatureKind::kEmail},
      {kEvArticleTitle, FeatureKind::kTitle},
      {kEvVenueName, FeatureKind::kVenueName},
      {kEvArticleYear, FeatureKind::kYear},
      {kEvArticlePages, FeatureKind::kPages},
      {kEvVenueLocation, FeatureKind::kLocation},
  };
  for (const auto& [evidence, kind] : comparators) {
    const ValueFeatures fa = AnalyzeValue(a, kind);
    const ValueFeatures fb = AnalyzeValue(b, kind);
    const double ab = FeaturePairSimilarity(evidence, fa, fb);
    const double ba = FeaturePairSimilarity(evidence, fb, fa);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
    EXPECT_DOUBLE_EQ(ab, ba) << "'" << a << "' vs '" << b << "'";
  }
}

TEST_P(ComparatorPropertyTest, LowLevelMeasuresBoundedAndSymmetric) {
  const auto& [a, b] = GetParam();
  for (const double sim : {strsim::EditSimilarity(a, b),
                           strsim::JaroWinklerSimilarity(a, b)}) {
    EXPECT_GE(sim, 0.0);
    EXPECT_LE(sim, 1.0);
  }
  EXPECT_DOUBLE_EQ(strsim::JaroWinklerSimilarity(a, b),
                   strsim::JaroWinklerSimilarity(b, a));
  EXPECT_EQ(strsim::LevenshteinDistance(a, b),
            strsim::LevenshteinDistance(b, a));
}

TEST_P(ComparatorPropertyTest, IdentityGivesMaximalScoreOfItsClass) {
  const auto& [a, b] = GetParam();
  (void)b;
  // Self-similarity must be at least as high as similarity to anything
  // else for the generic string measures.
  const double self = strsim::EditSimilarity(a, a);
  EXPECT_DOUBLE_EQ(self, 1.0);
  EXPECT_DOUBLE_EQ(strsim::JaroWinklerSimilarity(a, a), a.empty() ? 1.0 : 1.0);
}

std::vector<StringPair> AllSweepPairs() {
  std::vector<StringPair> pairs;
  const auto& strings = SweepStrings();
  for (size_t i = 0; i < strings.size(); ++i) {
    for (size_t j = i; j < strings.size(); ++j) {
      pairs.emplace_back(strings[i], strings[j]);
    }
  }
  return pairs;
}

INSTANTIATE_TEST_SUITE_P(StringSweep, ComparatorPropertyTest,
                         ::testing::ValuesIn(AllSweepPairs()));

// ---- Reconciler invariants over every configuration -------------------------

struct ConfigCase {
  EvidenceLevel level;
  bool propagation;
  bool enrichment;
  bool constraints;
};

class ReconcilerConfigTest : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(ReconcilerConfigTest, InvariantsHoldForEveryConfiguration) {
  const ConfigCase& c = GetParam();
  datagen::PimConfig config = datagen::PimConfigA();
  config = datagen::ScaleConfig(config, 0.02);
  config.seed = 404;
  const Dataset data = datagen::GeneratePim(config);

  ReconcilerOptions options;
  options.evidence_level = c.level;
  options.propagation = c.propagation;
  options.enrichment = c.enrichment;
  options.constraints = c.constraints;
  const Reconciler reconciler(options);
  const ReconcileResult result = reconciler.Run(data);

  EXPECT_EQ(std::vector<std::string>{},
            invariants::CheckPartition(data, options, result));
  // Determinism.
  const ReconcileResult again = reconciler.Run(data);
  EXPECT_EQ(result.cluster, again.cluster);
}

std::vector<ConfigCase> AllConfigs() {
  std::vector<ConfigCase> configs;
  for (const EvidenceLevel level :
       {EvidenceLevel::kAttrWise, EvidenceLevel::kNameEmail,
        EvidenceLevel::kArticle, EvidenceLevel::kContact}) {
    for (const bool propagation : {false, true}) {
      for (const bool enrichment : {false, true}) {
        for (const bool constraints : {false, true}) {
          configs.push_back({level, propagation, enrichment, constraints});
        }
      }
    }
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(AllModes, ReconcilerConfigTest,
                         ::testing::ValuesIn(AllConfigs()));

// ---- The partition invariants catch each kind of corruption -------------

class InvariantsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::PimConfig config = datagen::PimConfigA();
    config = datagen::ScaleConfig(config, 0.02);
    config.seed = 404;
    data_ = new Dataset(datagen::GeneratePim(config));
    result_ = new ReconcileResult(Reconciler(ReconcilerOptions()).Run(*data_));
  }

  static void TearDownTestSuite() {
    delete data_;
    delete result_;
    data_ = nullptr;
    result_ = nullptr;
  }

  /// Names of the checks the violations break.
  static std::set<std::string> Broken(const ReconcileResult& result,
                                      const ReconcilerOptions& options = {}) {
    std::set<std::string> checks;
    for (const std::string& v :
         invariants::CheckPartition(*data_, options, result)) {
      checks.insert(v.substr(0, v.find(':')));
    }
    return checks;
  }

  /// First reference of `class_id` for which `pick` holds.
  template <typename Pick>
  static RefId Find(int class_id, Pick pick) {
    for (RefId id = 0; id < data_->num_references(); ++id) {
      if (data_->reference(id).class_id() == class_id && pick(id)) return id;
    }
    ADD_FAILURE() << "no reference of class " << class_id << " qualifies";
    return 0;
  }

  /// Merges the clusters of `a` and `b` the way a merge would: canonical
  /// label, and the pair recorded as merged.
  static void MergeClusters(ReconcileResult* result, RefId a, RefId b) {
    const int keep = std::min(result->cluster[a], result->cluster[b]);
    const int gone = std::max(result->cluster[a], result->cluster[b]);
    for (int& label : result->cluster) {
      if (label == gone) label = keep;
    }
    result->merged_pairs.emplace_back(a, b);
  }

  static SchemaBinding Binding() {
    return SchemaBinding::Resolve(data_->schema());
  }

  static Dataset* data_;
  static ReconcileResult* result_;
};

Dataset* InvariantsTest::data_ = nullptr;
ReconcileResult* InvariantsTest::result_ = nullptr;

TEST_F(InvariantsTest, LabelNotSmallestMemberBreaksCanonical) {
  ReconcileResult bad = *result_;
  // Relabel a multi-member cluster by its largest member.
  const RefId member = Find(Binding().person, [&](RefId id) {
    return bad.cluster[id] != static_cast<int>(id);
  });
  const int label = bad.cluster[member];
  int largest = label;
  for (RefId id = 0; id < data_->num_references(); ++id) {
    if (bad.cluster[id] == label) largest = id;
  }
  for (int& l : bad.cluster) {
    if (l == label) l = largest;
  }
  EXPECT_EQ(std::set<std::string>{invariants::kCanonical}, Broken(bad));
}

TEST_F(InvariantsTest, PersonMergedWithArticleBreaksMixedClass) {
  ReconcileResult bad = *result_;
  const RefId person = Find(Binding().person, [](RefId) { return true; });
  const RefId article = Find(Binding().article, [](RefId) { return true; });
  MergeClusters(&bad, person, article);
  EXPECT_EQ(std::set<std::string>{invariants::kMixedClass}, Broken(bad));
}

TEST_F(InvariantsTest, UnappliedMergedPairBreaksClosure) {
  ReconcileResult bad = *result_;
  const RefId a = Find(Binding().person, [](RefId) { return true; });
  const RefId b = Find(Binding().person, [&](RefId id) {
    return bad.cluster[id] != bad.cluster[a];
  });
  bad.merged_pairs.emplace_back(a, b);
  EXPECT_EQ(std::set<std::string>{invariants::kClosure}, Broken(bad));
}

TEST_F(InvariantsTest, MergedCoAuthorsBreakCoAuthor) {
  ReconcileResult bad = *result_;
  const SchemaBinding binding = Binding();
  const RefId article = Find(binding.article, [&](RefId id) {
    return data_->reference(id).associations(binding.article_authors).size() >=
           2;
  });
  const auto& authors =
      data_->reference(article).associations(binding.article_authors);
  MergeClusters(&bad, authors[0], authors[1]);
  EXPECT_EQ(std::set<std::string>{invariants::kCoAuthor}, Broken(bad));
  // Without constraints, co-authors may share a cluster.
  ReconcilerOptions unconstrained;
  unconstrained.constraints = false;
  EXPECT_EQ(std::set<std::string>{}, Broken(bad, unconstrained));
}

TEST_F(InvariantsTest, HoldWithDistinctFeedback) {
  // A pair the plain run merged, declared distinct: the run keeps it apart.
  ASSERT_FALSE(result_->merged_pairs.empty());
  ReconcilerOptions options;
  options.feedback.distinct.push_back(result_->merged_pairs.front());
  const ReconcileResult result = Reconciler(options).Run(*data_);
  const auto [a, b] = options.feedback.distinct.front();
  EXPECT_NE(result.cluster[a], result.cluster[b]);
  EXPECT_EQ(std::set<std::string>{}, Broken(result, options));
}

TEST_F(InvariantsTest, MergedDistinctFeedbackPairBreaksDistinct) {
  ReconcilerOptions options;
  options.feedback.distinct.push_back(result_->merged_pairs.front());
  ReconcileResult bad = Reconciler(options).Run(*data_);
  const auto [a, b] = options.feedback.distinct.front();
  MergeClusters(&bad, a, b);
  EXPECT_EQ(std::set<std::string>{invariants::kDistinct},
            Broken(bad, options));
}

}  // namespace
}  // namespace recon
