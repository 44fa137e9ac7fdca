#include <gtest/gtest.h>

#include "baseline/fellegi_sunter.h"
#include "core/reconciler.h"
#include "datagen/pim_generator.h"
#include "eval/metrics.h"

namespace recon {
namespace {

class FellegiSunterTest : public ::testing::Test {
 protected:
  FellegiSunterTest() : data_(BuildPimSchema()) {
    person_ = data_.schema().RequireClass("Person");
    name_ = data_.schema().RequireAttribute(person_, "name");
    email_ = data_.schema().RequireAttribute(person_, "email");
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

  Dataset data_;
  int person_, name_, email_;
};

TEST_F(FellegiSunterTest, LinksCleanDuplicates) {
  // Clear structure: duplicated persons agree on both fields; distinct
  // pairs disagree. EM must separate the two populations. First names are
  // genuinely distinct (not within typo distance of each other).
  const char* firsts[] = {"Amelia",  "Bernard", "Carlotta", "Demetrius",
                          "Evelyn",  "Fernando", "Gwendolyn", "Humberto",
                          "Isadora", "Jonathan", "Katarina", "Leopold"};
  for (int e = 0; e < 12; ++e) {
    const std::string name = std::string(firsts[e]) + " Sample";
    const std::string email =
        std::string(firsts[e]) + ".sample@x.edu";
    for (int copy = 0; copy < 3; ++copy) Person(e, name, email);
  }
  const FellegiSunter linker;
  const ReconcileResult result = linker.Run(data_);
  const PairMetrics m = EvaluateClass(data_, result.cluster, person_);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
}

TEST_F(FellegiSunterTest, EmLearnsAgreementWeights) {
  const char* firsts[] = {"Amelia",  "Bernard", "Carlotta", "Demetrius",
                          "Evelyn",  "Fernando", "Gwendolyn", "Humberto",
                          "Isadora", "Jonathan"};
  for (int e = 0; e < 10; ++e) {
    const std::string name = std::string(firsts[e]) + " Unique";
    for (int copy = 0; copy < 3; ++copy) {
      Person(e, name, std::string(firsts[e]) + "@x.edu");
    }
  }
  const FellegiSunter linker;
  const FellegiSunterModel model = linker.FitClass(data_, person_);
  ASSERT_EQ(model.m_probabilities.size(), 2u);  // name, email.
  EXPECT_GT(model.iterations, 0);
  // Among matches, "agree" must dominate; among non-matches, it must not.
  EXPECT_GT(model.m_probabilities[0][2], 0.5);
  EXPECT_LT(model.u_probabilities[0][2], model.m_probabilities[0][2]);
  EXPECT_GT(model.match_prior, 0.0);
  EXPECT_LE(model.match_prior, 0.5);
}

TEST_F(FellegiSunterTest, DeterministicAcrossRuns) {
  for (int e = 0; e < 8; ++e) {
    const char* firsts[] = {"Amelia", "Bernard", "Carlotta", "Demetrius",
                            "Evelyn", "Fernando", "Gwendolyn", "Humberto"};
    Person(e, std::string(firsts[e]) + " Body",
           std::string(firsts[e]) + "b@x.edu");
    Person(e, std::string(firsts[e]) + " Body");
  }
  const FellegiSunter linker;
  EXPECT_EQ(linker.Run(data_).cluster, linker.Run(data_).cluster);
}

TEST_F(FellegiSunterTest, EmptyAndDegenerateInputs) {
  const FellegiSunter linker;
  EXPECT_TRUE(linker.Run(data_).cluster.empty());
  Person(0, "Lonely Soul");
  const ReconcileResult result = linker.Run(data_);
  EXPECT_EQ(result.cluster[0], 0);
}

TEST(FellegiSunterComparisonTest, LandsBetweenNothingAndDepGraph) {
  // On generated personal data the unsupervised linker must beat the
  // trivial all-singletons answer and is expected to trail DepGraph.
  datagen::PimConfig config = datagen::PimConfigA();
  config = datagen::ScaleConfig(config, 0.03);
  const Dataset data = datagen::GeneratePim(config);
  const int person = data.schema().RequireClass("Person");

  const FellegiSunter fs;
  const PairMetrics m_fs = EvaluateClass(data, fs.Run(data).cluster, person);
  const Reconciler dep(ReconcilerOptions::DepGraph());
  const PairMetrics m_dep =
      EvaluateClass(data, dep.Run(data).cluster, person);

  EXPECT_GT(m_fs.recall, 0.3);
  EXPECT_GT(m_fs.precision, 0.8);
  EXPECT_GE(m_dep.f1, m_fs.f1);
}

}  // namespace
}  // namespace recon
