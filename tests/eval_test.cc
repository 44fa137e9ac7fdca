#include <gtest/gtest.h>

#include <sstream>

#include "core/reconciler.h"
#include "datagen/pim_generator.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "model/dataset.h"

namespace recon {
namespace {

/// Dataset with 6 persons: gold entities {0,0,0}, {1,1}, {2}.
Dataset SixPersons() {
  Dataset data(BuildPimSchema());
  const int person = data.schema().RequireClass("Person");
  for (const int gold : {0, 0, 0, 1, 1, 2}) {
    data.NewReference(person, gold);
  }
  return data;
}

TEST(MetricsTest, PerfectClustering) {
  const Dataset data = SixPersons();
  const std::vector<int> cluster = {0, 0, 0, 3, 3, 5};
  const PairMetrics m = EvaluateClass(data, cluster, 0);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
  EXPECT_EQ(m.true_pairs, 4);  // C(3,2) + C(2,2) = 3 + 1.
  EXPECT_EQ(m.predicted_pairs, 4);
  EXPECT_EQ(m.num_partitions, 3);
  EXPECT_EQ(m.num_entities, 3);
}

TEST(MetricsTest, UnderMerging) {
  const Dataset data = SixPersons();
  // Entity 0 split into {0,1} and {2}: lose 2 of 3 pairs.
  const std::vector<int> cluster = {0, 0, 2, 3, 3, 5};
  const PairMetrics m = EvaluateClass(data, cluster, 0);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 0.5);  // 2 of 4 true pairs.
  EXPECT_EQ(m.num_partitions, 4);
}

TEST(MetricsTest, OverMerging) {
  const Dataset data = SixPersons();
  // Everything into one cluster: all true pairs found, many wrong pairs.
  const std::vector<int> cluster = {0, 0, 0, 0, 0, 0};
  const PairMetrics m = EvaluateClass(data, cluster, 0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.precision, 4.0 / 15.0);
  EXPECT_EQ(m.num_partitions, 1);
}

TEST(MetricsTest, SingletonsOnlyIsVacuouslyPerfectPrecision) {
  const Dataset data = SixPersons();
  const std::vector<int> cluster = {0, 1, 2, 3, 4, 5};
  const PairMetrics m = EvaluateClass(data, cluster, 0);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.f1, 0.0);
}

TEST(MetricsTest, IgnoresOtherClassesAndUnlabeled) {
  Dataset data(BuildPimSchema());
  const int person = data.schema().RequireClass("Person");
  const int article = data.schema().RequireClass("Article");
  data.NewReference(person, 0);
  data.NewReference(person, 0);
  data.NewReference(article, 7);
  data.NewReference(person, -1);  // Unlabeled.
  const std::vector<int> cluster = {0, 0, 0, 0};  // Glues everything.
  const PairMetrics m = EvaluateClass(data, cluster, person);
  EXPECT_EQ(m.true_pairs, 1);
  EXPECT_EQ(m.predicted_pairs, 1);  // Article and unlabeled excluded.
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
}

TEST(MetricsTest, FMeasureDefinition) {
  EXPECT_DOUBLE_EQ(FMeasure(1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(FMeasure(0.0, 0.0), 0.0);
  EXPECT_NEAR(FMeasure(0.5, 1.0), 2.0 / 3.0, 1e-12);
}

TEST(MetricsTest, AverageMetrics) {
  PairMetrics a;
  a.precision = 1.0;
  a.recall = 0.5;
  PairMetrics b;
  b.precision = 0.5;
  b.recall = 1.0;
  const PairMetrics avg = AverageMetrics({a, b});
  EXPECT_DOUBLE_EQ(avg.precision, 0.75);
  EXPECT_DOUBLE_EQ(avg.recall, 0.75);
  EXPECT_DOUBLE_EQ(avg.f1, 0.75);
}

TEST(MetricsTest, EntitiesWithFalsePositives) {
  const Dataset data = SixPersons();
  // Cluster {ref2 (entity 0), ref3 (entity 1)} mixes entities 0 and 1.
  const std::vector<int> cluster = {0, 0, 2, 2, 4, 5};
  EXPECT_EQ(EntitiesWithFalsePositives(data, cluster, 0), 2);
  const std::vector<int> clean = {0, 0, 0, 3, 3, 5};
  EXPECT_EQ(EntitiesWithFalsePositives(data, clean, 0), 0);
}

TEST(BCubedTest, PerfectClusteringScoresOne) {
  const Dataset data = SixPersons();
  const std::vector<int> cluster = {0, 0, 0, 3, 3, 5};
  const BCubedMetrics m = EvaluateBCubed(data, cluster, 0);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
}

TEST(BCubedTest, SplitEntityLosesRecallOnly) {
  const Dataset data = SixPersons();
  const std::vector<int> cluster = {0, 0, 2, 3, 3, 5};  // Entity 0 split.
  const BCubedMetrics m = EvaluateBCubed(data, cluster, 0);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  // refs 0,1: recall 2/3 each; ref 2: 1/3; refs 3,4,5: 1.
  EXPECT_NEAR(m.recall, (2.0 / 3 + 2.0 / 3 + 1.0 / 3 + 3) / 6, 1e-12);
}

TEST(BCubedTest, GluedClusterLosesPrecisionOnly) {
  const Dataset data = SixPersons();
  const std::vector<int> cluster = {0, 0, 0, 0, 0, 5};  // Glue 0 and 1.
  const BCubedMetrics m = EvaluateBCubed(data, cluster, 0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  // refs 0-2: precision 3/5; refs 3,4: 2/5; ref 5: 1.
  EXPECT_NEAR(m.precision, (3 * 0.6 + 2 * 0.4 + 1) / 6, 1e-12);
}

TEST(BCubedTest, LessDominatedByLargeEntitiesThanPairwise) {
  // One 20-ref entity split in half + 10 perfect singletons: pairwise
  // recall craters, B-cubed recall degrades gracefully.
  Dataset data(BuildPimSchema());
  const int person = data.schema().RequireClass("Person");
  std::vector<int> cluster;
  for (int i = 0; i < 20; ++i) {
    data.NewReference(person, 0);
    cluster.push_back(i < 10 ? 0 : 10);
  }
  for (int i = 0; i < 10; ++i) {
    data.NewReference(person, 1 + i);
    cluster.push_back(20 + i);
  }
  const PairMetrics pair = EvaluateClass(data, cluster, person);
  const BCubedMetrics bcubed = EvaluateBCubed(data, cluster, person);
  EXPECT_LT(pair.recall, bcubed.recall);
}

TEST(MetricsTest, PairMetricsPinnedOnSmallPim) {
  // Every PairMetrics field of a DepGraph run on PIM A 0.05x, per class.
  // The doubles are exact: each is a ratio of the pinned pair counts.
  datagen::PimConfig config = datagen::PimConfigA();
  config = datagen::ScaleConfig(config, 0.05);
  const Dataset dataset = datagen::GeneratePim(config);
  const ReconcileResult result =
      Reconciler(ReconcilerOptions::DepGraph()).Run(dataset);
  struct Pin {
    const char* class_name;
    double precision;
    double recall;
    double f1;
    int64_t true_pairs;
    int64_t predicted_pairs;
    int64_t correct_pairs;
    int num_partitions;
    int num_entities;
  };
  const Pin pins[] = {
      {"Person", 0.99854862119013066, 0.94324102001645183, 0.9701071630005641,
       14588, 13780, 13760, 160, 110},
      {"Article", 1.0, 1.0, 1.0, 139, 139, 139, 31, 31},
      {"Venue", 1.0, 0.47916666666666669, 0.647887323943662, 768, 368, 368,
       19, 6},
  };
  ASSERT_EQ(dataset.schema().num_classes(), 3);
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.class_name);
    const PairMetrics m = EvaluateClass(
        dataset, result.cluster, dataset.schema().RequireClass(pin.class_name));
    EXPECT_EQ(m.precision, pin.precision);
    EXPECT_EQ(m.recall, pin.recall);
    EXPECT_EQ(m.f1, pin.f1);
    EXPECT_EQ(m.true_pairs, pin.true_pairs);
    EXPECT_EQ(m.predicted_pairs, pin.predicted_pairs);
    EXPECT_EQ(m.correct_pairs, pin.correct_pairs);
    EXPECT_EQ(m.num_partitions, pin.num_partitions);
    EXPECT_EQ(m.num_entities, pin.num_entities);
  }
}

TEST(ReportTest, TablePrinterAligns) {
  TablePrinter table({"A", "Bee"});
  table.AddRow({"xx", "y"});
  table.AddRow({"1"});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| A  | Bee |"), std::string::npos);
  EXPECT_NE(out.find("| xx | y   |"), std::string::npos);
  EXPECT_NE(out.find("| 1  |     |"), std::string::npos);
}

TEST(ReportTest, Formatters) {
  EXPECT_EQ(TablePrinter::PrecRecall(0.9666, 0.926), "0.967/0.926");
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
}

}  // namespace
}  // namespace recon
