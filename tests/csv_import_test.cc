#include <gtest/gtest.h>

#include "core/reconciler.h"
#include "extract/csv_import.h"
#include "model/dataset.h"

namespace recon::extract {
namespace {

// ---- Raw CSV parsing ----------------------------------------------------------

TEST(CsvParseTest, SimpleRows) {
  const auto rows = ParseCsv("a,b,c\n1,2,3\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(CsvParseTest, QuotedFieldsWithCommasAndQuotes) {
  const auto rows = ParseCsv(R"("Wong, E.",ew@b.edu,"say ""hi""")" "\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "Wong, E.");
  EXPECT_EQ(rows[0][2], "say \"hi\"");
}

TEST(CsvParseTest, QuotedNewlines) {
  const auto rows = ParseCsv("\"line1\nline2\",x\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "line1\nline2");
}

TEST(CsvParseTest, CrlfAndEmptyFields) {
  const auto rows = ParseCsv("a,,c\r\n,,\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "");
  EXPECT_EQ(rows[1].size(), 3u);
}

TEST(CsvParseTest, AlternateDelimiter) {
  const auto rows = ParseCsv("a|b|c\n", '|');
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].size(), 3u);
}

TEST(CsvParseTest, NoTrailingNewline) {
  const auto rows = ParseCsv("a,b");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
}

// ---- Import -------------------------------------------------------------------

class CsvImportTest : public ::testing::Test {
 protected:
  CsvImportTest() : data_(BuildPimSchema()) {
    person_ = data_.schema().RequireClass("Person");
    name_ = data_.schema().RequireAttribute(person_, "name");
    email_ = data_.schema().RequireAttribute(person_, "email");
  }

  Dataset data_;
  int person_, name_, email_;
};

TEST_F(CsvImportTest, ImportsRowsWithGold) {
  CsvImportSpec spec;
  spec.class_id = person_;
  spec.column_to_attribute = {name_, email_, -1};
  spec.gold_column = 2;
  const auto result = ImportCsv(
      "name,email,id\n"
      "\"Wong, E.\",ew@b.edu,7\n"
      "Eugene Wong,eugene@berkeley.edu;ew@b.edu,7\n",
      spec, &data_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value(), 2);
  EXPECT_EQ(data_.gold_entity(0), 7);
  EXPECT_EQ(data_.reference(0).FirstValue(name_), "Wong, E.");
  // Multi-valued cell split on ';'.
  EXPECT_EQ(data_.reference(1).atomic_values(email_).size(), 2u);
}

TEST_F(CsvImportTest, NoHeaderAndIgnoredColumns) {
  CsvImportSpec spec;
  spec.class_id = person_;
  spec.has_header = false;
  spec.column_to_attribute = {-1, name_};
  const auto result = ImportCsv("junk,Eugene Wong\n", spec, &data_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 1);
  EXPECT_EQ(data_.reference(0).FirstValue(name_), "Eugene Wong");
  EXPECT_EQ(data_.gold_entity(0), -1);
}

TEST_F(CsvImportTest, RejectsAssociationColumns) {
  CsvImportSpec spec;
  spec.class_id = person_;
  spec.column_to_attribute = {
      data_.schema().RequireAttribute(person_, "coAuthor")};
  EXPECT_FALSE(ImportCsv("x\n", spec, &data_).ok());
}

TEST_F(CsvImportTest, RejectsBadGold) {
  CsvImportSpec spec;
  spec.class_id = person_;
  spec.has_header = false;
  spec.column_to_attribute = {name_};
  spec.gold_column = 1;
  const auto result = ImportCsv("Eve,notanumber\n", spec, &data_);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("row 1"), std::string::npos);
}

TEST_F(CsvImportTest, ImportedDataReconciles) {
  // A miniature dedupe job straight from CSV.
  CsvImportSpec spec;
  spec.class_id = person_;
  spec.column_to_attribute = {name_, email_};
  spec.gold_column = 2;
  const auto result = ImportCsv(
      "name,email,id\n"
      "Michael Stonebraker,stonebraker@csail.mit.edu,1\n"
      "mike,stonebraker@csail.mit.edu,1\n"
      "\"Stonebraker, M.\",,1\n"
      "Eugene Wong,eugene@berkeley.edu,2\n"
      "\"Wong, E.\",eugene@berkeley.edu,2\n",
      spec, &data_);
  ASSERT_TRUE(result.ok());

  const Reconciler reconciler(ReconcilerOptions::DepGraph());
  const ReconcileResult r = reconciler.Run(data_);
  EXPECT_EQ(r.cluster[0], r.cluster[1]);
  EXPECT_EQ(r.cluster[3], r.cluster[4]);
  EXPECT_NE(r.cluster[0], r.cluster[3]);
}

}  // namespace
}  // namespace recon::extract
