#include "io/csv.h"

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "core/expected_rank_attr.h"
#include "core/expected_rank_tuple.h"
#include "gen/attr_gen.h"
#include "gen/tuple_gen.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace urank {
namespace {

using testing_util::PaperFig2;
using testing_util::PaperFig4;
using testing_util::Prepared;

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(AttrCsvTest, RoundTripThroughStreams) {
  const AttrRelation original = PaperFig2();
  std::stringstream buffer;
  WriteAttrRelation(original, buffer);
  AttrRelation loaded;
  std::string error;
  ASSERT_TRUE(ReadAttrRelation(buffer, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), original.size());
  for (int i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.tuple(i).id, original.tuple(i).id);
    EXPECT_EQ(loaded.tuple(i).pdf, original.tuple(i).pdf);
  }
}

TEST(AttrCsvTest, RoundTripPreservesQueryAnswers) {
  AttrGenConfig config;
  config.num_tuples = 200;
  config.seed = 3;
  const AttrRelation original = GenerateAttrRelation(config);
  std::stringstream buffer;
  WriteAttrRelation(original, buffer);
  AttrRelation loaded;
  std::string error;
  ASSERT_TRUE(ReadAttrRelation(buffer, &loaded, &error)) << error;
  EXPECT_EQ(IdsOf(AttrExpectedRankTopK(Prepared(loaded), 10)),
            IdsOf(AttrExpectedRankTopK(Prepared(original), 10)));
}

TEST(AttrCsvTest, ParsesHandWrittenInput) {
  std::stringstream in(
      "# comment line\n"
      "\n"
      "1, 100:0.4; 70:0.6\n"
      "2,92:0.6;80:0.4\n");
  AttrRelation rel;
  std::string error;
  ASSERT_TRUE(ReadAttrRelation(in, &rel, &error)) << error;
  EXPECT_EQ(rel.size(), 2);
  EXPECT_DOUBLE_EQ(rel.tuple(0).pdf[0].value, 100.0);
}

TEST(AttrCsvTest, RejectsMalformedInput) {
  std::string error;
  AttrRelation rel;
  {
    std::stringstream in("1\n");
    EXPECT_FALSE(ReadAttrRelation(in, &rel, &error));
    EXPECT_NE(error.find("line 1"), std::string::npos);
  }
  {
    std::stringstream in("x,1:1\n");
    EXPECT_FALSE(ReadAttrRelation(in, &rel, &error));
    EXPECT_NE(error.find("bad tuple id"), std::string::npos);
  }
  {
    std::stringstream in("1,10:0.5;20\n");
    EXPECT_FALSE(ReadAttrRelation(in, &rel, &error));
    EXPECT_NE(error.find("pdf entry"), std::string::npos);
  }
  {
    // Parses but fails model validation (probabilities sum to 0.9).
    std::stringstream in("1,10:0.5;20:0.4\n");
    EXPECT_FALSE(ReadAttrRelation(in, &rel, &error));
    EXPECT_NE(error.find("invalid relation"), std::string::npos);
  }
}

TEST(TupleCsvTest, RoundTripThroughStreams) {
  const TupleRelation original = PaperFig4();
  std::stringstream buffer;
  WriteTupleRelation(original, buffer);
  TupleRelation loaded;
  std::string error;
  ASSERT_TRUE(ReadTupleRelation(buffer, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), original.size());
  for (int i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.tuple(i), original.tuple(i));
  }
  // Rule structure survives: t2 and t4 are still exclusive.
  EXPECT_EQ(loaded.rule_of(1), loaded.rule_of(3));
  EXPECT_NE(loaded.rule_of(0), loaded.rule_of(1));
  // And the query answers match.
  EXPECT_EQ(IdsOf(TupleExpectedRankTopK(Prepared(loaded), 4)),
            IdsOf(TupleExpectedRankTopK(Prepared(original), 4)));
}

TEST(TupleCsvTest, RoundTripGeneratedRelation) {
  TupleGenConfig config;
  config.num_tuples = 300;
  config.multi_rule_fraction = 0.5;
  config.seed = 4;
  const TupleRelation original = GenerateTupleRelation(config);
  std::stringstream buffer;
  WriteTupleRelation(original, buffer);
  TupleRelation loaded;
  std::string error;
  ASSERT_TRUE(ReadTupleRelation(buffer, &loaded, &error)) << error;
  EXPECT_EQ(loaded.num_rules(), original.num_rules());
  EXPECT_EQ(IdsOf(TupleExpectedRankTopK(Prepared(loaded), 20)),
            IdsOf(TupleExpectedRankTopK(Prepared(original), 20)));
}

TEST(TupleCsvTest, ParsesRuleLabels) {
  std::stringstream in(
      "# id,score,prob,rule\n"
      "10,5.0,0.5,7\n"
      "11,4.0,0.4,7\n"
      "12,3.0,0.9,-1\n");
  TupleRelation rel;
  std::string error;
  ASSERT_TRUE(ReadTupleRelation(in, &rel, &error)) << error;
  EXPECT_EQ(rel.size(), 3);
  EXPECT_EQ(rel.rule_of(0), rel.rule_of(1));
  EXPECT_NE(rel.rule_of(0), rel.rule_of(2));
}

TEST(TupleCsvTest, RejectsMalformedInput) {
  std::string error;
  TupleRelation rel;
  {
    std::stringstream in("1,2.0,0.5\n");
    EXPECT_FALSE(ReadTupleRelation(in, &rel, &error));
    EXPECT_NE(error.find("expected"), std::string::npos);
  }
  {
    std::stringstream in("1,2.0,high,0\n");
    EXPECT_FALSE(ReadTupleRelation(in, &rel, &error));
    EXPECT_NE(error.find("unparsable"), std::string::npos);
  }
  {
    // Over-full rule caught by model validation.
    std::stringstream in("1,2.0,0.7,3\n2,1.0,0.7,3\n");
    EXPECT_FALSE(ReadTupleRelation(in, &rel, &error));
    EXPECT_NE(error.find("invalid relation"), std::string::npos);
  }
}

TEST(CsvFileTest, SaveAndLoadFiles) {
  const std::string attr_path = TempPath("urank_attr_test.csv");
  const std::string tuple_path = TempPath("urank_tuple_test.csv");
  std::string error;
  ASSERT_TRUE(SaveAttrRelation(PaperFig2(), attr_path, &error)) << error;
  ASSERT_TRUE(SaveTupleRelation(PaperFig4(), tuple_path, &error)) << error;
  AttrRelation attr;
  TupleRelation tuple;
  ASSERT_TRUE(LoadAttrRelation(attr_path, &attr, &error)) << error;
  ASSERT_TRUE(LoadTupleRelation(tuple_path, &tuple, &error)) << error;
  EXPECT_EQ(attr.size(), 3);
  EXPECT_EQ(tuple.size(), 4);
  std::remove(attr_path.c_str());
  std::remove(tuple_path.c_str());
}

TEST(CsvFileTest, MissingFileReportsError) {
  AttrRelation rel;
  std::string error;
  EXPECT_FALSE(LoadAttrRelation("/nonexistent/nope.csv", &rel, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(CsvTest, HandlesWindowsLineEndings) {
  std::stringstream in("1,10:0.5;20:0.5\r\n2,30:1\r\n");
  AttrRelation rel;
  std::string error;
  ASSERT_TRUE(ReadAttrRelation(in, &rel, &error)) << error;
  EXPECT_EQ(rel.size(), 2);
  EXPECT_DOUBLE_EQ(rel.tuple(1).pdf[0].value, 30.0);
}

TEST(CsvTest, HandlesWhitespacePadding) {
  std::stringstream in("  7 , 1.5 , 0.25 , -1 \n");
  TupleRelation rel;
  std::string error;
  ASSERT_TRUE(ReadTupleRelation(in, &rel, &error)) << error;
  ASSERT_EQ(rel.size(), 1);
  EXPECT_EQ(rel.tuple(0).id, 7);
  EXPECT_DOUBLE_EQ(rel.tuple(0).score, 1.5);
}

TEST(CsvTest, RejectsTrailingGarbageInNumbers) {
  std::stringstream in("1,10:0.5x;20:0.5\n");
  AttrRelation rel;
  std::string error;
  EXPECT_FALSE(ReadAttrRelation(in, &rel, &error));
}

TEST(CsvTest, EmptyInputGivesEmptyRelations) {
  std::string error;
  {
    std::stringstream in("# nothing but comments\n");
    AttrRelation rel;
    ASSERT_TRUE(ReadAttrRelation(in, &rel, &error)) << error;
    EXPECT_EQ(rel.size(), 0);
  }
  {
    std::stringstream in("");
    TupleRelation rel;
    ASSERT_TRUE(ReadTupleRelation(in, &rel, &error)) << error;
    EXPECT_EQ(rel.size(), 0);
  }
}

}  // namespace
}  // namespace urank
