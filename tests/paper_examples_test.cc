// Consolidated golden tests for every worked example in the paper
// (experiment E12 in DESIGN.md): the Fig. 2 / Fig. 4 relations evaluated
// under all ranking definitions, with the exact numbers the paper reports.

#include <vector>

#include "core/expected_rank_attr.h"
#include "core/expected_rank_tuple.h"
#include "core/quantile_rank.h"
#include "core/semantics/global_topk.h"
#include "core/semantics/pt_k.h"
#include "core/semantics/u_kranks.h"
#include "core/semantics/u_topk.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace urank {
namespace {

using testing_util::ExpectNearVectors;
using testing_util::PaperFig2;
using testing_util::PaperFig4;
using testing_util::Prepared;

TEST(PaperExamplesTest, Fig2ExpectedRanks) {
  // Section 4.3: r(t2)=0.8, r(t3)=1, r(t1)=1.2; final ranking (t2,t3,t1).
  const PreparedAttrRelation fig2 = Prepared(PaperFig2());
  ExpectNearVectors(AttrExpectedRanks(fig2), {1.2, 0.8, 1.0}, 1e-12);
  EXPECT_EQ(IdsOf(AttrExpectedRankTopK(fig2, 3)),
            (std::vector<int>{2, 3, 1}));
}

TEST(PaperExamplesTest, Fig4ExpectedRanks) {
  // Section 4.3: r(t1)=1.2, r(t2)=1.4, r(t3)=0.9, r(t4)=1.9; final
  // ranking (t3,t1,t2,t4).
  const PreparedTupleRelation fig4 = Prepared(PaperFig4());
  ExpectNearVectors(TupleExpectedRanks(fig4), {1.2, 1.4, 0.9, 1.9}, 1e-12);
  EXPECT_EQ(IdsOf(TupleExpectedRankTopK(fig4, 4)),
            (std::vector<int>{3, 1, 2, 4}));
}

TEST(PaperExamplesTest, Fig2MedianRanks) {
  // Section 7.1: r_m(t1)=2, r_m(t2)=1, r_m(t3)=1; ranking (t2,t3,t1).
  const PreparedAttrRelation fig2 = Prepared(PaperFig2());
  EXPECT_EQ(AttrQuantileRanks(fig2, 0.5), (std::vector<int>{2, 1, 1}));
  EXPECT_EQ(IdsOf(AttrQuantileRankTopK(fig2, 3, 0.5)),
            (std::vector<int>{2, 3, 1}));
}

TEST(PaperExamplesTest, Fig4MedianRanks) {
  // Section 7.1: r_m = (2, 1, 1, 2); ranking (t2,t3,t1,t4) — different
  // from the expected-rank order (t3,t1,t2,t4).
  const PreparedTupleRelation fig4 = Prepared(PaperFig4());
  EXPECT_EQ(TupleQuantileRanks(fig4, 0.5), (std::vector<int>{2, 1, 1, 2}));
  EXPECT_EQ(IdsOf(TupleQuantileRankTopK(fig4, 4, 0.5)),
            (std::vector<int>{2, 3, 1, 4}));
}

TEST(PaperExamplesTest, Fig2UTopkDisjointTopOneTopTwo) {
  // Section 4.2: top-1 is t1 (0.4); top-2 is (t2,t3) (0.36).
  const PreparedAttrRelation fig2 = Prepared(PaperFig2());
  EXPECT_EQ(AttrUTopK(fig2, 1).ids, (std::vector<int>{1}));
  EXPECT_EQ(AttrUTopK(fig2, 2).ids, (std::vector<int>{2, 3}));
}

TEST(PaperExamplesTest, Fig4UTopkDisjointTopOneTopTwo) {
  // Section 4.2: top-1 is t1; top-2 is (t2,t3) or (t3,t4).
  const PreparedTupleRelation fig4 = Prepared(PaperFig4());
  EXPECT_EQ(TupleUTopK(fig4, 1).ids, (std::vector<int>{1}));
  const auto top2 = TupleUTopK(fig4, 2).ids;
  EXPECT_TRUE(top2 == (std::vector<int>{2, 3}) ||
              top2 == (std::vector<int>{3, 4}));
}

TEST(PaperExamplesTest, Fig2UKRanks) {
  // Section 4.2: the U-kRanks top-3 is t1, t3, t1.
  EXPECT_EQ(AttrUKRanks(Prepared(PaperFig2()), 3),
            (std::vector<int>{1, 3, 1}));
}

TEST(PaperExamplesTest, Fig4UKRanksTieAndMissingFourth) {
  const auto answer = TupleUKRanks(Prepared(PaperFig4()), 4);
  EXPECT_EQ(answer[3], -1);  // "there is no fourth placed tuple"
}

TEST(PaperExamplesTest, Fig2PTkWithThresholdPointFour) {
  // Section 4.2: PT-1 = (t1); PT-2 and PT-3 = {t1, t2, t3}.
  const PreparedAttrRelation fig2 = Prepared(PaperFig2());
  EXPECT_EQ(AttrPTk(fig2, 1, 0.4), (std::vector<int>{1}));
  EXPECT_EQ(AttrPTk(fig2, 2, 0.4).size(), 3u);
  EXPECT_EQ(AttrPTk(fig2, 3, 0.4).size(), 3u);
}

TEST(PaperExamplesTest, Fig2GlobalTopk) {
  // Section 4.2: top-1 is t1, top-2 is (t2, t3).
  const PreparedAttrRelation fig2 = Prepared(PaperFig2());
  EXPECT_EQ(AttrGlobalTopK(fig2, 1), (std::vector<int>{1}));
  EXPECT_EQ(AttrGlobalTopK(fig2, 2), (std::vector<int>{2, 3}));
}

TEST(PaperExamplesTest, Fig4GlobalTopk) {
  // Section 4.2: top-1 is t1, top-2 is (t3, t2).
  const PreparedTupleRelation fig4 = Prepared(PaperFig4());
  EXPECT_EQ(TupleGlobalTopK(fig4, 1), (std::vector<int>{1}));
  EXPECT_EQ(TupleGlobalTopK(fig4, 2), (std::vector<int>{3, 2}));
}

}  // namespace
}  // namespace urank
