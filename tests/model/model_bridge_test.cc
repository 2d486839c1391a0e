#include "model/model_bridge.h"

#include <map>
#include <vector>

#include "core/expected_rank_attr.h"
#include "core/expected_rank_tuple.h"
#include "gtest/gtest.h"
#include "model/possible_worlds.h"
#include "test_util.h"
#include "util/rng.h"

namespace urank {
namespace {

using testing_util::PaperFig2;
using testing_util::Prepared;
using testing_util::RandomSmallAttr;

TEST(ModelBridgeTest, StructureOfFig2Bridge) {
  const AttrToTupleBridge bridge = BridgeAttrToTuple(PaperFig2());
  EXPECT_EQ(bridge.relation.size(), 5);     // 2 + 2 + 1 alternatives
  EXPECT_EQ(bridge.relation.num_rules(), 3);
  EXPECT_DOUBLE_EQ(bridge.relation.ExpectedWorldSize(), 3.0);
  for (int r = 0; r < bridge.relation.num_rules(); ++r) {
    EXPECT_NEAR(bridge.relation.rule_prob_sum(r), 1.0, 1e-9);
  }
  // Source bookkeeping: alternative 0/1 come from t1, 2/3 from t2, 4 from
  // t3.
  EXPECT_EQ(bridge.source_id,
            (std::vector<int>{1, 1, 2, 2, 3}));
  EXPECT_DOUBLE_EQ(bridge.source_value[0], 100.0);
  EXPECT_DOUBLE_EQ(bridge.source_value[4], 85.0);
}

TEST(ModelBridgeTest, WorldsAreInProbabilityPreservingBijection) {
  Rng rng(1);
  for (int trial = 0; trial < 8; ++trial) {
    const AttrRelation rel = RandomSmallAttr(rng, 5, 3);
    const AttrToTupleBridge bridge = BridgeAttrToTuple(rel);
    // Key each world by the realized per-source-tuple value vector; the
    // two distributions over keys must be identical.
    std::map<std::vector<double>, double> attr_worlds;
    ForEachAttrWorld(rel, [&](const std::vector<double>& scores, double p) {
      attr_worlds[scores] += p;
    });
    std::map<std::vector<double>, double> bridged_worlds;
    ForEachTupleWorld(
        bridge.relation, [&](const std::vector<bool>& present, double p) {
          std::vector<double> scores(static_cast<size_t>(rel.size()), 0.0);
          for (int j = 0; j < bridge.relation.size(); ++j) {
            if (!present[static_cast<size_t>(j)]) continue;
            // source ids are 0..N-1 for RandomSmallAttr relations.
            scores[static_cast<size_t>(
                bridge.source_id[static_cast<size_t>(j)])] =
                bridge.source_value[static_cast<size_t>(j)];
          }
          bridged_worlds[scores] += p;
        });
    ASSERT_EQ(attr_worlds.size(), bridged_worlds.size());
    for (const auto& [key, prob] : attr_worlds) {
      auto it = bridged_worlds.find(key);
      ASSERT_NE(it, bridged_worlds.end());
      EXPECT_NEAR(it->second, prob, 1e-9);
    }
  }
}

TEST(ModelBridgeTest, EveryWorldHasExactlyNAlternatives) {
  Rng rng(2);
  const AttrRelation rel = RandomSmallAttr(rng, 4, 3);
  const AttrToTupleBridge bridge = BridgeAttrToTuple(rel);
  ForEachTupleWorld(bridge.relation,
                    [&](const std::vector<bool>& present, double) {
                      int count = 0;
                      for (bool b : present) count += b ? 1 : 0;
                      EXPECT_EQ(count, rel.size());
                    });
}

TEST(ModelBridgeTest, RankingDoesNotReduceAcrossTheBridge) {
  // The paper's warning made concrete: the expected rank of a source
  // tuple is NOT recoverable as the expected rank of its alternatives.
  // For Fig. 2's t1: attribute-level r(t1) = 1.2, but the bridged
  // alternative (100, 0.4) has r = 0.4*0 + 0.6*3 = 1.8 (when absent it
  // trails a full 3-tuple world).
  const AttrToTupleBridge bridge = BridgeAttrToTuple(PaperFig2());
  const std::vector<double> bridged =
      TupleExpectedRanks(Prepared(bridge.relation));
  EXPECT_NEAR(bridged[0], 1.8, 1e-12);
  const std::vector<double> attr = AttrExpectedRanks(Prepared(PaperFig2()));
  EXPECT_NEAR(attr[0], 1.2, 1e-12);
  EXPECT_GT(bridged[0], attr[0] + 0.5);
}

TEST(ModelBridgeTest, EmptyRelation) {
  const AttrToTupleBridge bridge = BridgeAttrToTuple(AttrRelation());
  EXPECT_EQ(bridge.relation.size(), 0);
  EXPECT_TRUE(bridge.source_id.empty());
}

}  // namespace
}  // namespace urank
