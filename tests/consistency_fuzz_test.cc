// Randomized cross-module consistency checks at sizes beyond what
// possible-worlds enumeration can reach. Each invariant ties two
// independently implemented code paths together, so a bug in either one
// breaks the test.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "core/engine/query_engine.h"
#include "core/expected_rank_attr.h"
#include "core/expected_rank_tuple.h"
#include "core/quantile_rank.h"
#include "core/rank_distribution_attr.h"
#include "core/rank_distribution_tuple.h"
#include "core/semantics/global_topk.h"
#include "core/semantics/pt_k.h"
#include "core/semantics/semantics.h"
#include "gen/attr_gen.h"
#include "gen/tuple_gen.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace urank {
namespace {

using testing_util::Prepared;

class ConsistencyFuzz : public ::testing::TestWithParam<uint64_t> {
 protected:
  AttrRelation MakeAttr(int n) const {
    AttrGenConfig config;
    config.num_tuples = n;
    config.pdf_size = 4;
    config.value_spread = 100.0;  // heavy overlap stresses the DPs
    config.seed = GetParam();
    return GenerateAttrRelation(config);
  }

  TupleRelation MakeTuple(int n) const {
    TupleGenConfig config;
    config.num_tuples = n;
    config.multi_rule_fraction = 0.5;
    config.max_rule_size = 4;
    config.prob_lo = 0.05;
    config.seed = GetParam();
    return GenerateTupleRelation(config);
  }
};

TEST_P(ConsistencyFuzz, AttrExpectedRankEqualsDistributionMean) {
  const AttrRelation rel = MakeAttr(50);
  const std::vector<double> er =
      AttrExpectedRanks(Prepared(rel), TiePolicy::kBreakByIndex);
  const auto dists = AttrRankDistributions(rel, TiePolicy::kBreakByIndex);
  for (int i = 0; i < rel.size(); ++i) {
    double mean = 0.0;
    const auto& row = dists[static_cast<size_t>(i)];
    for (size_t r = 0; r < row.size(); ++r) mean += static_cast<double>(r) * row[r];
    EXPECT_NEAR(mean, er[static_cast<size_t>(i)], 1e-7) << "tuple " << i;
  }
}

TEST_P(ConsistencyFuzz, TupleExpectedRankEqualsDistributionMean) {
  const TupleRelation rel = MakeTuple(80);
  const std::vector<double> er =
      TupleExpectedRanks(Prepared(rel), TiePolicy::kBreakByIndex);
  const auto dists = TupleRankDistributions(rel, TiePolicy::kBreakByIndex);
  for (int i = 0; i < rel.size(); ++i) {
    double mean = 0.0;
    const auto& row = dists[static_cast<size_t>(i)];
    for (size_t r = 0; r < row.size(); ++r) mean += static_cast<double>(r) * row[r];
    EXPECT_NEAR(mean, er[static_cast<size_t>(i)], 1e-7) << "tuple " << i;
  }
}

TEST_P(ConsistencyFuzz, AttrTopKProbabilitiesSumToK) {
  // Every world contains exactly min(k, N) tuples in its top-k, so the
  // membership probabilities must sum to exactly k.
  const AttrRelation rel = MakeAttr(40);
  for (int k : {1, 7, 25}) {
    const std::vector<double> probs = AttrTopKProbabilities(Prepared(rel), k);
    const double sum = std::accumulate(probs.begin(), probs.end(), 0.0);
    EXPECT_NEAR(sum, std::min(k, rel.size()), 1e-7) << "k=" << k;
  }
}

TEST_P(ConsistencyFuzz, TupleTopKProbabilitiesSumToExpectedOccupancy) {
  // Σ_i Pr[t_i in top-k] = E[min(k, |W|)] <= min(k, E[|W|]).
  const TupleRelation rel = MakeTuple(60);
  for (int k : {1, 5, 20}) {
    const std::vector<double> probs = TupleTopKProbabilities(Prepared(rel), k);
    const double sum = std::accumulate(probs.begin(), probs.end(), 0.0);
    EXPECT_LE(sum, k + 1e-7);
    EXPECT_LE(sum, rel.ExpectedWorldSize() + 1e-7);
    EXPECT_GT(sum, 0.0);
  }
}

TEST_P(ConsistencyFuzz, PositionalRowsDecomposeTopKProbability) {
  // Pr[in top-k] must equal the sum of the first k positional entries —
  // two distinct aggregation paths over the same DP.
  const TupleRelation rel = MakeTuple(45);
  const auto pos = TuplePositionalProbabilities(rel);
  const int k = 9;
  const std::vector<double> probs = TupleTopKProbabilities(Prepared(rel), k);
  for (int i = 0; i < rel.size(); ++i) {
    double sum = 0.0;
    for (int r = 0; r < k; ++r) {
      sum += pos[static_cast<size_t>(i)][static_cast<size_t>(r)];
    }
    EXPECT_NEAR(sum, probs[static_cast<size_t>(i)], 1e-9);
  }
}

TEST_P(ConsistencyFuzz, PruneAgreesWithExactOnTupleModel) {
  // Every tuple-level semantics QueryRequest::prune reaches must answer
  // bit-identically to its unpruned kernel.
  const TupleRelation rel = MakeTuple(500);
  for (RankingSemantics semantics :
       {RankingSemantics::kExpectedRank, RankingSemantics::kMedianRank,
        RankingSemantics::kQuantileRank, RankingSemantics::kPTk,
        RankingSemantics::kGlobalTopk, RankingSemantics::kUKRanks}) {
    for (int k : {1, 13, 60}) {
      SCOPED_TRACE(::testing::Message() << ToString(semantics) << " k=" << k);
      QueryRequest request = testing_util::Request(semantics, k);
      request.options.phi = 0.8;
      request.options.threshold = 0.2;
      testing_util::ExpectPruneMatchesUnpruned(rel, request);
    }
  }
}

TEST_P(ConsistencyFuzz, QuantileSweepIsMonotoneEverywhere) {
  const TupleRelation rel = MakeTuple(70);
  std::vector<std::vector<int>> sweeps;
  for (double phi : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    sweeps.push_back(TupleQuantileRanks(Prepared(rel), phi));
  }
  for (size_t s = 1; s < sweeps.size(); ++s) {
    for (int i = 0; i < rel.size(); ++i) {
      EXPECT_LE(sweeps[s - 1][static_cast<size_t>(i)],
                sweeps[s][static_cast<size_t>(i)]);
    }
  }
}

TEST_P(ConsistencyFuzz, PTkWithTinyThresholdReturnsEveryPossibleMember) {
  const TupleRelation rel = MakeTuple(30);
  const int k = 5;
  const std::vector<int> answer = TuplePTk(Prepared(rel), k, 1e-12);
  const std::vector<double> probs = TupleTopKProbabilities(Prepared(rel), k);
  size_t possible = 0;
  for (double p : probs) {
    if (p >= 1e-12) ++possible;
  }
  EXPECT_EQ(answer.size(), possible);
}

TEST_P(ConsistencyFuzz, GlobalTopkIsPrefixOfPTkOrdering) {
  // Both order by top-k probability with the same tie-break, so
  // Global-Topk must be the k-prefix of PT-k with a tiny threshold.
  const AttrRelation rel = MakeAttr(25);
  const int k = 6;
  const std::vector<int> global = AttrGlobalTopK(Prepared(rel), k);
  const std::vector<int> ptk = AttrPTk(Prepared(rel), k, 1e-12);
  ASSERT_GE(ptk.size(), global.size());
  for (size_t i = 0; i < global.size(); ++i) {
    EXPECT_EQ(global[i], ptk[i]);
  }
}

TEST_P(ConsistencyFuzz, RankDistributionRowsAreDistributions) {
  const TupleRelation rel = MakeTuple(55);
  for (const auto& row : TupleRankDistributions(rel)) {
    double sum = 0.0;
    for (double p : row) {
      EXPECT_GE(p, -1e-12);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-7);
  }
}

TEST_P(ConsistencyFuzz, ExpectedRanksSumMatchesClosedForm) {
  // Under kBreakByIndex every ordered pair of co-appearing tuples resolves
  // exactly once, and each absent tuple contributes |W|:
  //   Σ_i r(t_i) = E[ C(|W|,2) ] + E[ (N - |W|) · |W| ].
  // With independence across rules both expectations reduce to moments of
  // |W|; validate against a direct second-moment computation.
  const TupleRelation rel = MakeTuple(40);
  const std::vector<double> ranks =
      TupleExpectedRanks(Prepared(rel), TiePolicy::kBreakByIndex);
  const double total = std::accumulate(ranks.begin(), ranks.end(), 0.0);
  // E[|W|] and Var[|W|] from the per-rule occupancy Bernoullis.
  double mean = 0.0, var = 0.0;
  for (int r = 0; r < rel.num_rules(); ++r) {
    const double p = std::min(rel.rule_prob_sum(r), 1.0);
    mean += p;
    var += p * (1.0 - p);
  }
  const double second_moment = var + mean * mean;  // E[|W|^2]
  const double n = rel.size();
  const double expected_total =
      (second_moment - mean) / 2.0 + n * mean - second_moment;
  EXPECT_NEAR(total, expected_total, 1e-6);
}

// One seed = one full pass over every invariant above. URANK_FUZZ_ITERS
// overrides the seed count: the default keeps a local ctest run fast, and
// the sanitizer CI job cranks it up for deeper coverage (see
// docs/TOOLING.md).
std::vector<uint64_t> FuzzSeeds() {
  int iters = 8;
  if (const char* env = std::getenv("URANK_FUZZ_ITERS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) iters = parsed;
  }
  std::vector<uint64_t> seeds(static_cast<size_t>(iters));
  std::iota(seeds.begin(), seeds.end(), uint64_t{1001});
  return seeds;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsistencyFuzz,
                         ::testing::ValuesIn(FuzzSeeds()));

}  // namespace
}  // namespace urank
