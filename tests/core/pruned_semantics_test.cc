// Tests for the early-terminating Global-Topk and U-kRanks evaluations
// that QueryRequest::prune routes through QueryEngine::Run, and for the
// tuple_sweep stop hook their bounds read: the serial chunk-grid driver
// must hand every visited tuple the unpruned kernel's exact row, and the
// flushed Poisson binomial the hook sees must bound every unvisited
// tuple.

#include <algorithm>
#include <vector>

#include "core/engine/query_engine.h"
#include "core/internal/kernel_arena.h"
#include "core/internal/tuple_sweep.h"
#include "core/internal/vector_kernels.h"
#include "core/rank_distribution_tuple.h"
#include "core/semantics/global_topk.h"
#include "core/semantics/semantics.h"
#include "core/semantics/u_kranks.h"
#include "gen/tuple_gen.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/rng.h"

namespace urank {
namespace {

using internal::AlignedBuf;
using testing_util::ExpectPruneMatchesUnpruned;
using testing_util::PaperFig4;
using testing_util::Prepared;
using testing_util::RandomSmallTuple;
using testing_util::Request;

constexpr TiePolicy kPolicies[] = {TiePolicy::kStrictGreater,
                                   TiePolicy::kBreakByIndex};

// Positional rows (ops.scale of the appear pmf by p, exactly as the pruned
// kernels build them) by tuple position, from one full pass of the serial
// chunk-grid driver; `at_boundary(next_pos, pmf)` sees every run boundary.
std::vector<std::vector<double>> DriverRows(
    const PreparedTupleRelation& prepared, TiePolicy ties,
    const internal::TupleSweepStopFn& at_boundary) {
  const TupleRelation& rel = prepared.relation();
  std::vector<std::vector<double>> rows(static_cast<size_t>(rel.size()));
  const vk::KernelOps& ops = vk::Active();
  internal::KernelArena arena;
  internal::SweepChunkGrid(
      rel, prepared.rank_order(), ties, *prepared.SweepEntries(ties), &arena,
      [&](int i, const AlignedBuf& appear) {
        std::vector<double>& row = rows[static_cast<size_t>(i)];
        row.resize(appear.size());
        ops.scale(row.data(), appear.data(), rel.tuple(i).prob,
                  appear.size());
      },
      at_boundary);
  return rows;
}

double Cdf(const AlignedBuf& pmf, size_t upto) {
  double cdf = 0.0;
  for (size_t c = 0; c <= upto && c < pmf.size(); ++c) cdf += pmf[c];
  return cdf;
}

TEST(TupleSweepStopHookTest, TopKProbabilityMatchesBatchComputation) {
  Rng rng(1);
  const vk::KernelOps& ops = vk::Active();
  for (int trial = 0; trial < 10; ++trial) {
    const PreparedTupleRelation prepared = Prepared(RandomSmallTuple(rng, 9));
    for (TiePolicy ties : kPolicies) {
      const auto rows = DriverRows(
          prepared, ties, [](size_t, const AlignedBuf&) { return false; });
      for (int k : {1, 3, 5}) {
        const std::vector<double> batch =
            TupleTopKProbabilities(prepared, k, ties);
        for (size_t i = 0; i < rows.size(); ++i) {
          const size_t hi = std::min(static_cast<size_t>(k), rows[i].size());
          EXPECT_EQ(std::min(ops.sum(rows[i].data(), hi), 1.0), batch[i])
              << "tuple " << i << " k=" << k;
        }
      }
    }
  }
}

TEST(TupleSweepStopHookTest, PositionalProbabilitiesMatchBatchComputation) {
  Rng rng(2);
  const TupleRelation rel = RandomSmallTuple(rng, 8);
  for (TiePolicy ties : kPolicies) {
    const auto batch = TuplePositionalProbabilities(rel, ties);
    const auto rows = DriverRows(
        Prepared(rel), ties, [](size_t, const AlignedBuf&) { return false; });
    for (size_t i = 0; i < rows.size(); ++i) {
      for (size_t r = 0; r < batch[i].size(); ++r) {
        EXPECT_EQ(r < rows[i].size() ? rows[i][r] : 0.0, batch[i][r])
            << "tuple " << i << " rank " << r;
      }
    }
  }
}

TEST(TupleSweepStopHookTest, UnseenBoundsAreSound) {
  // At every run boundary, each tuple not yet visited has top-k
  // probability <= CDF(k) and rank-r probability <= CDF(r + 1) of the
  // hook's flushed pmf — the PT-k / Global-Topk and U-kRanks stop bounds.
  Rng rng(3);
  const int k = 3;
  for (int trial = 0; trial < 10; ++trial) {
    const TupleRelation rel = RandomSmallTuple(rng, 10);
    const PreparedTupleRelation prepared = Prepared(rel);
    for (TiePolicy ties : kPolicies) {
      const std::vector<double> probs =
          TupleTopKProbabilities(prepared, k, ties);
      const auto positional = TuplePositionalProbabilities(rel, ties);
      const std::vector<int>& order = prepared.rank_order();
      int boundaries = 0;
      DriverRows(prepared, ties, [&](size_t next_pos, const AlignedBuf& pmf) {
        ++boundaries;
        for (size_t idx = next_pos; idx < order.size(); ++idx) {
          const size_t j = static_cast<size_t>(order[idx]);
          EXPECT_LE(probs[j], Cdf(pmf, k) + 1e-9) << "tuple " << j;
          for (int r = 0; r < k; ++r) {
            EXPECT_LE(positional[j][static_cast<size_t>(r)],
                      Cdf(pmf, static_cast<size_t>(r) + 1) + 1e-9)
                << "tuple " << j << " rank " << r;
          }
        }
        return false;
      });
      EXPECT_GT(boundaries, 0);
    }
  }
}

TEST(TupleGlobalTopKPrunedTest, MatchesUnprunedOnPaperExample) {
  for (int k = 1; k <= 4; ++k) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    ExpectPruneMatchesUnpruned(PaperFig4(),
                               Request(RankingSemantics::kGlobalTopk, k));
  }
}

TEST(TupleGlobalTopKPrunedTest, MatchesUnprunedOnRandomInstances) {
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const TupleRelation rel = RandomSmallTuple(rng, 10);
    for (int k : {1, 3, 6}) {
      for (TiePolicy ties : kPolicies) {
        SCOPED_TRACE(::testing::Message() << "k=" << k);
        ExpectPruneMatchesUnpruned(
            rel, Request(RankingSemantics::kGlobalTopk, k, ties));
      }
    }
  }
}

TEST(TupleGlobalTopKPrunedTest, StopsEarlyOnLargeRelations) {
  TupleGenConfig config;
  config.num_tuples = 5000;
  config.prob_lo = 0.4;
  config.seed = 5;
  const TupleRelation rel = GenerateTupleRelation(config);
  const QueryStats stats = ExpectPruneMatchesUnpruned(
      rel, Request(RankingSemantics::kGlobalTopk, 20));
  EXPECT_GT(stats.tuples_scanned, 0);
  EXPECT_LT(stats.tuples_scanned, rel.size() / 10);
}

TEST(TupleUKRanksPrunedTest, MatchesUnprunedOnPaperExample) {
  for (int k = 1; k <= 4; ++k) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    ExpectPruneMatchesUnpruned(PaperFig4(),
                               Request(RankingSemantics::kUKRanks, k));
  }
}

TEST(TupleUKRanksPrunedTest, MatchesUnprunedOnRandomInstances) {
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    const TupleRelation rel = RandomSmallTuple(rng, 10);
    for (int k : {1, 3, 6}) {
      for (TiePolicy ties : kPolicies) {
        SCOPED_TRACE(::testing::Message() << "k=" << k);
        ExpectPruneMatchesUnpruned(
            rel, Request(RankingSemantics::kUKRanks, k, ties));
      }
    }
  }
}

TEST(TupleUKRanksPrunedTest, StopsEarlyOnLargeRelations) {
  TupleGenConfig config;
  config.num_tuples = 5000;
  config.prob_lo = 0.4;
  config.seed = 7;
  const TupleRelation rel = GenerateTupleRelation(config);
  const QueryStats stats = ExpectPruneMatchesUnpruned(
      rel, Request(RankingSemantics::kUKRanks, 10));
  EXPECT_GT(stats.tuples_scanned, 0);
  EXPECT_LT(stats.tuples_scanned, rel.size() / 10);
}

TEST(PrunedSemanticsDeathTest, RejectBadArguments) {
  EXPECT_DEATH(TupleGlobalTopKPrune(Prepared(PaperFig4()), 0),
               "k must be >= 1");
  EXPECT_DEATH(TupleUKRanksPrune(Prepared(PaperFig4()), 0), "k must be >= 1");
}

}  // namespace
}  // namespace urank
