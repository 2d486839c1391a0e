// The ranking-query vocabulary shared by the engine
// (core/engine/query_engine.h), the urankd wire protocol (serve/) and
// in-process callers: the semantics enum, the per-query options, the
// answer shape, and the stable names of semantics and tie policies.
// Queries run through QueryEngine::Run(const QueryRequest&); the
// per-semantics headers expose the prepared-state statistic and top-k
// functions behind it.

#ifndef URANK_CORE_QUERY_H_
#define URANK_CORE_QUERY_H_

#include <string_view>
#include <vector>

#include "model/types.h"

namespace urank {

// The ranking definitions of paper Sections 4–7.
enum class RankingSemantics {
  kExpectedRank,   // Definition 8 (the paper's proposal)
  kMedianRank,     // Definition 9, phi = 0.5
  kQuantileRank,   // Definition 9, phi from the options
  kUTopk,          // most likely top-k answer [42]
  kUKRanks,        // most likely tuple per rank [42], [30]
  kPTk,            // probabilistic threshold top-k [23]
  kGlobalTopk,     // top-k by top-k probability [48]
  kExpectedScore,  // rank by E[score]
};

// Human-readable semantics name ("expected-rank", ...). These names are
// also the wire protocol's "semantics" vocabulary (docs/SERVING.md) and
// are stable.
const char* ToString(RankingSemantics semantics);

// Inverse of ToString. Returns false (leaving `*out` untouched) when
// `name` is not a known semantics name.
bool FromString(std::string_view name, RankingSemantics* out);

// Stable tie-policy names ("strict-greater" / "by-index"), likewise part
// of the wire vocabulary.
const char* ToString(TiePolicy ties);
bool FromString(std::string_view name, TiePolicy* out);

// Query parameters. `k` is required for every semantics; `phi` only
// applies to kQuantileRank and `threshold` only to kPTk.
struct RankingQueryOptions {
  RankingSemantics semantics = RankingSemantics::kExpectedRank;
  int k = 10;
  double phi = 0.5;
  double threshold = 0.5;
  // Every semantics defaults to the deterministic by-index tie policy so
  // answers across semantics are directly comparable.
  TiePolicy ties = TiePolicy::kBreakByIndex;
};

// A ranked answer. `ids` lists the reported tuples in rank order (PT-k may
// report more or fewer than k; U-kRanks reports -1 for an unfillable
// rank). `statistics[i]` is the value the i-th entry was ranked by —
// expected/median/quantile rank (lower is better) or, for the
// probability-based semantics, the (top-k / positional / answer-set)
// probability (higher is better); empty when the semantics carries no
// per-tuple statistic for a slot.
struct RankingAnswer {
  std::vector<int> ids;
  std::vector<double> statistics;
};

}  // namespace urank

#endif  // URANK_CORE_QUERY_H_
