#include "core/query.h"

namespace urank {

const char* ToString(RankingSemantics semantics) {
  switch (semantics) {
    case RankingSemantics::kExpectedRank:
      return "expected-rank";
    case RankingSemantics::kMedianRank:
      return "median-rank";
    case RankingSemantics::kQuantileRank:
      return "quantile-rank";
    case RankingSemantics::kUTopk:
      return "u-topk";
    case RankingSemantics::kUKRanks:
      return "u-kranks";
    case RankingSemantics::kPTk:
      return "pt-k";
    case RankingSemantics::kGlobalTopk:
      return "global-topk";
    case RankingSemantics::kExpectedScore:
      return "expected-score";
  }
  return "?";
}

bool FromString(std::string_view name, RankingSemantics* out) {
  static constexpr RankingSemantics kAll[] = {
      RankingSemantics::kExpectedRank,  RankingSemantics::kMedianRank,
      RankingSemantics::kQuantileRank,  RankingSemantics::kUTopk,
      RankingSemantics::kUKRanks,       RankingSemantics::kPTk,
      RankingSemantics::kGlobalTopk,    RankingSemantics::kExpectedScore,
  };
  for (RankingSemantics semantics : kAll) {
    if (name == ToString(semantics)) {
      *out = semantics;
      return true;
    }
  }
  return false;
}

const char* ToString(TiePolicy ties) {
  switch (ties) {
    case TiePolicy::kStrictGreater:
      return "strict-greater";
    case TiePolicy::kBreakByIndex:
      return "by-index";
  }
  return "?";
}

bool FromString(std::string_view name, TiePolicy* out) {
  for (TiePolicy ties :
       {TiePolicy::kStrictGreater, TiePolicy::kBreakByIndex}) {
    if (name == ToString(ties)) {
      *out = ties;
      return true;
    }
  }
  return false;
}

}  // namespace urank
