// Rank-distribution profiling: Section 7 argues the rank distribution's
// statistics are "of independent interest" beyond producing a top-k. This
// example prints each tuple's full rank profile — expectation, spread,
// quartiles, mode — for the paper's Fig. 4 relation and for a generated
// catalogue, showing how tuples with similar expected ranks can have very
// different risk profiles.
//
//   $ ./rank_profile

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

// SummarizeRankDistribution (the Section 7 rank statistics), which the
// engine does not serve:
// urank-lint: allow(engine-api)
#include "core/quantile_rank.h"
#include "core/rank_distribution_tuple.h"
#include "gen/tuple_gen.h"
#include "model/tuple_model.h"
#include "util/table.h"

namespace {

void PrintProfiles(const char* title, const urank::TupleRelation& rel,
                   int limit) {
  urank::Table table(title, {"tuple", "score", "p", "E[rank]", "stddev",
                             "q25", "median", "q75", "mode"});
  int rows = 0;
  const auto dists = urank::TupleRankDistributions(rel);
  // Order rows by expected rank so the table reads like a ranking.
  std::vector<std::pair<double, int>> order;
  for (int i = 0; i < rel.size(); ++i) {
    const urank::RankDistributionSummary s =
        urank::SummarizeRankDistribution(dists[static_cast<size_t>(i)]);
    order.emplace_back(s.mean, i);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [mean, i] : order) {
    if (rows++ >= limit) break;
    const urank::RankDistributionSummary s =
        urank::SummarizeRankDistribution(dists[static_cast<size_t>(i)]);
    std::string label = "t";
    label.append(std::to_string(rel.tuple(i).id));
    table.AddRow({std::move(label),
                  urank::FormatDouble(rel.tuple(i).score, 1),
                  urank::FormatDouble(rel.tuple(i).prob, 2),
                  urank::FormatDouble(s.mean, 2),
                  urank::FormatDouble(s.stddev, 2), urank::FormatInt(s.q25),
                  urank::FormatInt(s.median), urank::FormatInt(s.q75),
                  urank::FormatInt(s.mode)});
  }
  table.Print();
}

}  // namespace

int main() {
  urank::TupleRelation fig4(
      {
          {1, 100.0, 0.4},
          {2, 90.0, 0.5},
          {3, 80.0, 1.0},
          {4, 70.0, 0.5},
      },
      {{0}, {1, 3}, {2}});
  PrintProfiles("rank profiles — paper Fig. 4", fig4, 4);
  std::printf(
      "\nNote t1: mean rank 1.2 but a bimodal distribution (rank 0 with\n"
      "probability 0.4, rank 2 with 0.6) — the median calls it rank 2\n"
      "while the expectation places it second. This is exactly why the\n"
      "paper studies both statistics.\n\n");

  urank::TupleGenConfig config;
  config.num_tuples = 2000;
  config.multi_rule_fraction = 0.4;
  config.seed = 99;
  urank::TupleRelation catalogue = urank::GenerateTupleRelation(config);
  PrintProfiles("rank profiles — generated catalogue (top 10 by E[rank])",
                catalogue, 10);
  return 0;
}
